package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMesh2DStructure(t *testing.T) {
	g := Mesh2D(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d, want 12", g.NumNodes())
	}
	// 2D mesh edges: rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17
	if g.NumEdges() != 17 {
		t.Fatalf("NumEdges = %d, want 17", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) {
		t.Fatal("missing expected mesh edges from node 0")
	}
	if g.HasEdge(3, 4) {
		t.Fatal("row wrap edge 3-4 must not exist")
	}
	if !g.Connected() {
		t.Fatal("mesh must be connected")
	}
	c, ok := g.CoordOf(7)
	if !ok || c != (Coord{X: 3, Y: 1}) {
		t.Fatalf("CoordOf(7) = %v,%v; want {3 1},true", c, ok)
	}
}

func TestMeshCornerAndCenterDegrees(t *testing.T) {
	g := Mesh2D(3, 3)
	if d := g.Degree(0); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
	if d := g.Degree(4); d != 4 {
		t.Fatalf("center degree = %d, want 4", d)
	}
	if d := g.Degree(1); d != 3 {
		t.Fatalf("edge degree = %d, want 3", d)
	}
}

func TestRingAndChain(t *testing.T) {
	r := Ring(5)
	if r.NumEdges() != 5 || !r.Connected() {
		t.Fatalf("ring: edges=%d connected=%v", r.NumEdges(), r.Connected())
	}
	for _, id := range r.Nodes() {
		if r.Degree(id) != 2 {
			t.Fatalf("ring degree of %d = %d, want 2", id, r.Degree(id))
		}
	}
	c := Chain(5)
	if c.NumEdges() != 4 {
		t.Fatalf("chain edges = %d, want 4", c.NumEdges())
	}
}

func TestAddEdgeCreatesNodesAndIgnoresSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 0)
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("AddEdge must create endpoints")
	}
	if cost, _ := g.EdgeCost(1, 2); cost != DefaultEdgeCost {
		t.Fatalf("zero cost must default to %v, got %v", DefaultEdgeCost, cost)
	}
	g.AddEdge(1, 1, 5)
	if g.HasEdge(1, 1) {
		t.Fatal("self loops must be ignored")
	}
}

func TestRemoveNode(t *testing.T) {
	g := Mesh2D(2, 2)
	g.RemoveNode(0)
	if g.HasNode(0) || g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("RemoveNode left residue")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("after removal: nodes=%d edges=%d, want 3,2", g.NumNodes(), g.NumEdges())
	}
	g.RemoveNode(99) // absent: no-op
}

func TestInducedSubgraph(t *testing.T) {
	g := Mesh2D(3, 3)
	sub := g.Induced([]NodeID{0, 1, 3, 4})
	if sub.NumNodes() != 4 || sub.NumEdges() != 4 {
		t.Fatalf("induced 2x2 block: nodes=%d edges=%d, want 4,4", sub.NumNodes(), sub.NumEdges())
	}
	if _, ok := sub.CoordOf(4); !ok {
		t.Fatal("induced subgraph must inherit coordinates")
	}
	empty := g.Induced([]NodeID{42})
	if empty.NumNodes() != 0 {
		t.Fatal("unknown ids must be ignored")
	}
}

func TestSubsetConnected(t *testing.T) {
	g := Mesh2D(3, 3)
	if !g.SubsetConnected([]NodeID{0, 1, 2}) {
		t.Fatal("top row should be connected")
	}
	if g.SubsetConnected([]NodeID{0, 8}) {
		t.Fatal("opposite corners are not connected")
	}
	if !g.SubsetConnected(nil) || !g.SubsetConnected([]NodeID{5}) {
		t.Fatal("empty and singleton sets are connected")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := New()
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if g.Connected() {
		t.Fatal("two components must not be connected")
	}
}

// TestCloneIndependence: a clone encodes as its original does, and no
// mutation of it — a kind, an edge, a coordinate, a node removed —
// reaches the original.
func TestCloneIndependence(t *testing.T) {
	g := NearMesh(7)
	g.AddNode(3, "memif")
	g.AddEdge(0, 6, 2.5)
	key := ViewOf(g).CanonicalKey()
	c := g.Clone()
	if got := ViewOf(c).CanonicalKey(); got != key {
		t.Fatalf("clone encodes as %q, original %q", got, key)
	}
	c.AddNode(1, "memif")
	c.AddEdge(1, 5, 4)
	c.AddEdge(0, 6, 1)
	c.SetCoord(2, Coord{X: 9, Y: 9})
	c.RemoveNode(0)
	if !g.HasNode(0) || c.NumNodes() != g.NumNodes()-1 {
		t.Fatal("Clone must not share state")
	}
	if got := ViewOf(c).CanonicalKey(); got == key {
		t.Fatal("the mutated clone still encodes as the original")
	}
	g.view.Store(nil) // re-derive from the maps the clone could have shared
	if got := ViewOf(g).CanonicalKey(); got != key {
		t.Fatalf("original encodes as %q after its clone changed, was %q", got, key)
	}
}

func TestZigZagOrder(t *testing.T) {
	g := Mesh2D(3, 3)
	got := ZigZagOrder(g)
	want := []NodeID{0, 1, 2, 5, 4, 3, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ZigZagOrder = %v, want %v", got, want)
		}
	}
}

func TestNearMesh(t *testing.T) {
	for n := 1; n <= 30; n++ {
		g := NearMesh(n)
		if g.NumNodes() != n {
			t.Fatalf("NearMesh(%d) has %d nodes", n, g.NumNodes())
		}
		if !g.Connected() {
			t.Fatalf("NearMesh(%d) not connected", n)
		}
		for i := 0; i < n; i++ {
			if !g.HasNode(NodeID(i)) {
				t.Fatalf("NearMesh(%d) missing node %d", n, i)
			}
		}
	}
	// Perfect squares are plain meshes.
	if Signature(NearMesh(9), 0) != Signature(Mesh2D(3, 3), 0) {
		t.Fatal("NearMesh(9) must be the 3x3 mesh")
	}
	if NearMesh(0).NumNodes() != 0 {
		t.Fatal("NearMesh(0) must be empty")
	}
}

func TestManhattan(t *testing.T) {
	if d := Manhattan(Coord{0, 0}, Coord{3, 4}); d != 7 {
		t.Fatalf("Manhattan = %d, want 7", d)
	}
	if d := Manhattan(Coord{5, 2}, Coord{1, 2}); d != 4 {
		t.Fatalf("Manhattan = %d, want 4", d)
	}
}

func TestMeshBounds(t *testing.T) {
	g := Mesh2D(2, 3)
	min, max, ok := MeshBounds(g)
	if !ok || min != (Coord{0, 0}) || max != (Coord{2, 1}) {
		t.Fatalf("MeshBounds = %v %v %v", min, max, ok)
	}
	if _, _, ok := MeshBounds(New()); ok {
		t.Fatal("empty graph has no bounds")
	}
}

func TestSignatureIsomorphismInvariance(t *testing.T) {
	a := Mesh2D(2, 3)
	// Same topology with permuted labels.
	b := New()
	perm := map[NodeID]NodeID{0: 10, 1: 20, 2: 5, 3: 7, 4: 3, 5: 99}
	for _, e := range a.Edges() {
		b.AddEdge(perm[e.A], perm[e.B], e.Cost)
	}
	if Signature(a, 0) != Signature(b, 0) {
		t.Fatal("isomorphic graphs must share a signature")
	}
	c := Mesh2D(3, 2) // isomorphic to 2x3
	if Signature(a, 0) != Signature(c, 0) {
		t.Fatal("2x3 and 3x2 meshes are isomorphic")
	}
}

func TestSignatureDistinguishesShapes(t *testing.T) {
	chain := Chain(4)
	ring := Ring(4)
	square := Mesh2D(2, 2)
	if Signature(chain, 0) == Signature(ring, 0) {
		t.Fatal("chain vs ring must differ")
	}
	if Signature(ring, 0) != Signature(square, 0) {
		t.Fatal("4-ring and 2x2 mesh are the same graph")
	}
	star := New()
	star.AddEdge(0, 1, 1)
	star.AddEdge(0, 2, 1)
	star.AddEdge(0, 3, 1)
	if Signature(chain, 0) == Signature(star, 0) {
		t.Fatal("4-chain vs 4-star must differ")
	}
}

func TestSignatureKindSensitivity(t *testing.T) {
	a := New()
	a.AddNode(0, "core")
	a.AddNode(1, "core")
	a.AddEdge(0, 1, 1)
	b := New()
	b.AddNode(0, "core")
	b.AddNode(1, "memif")
	b.AddEdge(0, 1, 1)
	if Signature(a, 0) == Signature(b, 0) {
		t.Fatal("node kinds must affect the signature")
	}
}

// Property: relabeling nodes by a random permutation never changes the
// signature.
func TestSignatureRelabelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i), KindCore)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(NodeID(i), NodeID(j), 1)
				}
			}
		}
		perm := rng.Perm(n)
		h := New()
		for i := 0; i < n; i++ {
			h.AddNode(NodeID(perm[i]), KindCore)
		}
		for _, e := range g.Edges() {
			h.AddEdge(NodeID(perm[int(e.A)]), NodeID(perm[int(e.B)]), e.Cost)
		}
		return Signature(g, 0) == Signature(h, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedSubgraphsSizeTwoEqualsEdges(t *testing.T) {
	g := Mesh2D(3, 3)
	sets, complete := ConnectedSubgraphs(g, g.Nodes(), 2, -1)
	if !complete {
		t.Fatal("enumeration must complete")
	}
	if len(sets) != g.NumEdges() {
		t.Fatalf("size-2 connected subgraphs = %d, want %d edges", len(sets), g.NumEdges())
	}
}

func TestConnectedSubgraphsOnChain(t *testing.T) {
	g := Chain(6)
	// Connected induced subgraphs of size k on a path are exactly windows.
	for k := 1; k <= 6; k++ {
		sets, complete := ConnectedSubgraphs(g, g.Nodes(), k, -1)
		if !complete || len(sets) != 6-k+1 {
			t.Fatalf("k=%d: got %d sets (complete=%v), want %d", k, len(sets), complete, 6-k+1)
		}
	}
}

func TestConnectedSubgraphsAreConnectedAndUnique(t *testing.T) {
	g := Mesh2D(3, 3)
	sets, complete := ConnectedSubgraphs(g, g.Nodes(), 4, -1)
	if !complete {
		t.Fatal("must complete")
	}
	seen := map[string]bool{}
	for _, s := range sets {
		if len(s) != 4 {
			t.Fatalf("set size = %d, want 4", len(s))
		}
		if !g.SubsetConnected(s) {
			t.Fatalf("set %v not connected", s)
		}
		key := setKey(s)
		if seen[key] {
			t.Fatalf("duplicate set %v", s)
		}
		seen[key] = true
	}
	if len(sets) == 0 {
		t.Fatal("expected some sets")
	}
}

func TestConnectedSubgraphsRespectsAllowed(t *testing.T) {
	g := Mesh2D(3, 3)
	allowed := []NodeID{0, 1, 2} // top row only
	sets, complete := ConnectedSubgraphs(g, allowed, 2, -1)
	if !complete || len(sets) != 2 {
		t.Fatalf("got %d sets, want 2 (edges within top row)", len(sets))
	}
	for _, s := range sets {
		for _, id := range s {
			if id > 2 {
				t.Fatalf("set %v contains disallowed node", s)
			}
		}
	}
}

func TestConnectedSubgraphsLimit(t *testing.T) {
	g := Mesh2D(4, 4)
	sets, complete := ConnectedSubgraphs(g, g.Nodes(), 3, 5)
	if complete {
		t.Fatal("limited enumeration must report incomplete")
	}
	if len(sets) != 5 {
		t.Fatalf("got %d sets, want 5", len(sets))
	}
}

func TestGrowRegionsProducesValidRegions(t *testing.T) {
	g := Mesh2D(5, 5)
	allowed := g.Nodes()
	regions := GrowRegions(g, allowed, 9)
	if len(regions) == 0 {
		t.Fatal("expected regions")
	}
	seen := map[string]bool{}
	for _, r := range regions {
		if len(r) != 9 {
			t.Fatalf("region size = %d, want 9", len(r))
		}
		if !g.SubsetConnected(r) {
			t.Fatalf("region %v not connected", r)
		}
		key := setKey(r)
		if seen[key] {
			t.Fatalf("duplicate region %v", r)
		}
		seen[key] = true
	}
}

func TestGrowRegionsInsufficientNodes(t *testing.T) {
	g := Mesh2D(2, 2)
	if r := GrowRegions(g, g.Nodes(), 9); r != nil {
		t.Fatalf("expected nil for oversized request, got %d regions", len(r))
	}
}

func TestGrowRegionsDeterministic(t *testing.T) {
	g := Mesh2D(4, 4)
	a := GrowRegions(g, g.Nodes(), 6)
	b := GrowRegions(g, g.Nodes(), 6)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic region content")
			}
		}
	}
}

// Property: every enumerated connected subgraph really is connected, for
// random subsets of allowed nodes.
func TestConnectedSubgraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Mesh2D(3, 4)
		var allowed []NodeID
		for _, id := range g.Nodes() {
			if rng.Intn(4) != 0 {
				allowed = append(allowed, id)
			}
		}
		k := 1 + rng.Intn(4)
		sets, _ := ConnectedSubgraphs(g, allowed, k, 200)
		for _, s := range sets {
			if len(s) != k || !g.SubsetConnected(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
