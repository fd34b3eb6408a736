package core

import (
	"strings"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

func TestMapTopologyExactMatchOnEmptyMesh(t *testing.T) {
	phys := topo.Mesh2D(5, 5)
	req := topo.Mesh2D(3, 3)
	res, err := MapTopology(phys, phys.Nodes(), req, StrategySimilar, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("empty 5x5 must host an exact 3x3 (cost %v)", res.Cost)
	}
	if len(res.Nodes) != 9 || !res.Connected {
		t.Fatalf("res = %+v", res)
	}
	// The mapping must be a valid isomorphism: every requested edge exists
	// between the mapped physical nodes.
	for _, e := range req.Edges() {
		if !phys.HasEdge(res.Nodes[e.A], res.Nodes[e.B]) {
			t.Fatalf("virtual edge %d-%d not preserved (%v-%v)", e.A, e.B, res.Nodes[e.A], res.Nodes[e.B])
		}
	}
}

// fragmentedFree returns the free nodes of a rows x cols mesh with a
// deterministic scatter of allocated cores (every stride-th node taken),
// the shape a busy serving chip presents to the mapper.
func fragmentedFree(rows, cols, stride int) []topo.NodeID {
	var free []topo.NodeID
	for id := 0; id < rows*cols; id++ {
		if id%stride != 0 {
			free = append(free, topo.NodeID(id))
		}
	}
	return free
}

// TestMapTopologyDCRAMisses maps the placement-cache miss shapes of a
// 16x16 mesh (the paper's DCRA-scale chip): on the empty mesh an exact
// rectangle or chain exists and must be found at cost 0; on the
// fragmented free sets no exact fit is required, but a mapping must be.
func TestMapTopologyDCRAMisses(t *testing.T) {
	phys := topo.Mesh2D(16, 16)
	cases := []struct {
		name  string
		free  []topo.NodeID
		req   *topo.Graph
		exact bool
	}{
		{"empty/4x4", phys.Nodes(), topo.Mesh2D(4, 4), true},
		{"empty/3x4", phys.Nodes(), topo.Mesh2D(3, 4), true},
		{"empty/1x8", phys.Nodes(), topo.Chain(8), true},
		{"fragmented/3x4", fragmentedFree(16, 16, 5), topo.Mesh2D(3, 4), false},
		{"fragmented/4x4", fragmentedFree(16, 16, 7), topo.Mesh2D(4, 4), false},
		{"fragmented/2x3", fragmentedFree(16, 16, 3), topo.Mesh2D(2, 3), false},
	}
	for _, c := range cases {
		res, err := MapTopology(phys, c.free, c.req, StrategySimilar, ged.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Nodes) != c.req.NumNodes() {
			t.Fatalf("%s: mapped %d nodes, want %d", c.name, len(res.Nodes), c.req.NumNodes())
		}
		if c.exact && res.Cost != 0 {
			t.Errorf("%s: cost %v, want an exact fit (0)", c.name, res.Cost)
		}
	}
}

// The paper's topology lock-in example (§4.3): two 3x3 requests on a 5x5
// mesh. Exact mapping can serve only one; similar mapping serves both.
func TestTopologyLockInScenario(t *testing.T) {
	phys := topo.Mesh2D(5, 5)
	req := topo.Mesh2D(3, 3)

	first, err := MapTopology(phys, phys.Nodes(), req, StrategyExact, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[topo.NodeID]bool)
	for _, n := range first.Nodes {
		used[n] = true
	}
	var free []topo.NodeID
	for _, n := range phys.Nodes() {
		if !used[n] {
			free = append(free, n)
		}
	}
	// 16 cores remain but no 3x3 rectangle fits: exact mapping fails.
	if _, err := MapTopology(phys, free, req, StrategyExact, ged.Options{}); err == nil {
		t.Fatal("exact mapping should hit topology lock-in")
	} else if !strings.Contains(err.Error(), "lock-in") {
		t.Fatalf("err = %v, want lock-in", err)
	}
	// Similar mapping still allocates, at some positive edit distance.
	res, err := MapTopology(phys, free, req, StrategySimilar, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Fatalf("second allocation cost = %v, want > 0", res.Cost)
	}
	if !res.Connected {
		t.Fatal("similar mapping must stay connected (R-3)")
	}
	// All nodes distinct and from the free pool.
	seen := map[topo.NodeID]bool{}
	freeSet := map[topo.NodeID]bool{}
	for _, n := range free {
		freeSet[n] = true
	}
	for _, n := range res.Nodes {
		if seen[n] || !freeSet[n] {
			t.Fatalf("bad allocation %v", res.Nodes)
		}
		seen[n] = true
	}
}

func TestMapStraightforwardIDOrder(t *testing.T) {
	phys := topo.Mesh2D(3, 3)
	req := topo.Mesh2D(2, 2)
	res, err := MapTopology(phys, phys.Nodes(), req, StrategyStraightforward, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Smallest IDs first on an empty 3x3 mesh: 0,1,2,3.
	want := []topo.NodeID{0, 1, 2, 3}
	for i := range want {
		if res.Nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", res.Nodes, want)
		}
	}
	if res.Cost <= 0 {
		t.Fatalf("ID-order allocation of a 2x2 request must cost > 0, got %v", res.Cost)
	}
}

func TestSimilarBeatsStraightforwardOnFragmentedMesh(t *testing.T) {
	phys := topo.Mesh2D(5, 5)
	// Occupy the top row so zig-zag order is badly fragmented.
	occupied := map[topo.NodeID]bool{1: true, 3: true, 6: true, 8: true}
	var free []topo.NodeID
	for _, n := range phys.Nodes() {
		if !occupied[n] {
			free = append(free, n)
		}
	}
	req := topo.Mesh2D(3, 3)
	similar, err := MapTopology(phys, free, req, StrategySimilar, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	straight, err := MapTopology(phys, free, req, StrategyStraightforward, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if similar.Cost > straight.Cost {
		t.Fatalf("similar cost %v must be <= straightforward cost %v", similar.Cost, straight.Cost)
	}
}

func TestMapFragmentAcceptsDisconnected(t *testing.T) {
	phys := topo.Mesh2D(1, 5) // a chain
	// Free: two fragments {0} and {3,4}; request 3 cores.
	free := []topo.NodeID{0, 3, 4}
	req := topo.Chain(3)
	if _, err := MapTopology(phys, free, req, StrategySimilar, ged.Options{}); err == nil {
		t.Fatal("similar mapping must fail without a connected region")
	}
	res, err := MapTopology(phys, free, req, StrategyFragment, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Connected {
		t.Fatal("fragment allocation should be disconnected here")
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("Nodes = %v", res.Nodes)
	}
}

func TestMapTopologyErrors(t *testing.T) {
	phys := topo.Mesh2D(2, 2)
	if _, err := MapTopology(phys, phys.Nodes(), topo.New(), StrategySimilar, ged.Options{}); err == nil {
		t.Fatal("empty request must fail")
	}
	big := topo.Mesh2D(3, 3)
	if _, err := MapTopology(phys, phys.Nodes(), big, StrategySimilar, ged.Options{}); err == nil {
		t.Fatal("oversized request must fail")
	}
	sparse := topo.New()
	sparse.AddNode(0, topo.KindCore)
	sparse.AddNode(5, topo.KindCore) // ids not 0..n-1
	if _, err := MapTopology(phys, phys.Nodes(), sparse, StrategySimilar, ged.Options{}); err == nil {
		t.Fatal("non-dense request ids must fail")
	}
}

func TestMapTopologyLargeRequestUsesGrownRegions(t *testing.T) {
	phys := topo.Mesh2D(6, 6)
	req := topo.Mesh2D(4, 5) // 20 nodes: beyond exhaustive enumeration
	res, err := MapTopology(phys, phys.Nodes(), req, StrategySimilar, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 20 || !res.Connected {
		t.Fatalf("res = %+v", res)
	}
	if res.Cost != 0 {
		t.Fatalf("an empty 6x6 should host an exact 4x5 (cost %v)", res.Cost)
	}
}

func TestMapTopologyDeterministic(t *testing.T) {
	phys := topo.Mesh2D(5, 5)
	occupied := map[topo.NodeID]bool{0: true, 24: true, 12: true}
	var free []topo.NodeID
	for _, n := range phys.Nodes() {
		if !occupied[n] {
			free = append(free, n)
		}
	}
	req := topo.Mesh2D(3, 3)
	a, err := MapTopology(phys, free, req, StrategySimilar, ged.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := MapTopology(phys, free, req, StrategySimilar, ged.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cost != b.Cost {
			t.Fatalf("non-deterministic cost: %v vs %v", a.Cost, b.Cost)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] {
				t.Fatalf("non-deterministic nodes: %v vs %v", a.Nodes, b.Nodes)
			}
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategySimilar.String() != "similar" || StrategyExact.String() != "exact" ||
		StrategyStraightforward.String() != "straightforward" || StrategyFragment.String() != "fragment" {
		t.Fatal("strategy names wrong")
	}
}
