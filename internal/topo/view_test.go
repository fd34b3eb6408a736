package topo

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The functions below are the map-walking code the dense view replaced,
// kept as the from-scratch reference of FuzzGraphView.

func refNodes(g *Graph) []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func refEdges(g *Graph) []Edge {
	var edges []Edge
	for a, nbs := range g.adj {
		for b, cost := range nbs {
			if a < b {
				edges = append(edges, Edge{A: a, B: b, Cost: cost})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges
}

func refNeighbors(g *Graph, id NodeID) []NodeID {
	nbs := make([]NodeID, 0, len(g.adj[id]))
	for nb := range g.adj[id] {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	return nbs
}

func refCanonicalKey(g *Graph) string {
	var sb strings.Builder
	for _, id := range refNodes(g) {
		fmt.Fprintf(&sb, "%d:%s", id, g.KindOf(id))
		if c, ok := g.CoordOf(id); ok {
			fmt.Fprintf(&sb, "@%d,%d", c.X, c.Y)
		}
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	for _, e := range refEdges(g) {
		fmt.Fprintf(&sb, "%d-%d:%g;", e.A, e.B, e.Cost)
	}
	return sb.String()
}

func refWriteU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

func refSignature(g *Graph, iterations int) string {
	if iterations <= 0 {
		iterations = 3
	}
	ids := refNodes(g)
	labels := make(map[NodeID]uint64, len(ids))
	for _, id := range ids {
		labels[id] = hash64(fmt.Sprintf("k=%s;d=%d", g.KindOf(id), g.Degree(id)))
	}
	for it := 0; it < iterations; it++ {
		next := make(map[NodeID]uint64, len(ids))
		for _, id := range ids {
			nbs := refNeighbors(g, id)
			nbLabels := make([]uint64, len(nbs))
			for i, nb := range nbs {
				nbLabels[i] = labels[nb]
			}
			sort.Slice(nbLabels, func(i, j int) bool { return nbLabels[i] < nbLabels[j] })
			h := fnv.New64a()
			refWriteU64(h, labels[id])
			for _, l := range nbLabels {
				refWriteU64(h, l)
			}
			next[id] = h.Sum64()
		}
		labels = next
	}
	final := make([]uint64, 0, len(ids))
	for _, id := range ids {
		final = append(final, labels[id])
	}
	sort.Slice(final, func(i, j int) bool { return final[i] < final[j] })
	h := fnv.New64a()
	refWriteU64(h, uint64(g.NumNodes()))
	refWriteU64(h, uint64(g.NumEdges()))
	for _, l := range final {
		refWriteU64(h, l)
	}
	return fmt.Sprintf("wl:%d:%d:%016x", g.NumNodes(), g.NumEdges(), h.Sum64())
}

// checkView holds everything read through the cached view to the
// from-scratch reference.
func checkView(t *testing.T, g *Graph, step int) {
	t.Helper()
	v := ViewOf(g)
	ids := refNodes(g)
	if !slices.Equal(v.IDs, ids) || !slices.Equal(g.Nodes(), ids) {
		t.Fatalf("step %d: IDs %v, Nodes %v, reference %v", step, v.IDs, g.Nodes(), ids)
	}
	edges := refEdges(g)
	if !slices.Equal(v.Edges, edges) || !slices.Equal(g.Edges(), edges) {
		t.Fatalf("step %d: Edges %v, reference %v", step, v.Edges, edges)
	}
	n := len(ids)
	for i, a := range ids {
		if p, ok := v.Pos(a); !ok || p != i {
			t.Fatalf("step %d: Pos(%d) = %d %v, want %d", step, a, p, ok, i)
		}
		if v.Kinds[i] != g.KindOf(a) || v.Deg[i] != g.Degree(a) {
			t.Fatalf("step %d: node %d kind %q degree %d, want %q %d", step, a, v.Kinds[i], v.Deg[i], g.KindOf(a), g.Degree(a))
		}
		if c, ok := g.CoordOf(a); ok != v.hasCoord[i] || (ok && c != v.coords[i]) {
			t.Fatalf("step %d: node %d coord %v %v, want %v %v", step, a, v.coords[i], v.hasCoord[i], c, ok)
		}
		if got, want := g.Neighbors(a), refNeighbors(g, a); !slices.Equal(got, want) {
			t.Fatalf("step %d: Neighbors(%d) = %v, want %v", step, a, got, want)
		}
		for j, b := range ids {
			if want, _ := g.EdgeCost(a, b); v.Cost[i*n+j] != want {
				t.Fatalf("step %d: Cost[%d,%d] = %v, EdgeCost %v", step, a, b, v.Cost[i*n+j], want)
			}
		}
	}
	if got, want := v.CanonicalKey(), refCanonicalKey(g); got != want {
		t.Fatalf("step %d: CanonicalKey %q, reference %q", step, got, want)
	}
	for _, it := range []int{0, 1, 3, 5} {
		if got, want := Signature(g, it), refSignature(g, it); got != want {
			t.Fatalf("step %d: Signature(%d) %q, reference %q", step, it, got, want)
		}
	}
}

// FuzzGraphView drives a graph through a byte-coded sequence of mutations
// interleaved with reads: after every operation the cached view — IDs,
// edges, neighbours, the cost matrix, the canonical key and the WL
// signature — must equal a from-scratch recompute by the map-walking code
// it replaced. A mutator that forgot to drop the view fails here.
func FuzzGraphView(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 1, 1, 1, 2, 3, 3, 1, 4, 5, 2, 1, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 1, 2, 4, 1, 2, 3, 5, 2, 1, 1, 3, 0, 6})
	f.Add([]byte{0, 7, 2, 3, 7, 1, 2, 1, 7, 8, 2, 2, 7, 0, 7, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 1, 1, 2, 2, 1, 1, 2, 3}) // an edge between existing nodes, then re-costed
	f.Add([]byte("\x01\x00\x05\x03\x01\x05\x09\x04\x03\x05\x02\x02\x02\x05\x00\x00"))
	kinds := []string{KindCore, "memif", ""}
	costs := []float64{0, 1, 0.5, 1e-7, 1e21, 3, math.Inf(1), -2}
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := New()
		arg := func(i int) int {
			if i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		for i, step := 0, 0; i < len(ops) && step < 64; i, step = i+4, step+1 {
			a, b := NodeID(arg(i+1)%10), NodeID(arg(i+2)%10)
			switch arg(i) % 5 {
			case 0:
				g.AddNode(a, kinds[arg(i+2)%len(kinds)])
			case 1:
				g.AddEdge(a, b, costs[arg(i+3)%len(costs)])
			case 2:
				g.RemoveNode(a)
			case 3:
				g.SetCoord(a, Coord{X: arg(i+2)%4 - 1, Y: arg(i+3)%4 - 1})
			default:
				// A read between two mutations: the cache is warm when
				// the next one lands.
				_ = Signature(g, 0)
			}
			checkView(t, g, step)
			c := g.Clone()
			checkView(t, c, step)
			if ViewOf(c).CanonicalKey() != ViewOf(g).CanonicalKey() {
				t.Fatalf("step %d: clone encodes as %q, original %q", step, ViewOf(c).CanonicalKey(), ViewOf(g).CanonicalKey())
			}
		}
	})
}

// TestConnectedSubgraphsCompleteAtLimit pins the limit's edge: a 1×n
// strip holds exactly n-k+1 connected k-sets, and the enumeration is
// incomplete only when a set beyond the limit exists.
func TestConnectedSubgraphsCompleteAtLimit(t *testing.T) {
	const n, k = 9, 4
	g := Chain(n)
	count := n - k + 1
	for _, tc := range []struct {
		limit, sets int
		complete    bool
	}{
		{count - 1, count - 1, false},
		{count, count, true},
		{count + 1, count, true},
	} {
		sets, complete := ConnectedSubgraphs(g, g.Nodes(), k, tc.limit)
		if len(sets) != tc.sets || complete != tc.complete {
			t.Errorf("limit %d: %d sets complete=%v, want %d sets complete=%v", tc.limit, len(sets), complete, tc.sets, tc.complete)
		}
	}
}

// TestViewAt: a coordinate finds its node by cell on a full grid (off
// the origin too) and by scan on anything else, where the highest ID
// wins a shared coordinate and a hole or an outside cell finds nothing.
func TestViewAt(t *testing.T) {
	grid := New()
	for i := 0; i < 6; i++ {
		grid.AddNode(NodeID(10+i), KindCore)
		grid.SetCoord(NodeID(10+i), Coord{X: i%3 - 1, Y: i/3 + 4})
	}
	holed := Mesh2D(3, 3)
	holed.RemoveNode(4)
	shared := Mesh2D(1, 3)
	shared.AddNode(7, KindCore)
	shared.SetCoord(7, Coord{X: 1, Y: 0})
	for _, tc := range []struct {
		name string
		g    *Graph
		at   Coord
		id   NodeID
		ok   bool
	}{
		{"grid", grid, Coord{X: -1, Y: 4}, 10, true},
		{"grid", grid, Coord{X: 1, Y: 5}, 15, true},
		{"grid", grid, Coord{X: 2, Y: 4}, 0, false},
		{"grid", grid, Coord{X: 0, Y: 3}, 0, false},
		{"holed", holed, Coord{X: 2, Y: 1}, 5, true},
		{"holed", holed, Coord{X: 1, Y: 1}, 0, false},
		{"shared", shared, Coord{X: 1, Y: 0}, 7, true},
		{"shared", shared, Coord{X: 2, Y: 0}, 2, true},
	} {
		v := ViewOf(tc.g)
		p, ok := v.At(tc.at)
		if ok != tc.ok || (ok && v.IDs[p] != tc.id) {
			t.Errorf("%s: At(%v) = position %d %v, want node %d %v", tc.name, tc.at, p, ok, tc.id, tc.ok)
		}
	}
}
