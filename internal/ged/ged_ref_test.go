package ged

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// The solvers below are the map-walking implementations the dense-view
// ones replaced, kept verbatim (names prefixed) as the reference of
// TestDenseGEDEqualsReference.

// refGraph draws a graph of n nodes with sparse non-contiguous IDs, mixed
// kinds and weighted edges.
func refGraph(rng *rand.Rand, n int) *topo.Graph {
	g := topo.New()
	ids := rng.Perm(3 * n)[:n]
	kinds := []string{topo.KindCore, topo.KindCore, "memif", "sfu"}
	for _, id := range ids {
		g.AddNode(topo.NodeID(id), kinds[rng.Intn(len(kinds))])
	}
	weights := []float64{1, 1, 0.5, 2, 3.25}
	p := 0.2 + 0.5*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(topo.NodeID(ids[i]), topo.NodeID(ids[j]), weights[rng.Intn(len(weights))])
			}
		}
	}
	return g
}

// TestDenseGEDEqualsReference holds the dense-view solvers to the
// map-based ones they replaced: on random pairs of graphs of at most
// eight nodes, under the structural options and under each callback
// option alone and together, Exact, Approx, Refine, PathCost and
// LowerBounder.Bound must return the same cost bit for bit and the same
// Mapping.
func TestDenseGEDEqualsReference(t *testing.T) {
	subst := func(a, b string) float64 {
		if a == b {
			return 0
		}
		if a == "memif" || b == "memif" {
			return 2.5
		}
		return 0.75
	}
	del := func(w float64) float64 { return 1.5 * w }
	ins := func(w float64) float64 { return 0.5 + w }
	pen := func(a, b topo.NodeID) float64 { return 0.125 * float64((int(a)+2*int(b))%4) }
	options := []struct {
		name string
		opt  Options
	}{
		{"structural", Options{}},
		{"ins-del-2", Options{NodeInsDel: 2}},
		{"node-subst", Options{NodeSubst: subst}},
		{"edge-del", Options{EdgeDel: del}},
		{"edge-ins", Options{EdgeIns: ins}},
		{"penalty", Options{ExtraNodePenalty: pen}},
		{"all", Options{NodeSubst: subst, NodeInsDel: 1.5, EdgeDel: del, EdgeIns: ins, ExtraNodePenalty: pen}},
	}
	rng := rand.New(rand.NewSource(17))
	for pair := 0; pair < 560; pair++ {
		g1 := refGraph(rng, rng.Intn(9))
		g2 := refGraph(rng, rng.Intn(9))
		o := options[pair%len(options)]

		wantCost, wantMap := refExact(g1, g2, o.opt)
		gotCost, gotMap := Exact(g1, g2, o.opt)
		if gotCost != wantCost || !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("pair %d (%s): Exact = %v %v, reference %v %v", pair, o.name, gotCost, gotMap, wantCost, wantMap)
		}
		wantCost, wantMap = refApprox(g1, g2, o.opt)
		gotCost, gotMap = Approx(g1, g2, o.opt)
		if gotCost != wantCost || !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("pair %d (%s): Approx = %v %v, reference %v %v", pair, o.name, gotCost, gotMap, wantCost, wantMap)
		}

		// A loose mapping for PathCost and Refine: g1's nodes onto a
		// shuffle of g2's, a few left unmapped.
		loose := Mapping{}
		n2 := g2.Nodes()
		rng.Shuffle(len(n2), func(i, j int) { n2[i], n2[j] = n2[j], n2[i] })
		for i, u := range g1.Nodes() {
			if i < len(n2) && rng.Intn(5) != 0 {
				loose[u] = n2[i]
			}
		}
		if got, want := PathCost(g1, g2, loose, o.opt), refPathCost(g1, g2, loose, o.opt); got != want {
			t.Fatalf("pair %d (%s): PathCost = %v, reference %v (mapping %v)", pair, o.name, got, want, loose)
		}
		wantCost, wantMap = refRefine(g1, g2, loose, o.opt, 3)
		gotCost, gotMap = Refine(g1, g2, loose, o.opt, 3)
		if gotCost != wantCost || !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("pair %d (%s): Refine = %v %v, reference %v %v", pair, o.name, gotCost, gotMap, wantCost, wantMap)
		}

		if o.opt.Structural() {
			if got, want := NewLowerBounder(g1, o.opt).Bound(g2), newRefLowerBounder(g1, o.opt).Bound(g2); got != want {
				t.Fatalf("pair %d (%s): Bound = %v, reference %v", pair, o.name, got, want)
			}
		}
	}
}

// PathCost evaluates the total edit cost of a specific mapping — the cost of
// the concrete edit path it induces. It is the objective both solvers
// minimize and is exported so callers can score externally-produced
// mappings (e.g. a zig-zag allocation).
func refPathCost(g1, g2 *topo.Graph, m Mapping, opt Options) float64 {
	return refPathCostView(g1, g2, refGraphView{g1.Nodes(), g1.Edges()}, refGraphView{g2.Nodes(), g2.Edges()}, m, opt.norm())
}

// graphView caches a graph's sorted node and edge slices so repeated
// objective evaluations skip Graph.Nodes/Edges, which re-sort per call.
type refGraphView struct {
	nodes []topo.NodeID
	edges []topo.Edge
}

func refViewOf(g *topo.Graph) refGraphView { return refGraphView{g.Nodes(), g.Edges()} }

// pathCost is PathCost with the node/edge slices hoisted and the options
// already normalized: local-search refinement evaluates the objective
// O(k²) times per pass over fixed graphs.
func refPathCostView(g1, g2 *topo.Graph, v1, v2 refGraphView, m Mapping, opt Options) float64 {
	var cost float64
	used := make(map[topo.NodeID]bool, len(m))

	n1 := v1.nodes
	for _, u := range n1 {
		v, ok := m[u]
		if !ok {
			cost += opt.NodeInsDel // node deletion
			continue
		}
		used[v] = true
		cost += opt.NodeSubst(g1.KindOf(u), g2.KindOf(v))
		if opt.ExtraNodePenalty != nil {
			cost += opt.ExtraNodePenalty(u, v)
		}
	}
	for _, v := range v2.nodes {
		if !used[v] {
			cost += opt.NodeInsDel // node insertion
		}
	}
	// Edge deletions/substitutions: iterate g1 edges.
	for _, e := range v1.edges {
		va, aok := m[e.A]
		vb, bok := m[e.B]
		if aok && bok && g2.HasEdge(va, vb) {
			continue // matched edge, substitution cost 0
		}
		cost += opt.EdgeDel(e.Cost)
	}
	// Edge insertions: g2 edges with no matched preimage.
	inv := make(map[topo.NodeID]topo.NodeID, len(m))
	for u, v := range m {
		inv[v] = u
	}
	for _, e := range v2.edges {
		ua, aok := inv[e.A]
		ub, bok := inv[e.B]
		if aok && bok && g1.HasEdge(ua, ub) {
			continue
		}
		cost += opt.EdgeIns(e.Cost)
	}
	return cost
}

// Exact computes the exact edit distance via depth-first branch and bound,
// seeded with the bipartite approximation as the initial upper bound. It is
// intended for graphs of at most ExactLimit-ish nodes; beyond that the
// search space explodes.
func refExact(g1, g2 *topo.Graph, opt Options) (float64, Mapping) {
	opt = opt.norm()
	n1 := g1.Nodes()
	n2 := g2.Nodes()

	bestCost, bestMap := refApprox(g1, g2, opt)

	// assigned[i] = index into n2, or -1 for deletion.
	assigned := make([]int, len(n1))
	usedV := make([]bool, len(n2))

	// stepCost computes the incremental cost of assigning n1[i] -> choice
	// (index in n2, or -1), given assignments 0..i-1.
	stepCost := func(i, choice int) float64 {
		var c float64
		u := n1[i]
		if choice < 0 {
			c += opt.NodeInsDel
		} else {
			v := n2[choice]
			c += opt.NodeSubst(g1.KindOf(u), g2.KindOf(v))
			if opt.ExtraNodePenalty != nil {
				c += opt.ExtraNodePenalty(u, v)
			}
		}
		for j := 0; j < i; j++ {
			uj := n1[j]
			w1, has1 := g1.EdgeCost(u, uj)
			var has2 bool
			var w2 float64
			if choice >= 0 && assigned[j] >= 0 {
				w2, has2 = g2.EdgeCost(n2[choice], n2[assigned[j]])
			}
			switch {
			case has1 && !has2:
				c += opt.EdgeDel(w1)
			case !has1 && has2:
				c += opt.EdgeIns(w2)
			}
		}
		return c
	}

	// completionCost: all n1 nodes assigned; remaining unused n2 nodes are
	// inserted along with their edges to used/inserted nodes.
	completionCost := func() float64 {
		var c float64
		inserted := make([]topo.NodeID, 0)
		for j, used := range usedV {
			if !used {
				c += opt.NodeInsDel
				inserted = append(inserted, n2[j])
			}
		}
		isInserted := make(map[topo.NodeID]bool, len(inserted))
		for _, v := range inserted {
			isInserted[v] = true
		}
		for _, v := range inserted {
			for _, nb := range g2.Neighbors(v) {
				if isInserted[nb] {
					if v < nb { // count inserted-inserted edges once
						w, _ := g2.EdgeCost(v, nb)
						c += opt.EdgeIns(w)
					}
					continue
				}
				w, _ := g2.EdgeCost(v, nb)
				c += opt.EdgeIns(w)
			}
		}
		return c
	}

	// Admissible remaining-cost lower bound: node count imbalance only.
	lowerBound := func(i int) float64 {
		rem1 := len(n1) - i
		rem2 := 0
		for _, used := range usedV {
			if !used {
				rem2++
			}
		}
		diff := rem1 - rem2
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) * opt.NodeInsDel
	}

	var dfs func(i int, acc float64)
	dfs = func(i int, acc float64) {
		if acc+lowerBound(i) >= bestCost {
			return
		}
		if i == len(n1) {
			total := acc + completionCost()
			if total < bestCost {
				bestCost = total
				m := make(Mapping, len(n1))
				for k, ch := range assigned {
					if ch >= 0 {
						m[n1[k]] = n2[ch]
					}
				}
				bestMap = m
			}
			return
		}
		// Order candidate choices by incremental cost so good solutions are
		// found early and pruning bites.
		type cand struct {
			choice int
			cost   float64
		}
		cands := make([]cand, 0, len(n2)+1)
		for j := range n2 {
			if !usedV[j] {
				cands = append(cands, cand{j, stepCost(i, j)})
			}
		}
		cands = append(cands, cand{-1, stepCost(i, -1)})
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })
		for _, cd := range cands {
			assigned[i] = cd.choice
			if cd.choice >= 0 {
				usedV[cd.choice] = true
			}
			dfs(i+1, acc+cd.cost)
			if cd.choice >= 0 {
				usedV[cd.choice] = false
			}
		}
		assigned[i] = -1
	}
	for i := range assigned {
		assigned[i] = -1
	}
	dfs(0, 0)
	return bestCost, bestMap
}

// Refine improves a mapping by deterministic local search: it repeatedly
// applies the best image-swap between two mapped source nodes, or the best
// relocation of one source node to an unused target node, until no move
// lowers PathCost or maxPasses passes complete. It returns the refined
// mapping and its cost.
//
// The exact solver does not need this; it tightens the bipartite
// approximation on graphs beyond ExactLimit, where assignment quality
// directly decides virtual-to-physical core placement.
func refRefine(g1, g2 *topo.Graph, m Mapping, opt Options, maxPasses int) (float64, Mapping) {
	opt = opt.norm()
	cur := make(Mapping, len(m))
	for k, v := range m {
		cur[k] = v
	}
	v1, v2 := refViewOf(g1), refViewOf(g2)
	cost := refPathCostView(g1, g2, v1, v2, cur, opt)
	n1 := v1.nodes
	if maxPasses <= 0 {
		maxPasses = 4
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		// Unused target nodes (recomputed per pass).
		used := make(map[topo.NodeID]bool, len(cur))
		for _, v := range cur {
			used[v] = true
		}
		var freeT []topo.NodeID
		for _, v := range v2.nodes {
			if !used[v] {
				freeT = append(freeT, v)
			}
		}
		for i := 0; i < len(n1); i++ {
			a := n1[i]
			va, hasA := cur[a]
			if !hasA {
				continue
			}
			// Swap with a later mapped node.
			for j := i + 1; j < len(n1); j++ {
				b := n1[j]
				vb, hasB := cur[b]
				if !hasB {
					continue
				}
				cur[a], cur[b] = vb, va
				if c := refPathCostView(g1, g2, v1, v2, cur, opt); c < cost {
					cost = c
					va = vb
					improved = true
				} else {
					cur[a], cur[b] = va, vb
				}
			}
			// Relocate to an unused target.
			for k, vt := range freeT {
				cur[a] = vt
				if c := refPathCostView(g1, g2, v1, v2, cur, opt); c < cost {
					cost = c
					freeT[k] = va
					va = vt
					improved = true
				} else {
					cur[a] = va
				}
			}
		}
		if !improved {
			break
		}
	}
	return cost, cur
}

type refLowerBounder struct {
	nodeInsDel float64
	n1         int
	deg1       []int   // descending
	minW1      float64 // +Inf when g1 has no edges
}

// NewLowerBounder prepares bounds against g1. opt must be structural.
func newRefLowerBounder(g1 *topo.Graph, opt Options) *refLowerBounder {
	if !opt.Structural() {
		panic("ged: LowerBounder needs structural options")
	}
	opt = opt.norm()
	lb := &refLowerBounder{
		nodeInsDel: opt.NodeInsDel,
		n1:         g1.NumNodes(),
		minW1:      math.Inf(1),
	}
	for _, id := range g1.Nodes() {
		lb.deg1 = append(lb.deg1, g1.Degree(id))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lb.deg1)))
	for _, e := range g1.Edges() {
		if e.Cost < lb.minW1 {
			lb.minW1 = e.Cost
		}
	}
	return lb
}

// Bound returns the admissible lower bound on the exact edit distance
// from the bounder's g1 to g2.
func (lb *refLowerBounder) Bound(g2 *topo.Graph) float64 {
	n2 := g2.NumNodes()
	deg2 := make([]int, 0, n2)
	minW := lb.minW1
	for _, id := range g2.Nodes() {
		deg2 = append(deg2, g2.Degree(id))
	}
	for _, e := range g2.Edges() {
		if e.Cost < minW {
			minW = e.Cost
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg2)))

	diff := lb.n1 - n2
	if diff < 0 {
		diff = -diff
	}
	bound := float64(diff) * lb.nodeInsDel

	degSum := 0
	for i := 0; i < len(lb.deg1) || i < len(deg2); i++ {
		var d1, d2 int
		if i < len(lb.deg1) {
			d1 = lb.deg1[i]
		}
		if i < len(deg2) {
			d2 = deg2[i]
		}
		if d1 > d2 {
			degSum += d1 - d2
		} else {
			degSum += d2 - d1
		}
	}
	if degSum > 0 && !math.IsInf(minW, 1) {
		bound += 0.5 * minW * float64(degSum)
	}
	return bound
}

// Approx computes an upper bound on the edit distance using the bipartite
// assignment method of Riesen & Bunke: a (n1+n2) x (n1+n2) cost matrix of
// node operations enriched with local edge-structure estimates is solved
// optimally with the Hungarian algorithm, and the induced edit path is then
// scored exactly with PathCost.
func refApprox(g1, g2 *topo.Graph, opt Options) (float64, Mapping) {
	opt = opt.norm()
	n1 := g1.Nodes()
	n2 := g2.Nodes()
	n := len(n1) + len(n2)
	if n == 0 {
		return 0, Mapping{}
	}

	const inf = math.MaxFloat64 / 4
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	avgEdge := func(g *topo.Graph, id topo.NodeID, f func(float64) float64) float64 {
		var s float64
		for _, nb := range g.Neighbors(id) {
			w, _ := g.EdgeCost(id, nb)
			s += f(w)
		}
		return s / 2 // each unmatched edge is counted at both endpoints
	}
	for i, u := range n1 {
		for j, v := range n2 {
			c := opt.NodeSubst(g1.KindOf(u), g2.KindOf(v))
			if opt.ExtraNodePenalty != nil {
				c += opt.ExtraNodePenalty(u, v)
			}
			// Local structure estimate: degree imbalance costs edge edits.
			d1, d2 := g1.Degree(u), g2.Degree(v)
			if d1 > d2 {
				c += float64(d1-d2) * 0.5
			} else {
				c += float64(d2-d1) * 0.5
			}
			cost[i][j] = c
		}
		for j := range n1 { // deletion block
			if i == j {
				cost[i][len(n2)+j] = opt.NodeInsDel + avgEdge(g1, u, opt.EdgeDel)
			} else {
				cost[i][len(n2)+j] = inf
			}
		}
	}
	for i := range n2 { // insertion block
		for j, v := range n2 {
			if i == j {
				cost[len(n1)+i][j] = opt.NodeInsDel + avgEdge(g2, v, opt.EdgeIns)
			} else {
				cost[len(n1)+i][j] = inf
			}
		}
		// epsilon-to-epsilon corner: free
		for j := range n1 {
			cost[len(n1)+i][len(n2)+j] = 0
		}
	}

	assign := hungarian(cost)
	m := make(Mapping)
	for i, u := range n1 {
		if j := assign[i]; j < len(n2) {
			m[u] = n2[j]
		}
	}
	return refPathCost(g1, g2, m, opt), m
}
