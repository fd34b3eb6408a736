// Package ged computes the (topology) graph edit distance used by the
// paper's similar-topology mapping strategy (§4.3, Algorithm 1, Fig 9).
//
// The edit distance between two topologies is the minimum total cost of
// node substitutions/insertions/deletions and edge insertions/deletions
// that transform one into the other. Exact computation is NP-hard, so the
// package provides both an exact branch-and-bound solver for small graphs
// (candidate regions of a virtual NPU request) and the bipartite
// approximation of Riesen & Bunke — cited by the paper — for larger ones.
//
// Cost customization mirrors Algorithm 1's NodeMatch and EdgeMatch hooks:
// heterogeneous node kinds incur a substitution penalty, and critical edges
// (e.g. links on an all-reduce path) can carry higher deletion costs.
package ged

import (
	"math"
	"slices"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Mapping assigns nodes of the first graph to nodes of the second. A node
// absent from the map was deleted; second-graph nodes not in the image were
// inserted.
type Mapping map[topo.NodeID]topo.NodeID

// Options customizes edit costs. The zero value selects the defaults used
// throughout the paper's evaluation: unit node operations, kind-mismatch
// substitution penalty, and per-edge costs taken from the edge weights.
type Options struct {
	// NodeSubst returns the cost of matching a node of kind a to a node of
	// kind b. Default: 0 when kinds match, NodeCost otherwise (Algorithm 1,
	// NodeMatch).
	NodeSubst func(a, b string) float64
	// NodeInsDel is the cost of inserting or deleting a node. Default 1.
	NodeInsDel float64
	// EdgeDel returns the cost of deleting an edge with weight w — the
	// penalty when the required topology has a link the candidate lacks
	// (Algorithm 1, EdgeMatch: "return E1.cost"). Default: w.
	EdgeDel func(w float64) float64
	// EdgeIns returns the cost of inserting an edge with weight w. Default: w.
	EdgeIns func(w float64) float64
	// ExtraNodePenalty, when non-nil, adds a per-assignment penalty for
	// mapping node a of the first graph onto node b of the second. The
	// paper uses this for heterogeneous topologies, e.g. penalizing
	// assignments whose distance to the memory interface differs.
	ExtraNodePenalty func(a, b topo.NodeID) float64
}

// Structural reports whether the options use only the default structural
// cost model — no callback costs. Admissible lower bounds (LowerBounder)
// are only valid then: a callback could price edits below the defaults.
func (o Options) Structural() bool {
	return o.NodeSubst == nil && o.EdgeDel == nil && o.EdgeIns == nil && o.ExtraNodePenalty == nil
}

// NodeCost is the default penalty for substituting nodes of differing kinds.
const NodeCost = 1.0

// ExactLimit is the largest graph size (nodes of either graph) for which
// Distance uses the exact solver before falling back to the approximation.
const ExactLimit = 10

func (o Options) norm() Options {
	if o.NodeSubst == nil {
		o.NodeSubst = func(a, b string) float64 {
			if a == b {
				return 0
			}
			return NodeCost
		}
	}
	if o.NodeInsDel == 0 {
		o.NodeInsDel = 1
	}
	if o.EdgeDel == nil {
		o.EdgeDel = func(w float64) float64 { return w }
	}
	if o.EdgeIns == nil {
		o.EdgeIns = func(w float64) float64 { return w }
	}
	return o
}

// Distance computes the edit distance from g1 to g2, exact when both graphs
// have at most ExactLimit nodes and the bipartite upper bound otherwise.
func Distance(g1, g2 *topo.Graph, opt Options) (float64, Mapping) {
	if g1.NumNodes() <= ExactLimit && g2.NumNodes() <= ExactLimit {
		return Exact(g1, g2, opt)
	}
	return Approx(g1, g2, opt)
}

// PathCost evaluates the total edit cost of a specific mapping — the cost of
// the concrete edit path it induces. It is the objective both solvers
// minimize and is exported so callers can score externally-produced
// mappings (e.g. a zig-zag allocation). Entries of m whose source is not
// in g1 or whose target is not in g2 count as unmapped.
func PathCost(g1, g2 *topo.Graph, m Mapping, opt Options) float64 {
	v1, v2 := topo.ViewOf(g1), topo.ViewOf(g2)
	img := imageOf(v1, v2, m)
	return pathCost(v1, v2, img, make([]int, len(v2.IDs)), opt.norm())
}

// imageOf turns a Mapping into its dense form: img[i] is the g2 position
// hosting g1's node at position i, or -1 when that node is deleted.
func imageOf(v1, v2 *topo.View, m Mapping) []int {
	img := make([]int, len(v1.IDs))
	for i, u := range v1.IDs {
		img[i] = -1
		if t, ok := m[u]; ok {
			if p, ok := v2.Pos(t); ok {
				img[i] = p
			}
		}
	}
	return img
}

// mappingOf is the inverse of imageOf.
func mappingOf(v1, v2 *topo.View, img []int) Mapping {
	m := make(Mapping, len(img))
	for i, p := range img {
		if p >= 0 {
			m[v1.IDs[i]] = v2.IDs[p]
		}
	}
	return m
}

// pathCost is PathCost on the dense views with the options already
// normalized: kinds, edges and costs are read by position, and inv (len
// n2) is the caller's scratch for the inverse image, so local-search
// refinement can evaluate the objective O(k²) times per pass without
// allocating. The summation order is fixed — nodes of g1, nodes of g2,
// edges of g1, edges of g2, each ascending — so equal mappings score
// bit-identically however they were produced.
func pathCost(v1, v2 *topo.View, img, inv []int, opt Options) float64 {
	var cost float64
	n1, n2 := len(v1.IDs), len(v2.IDs)
	for j := range inv {
		inv[j] = -1
	}
	for i, p := range img {
		if p < 0 {
			cost += opt.NodeInsDel // node deletion
			continue
		}
		inv[p] = i
		cost += opt.NodeSubst(v1.Kinds[i], v2.Kinds[p])
		if opt.ExtraNodePenalty != nil {
			cost += opt.ExtraNodePenalty(v1.IDs[i], v2.IDs[p])
		}
	}
	for _, i := range inv {
		if i < 0 {
			cost += opt.NodeInsDel // node insertion
		}
	}
	// Edge deletions/substitutions: iterate g1 edges.
	for i := 0; i < n1; i++ {
		for _, j := range v1.Nbrs[i] {
			if j < i {
				continue
			}
			if pa, pb := img[i], img[j]; pa >= 0 && pb >= 0 && v2.Cost[pa*n2+pb] != 0 {
				continue // matched edge, substitution cost 0
			}
			cost += opt.EdgeDel(v1.Cost[i*n1+j])
		}
	}
	// Edge insertions: g2 edges with no matched preimage.
	for i := 0; i < n2; i++ {
		for _, j := range v2.Nbrs[i] {
			if j < i {
				continue
			}
			if ua, ub := inv[i], inv[j]; ua >= 0 && ub >= 0 && v1.Cost[ua*n1+ub] != 0 {
				continue
			}
			cost += opt.EdgeIns(v2.Cost[i*n2+j])
		}
	}
	return cost
}

// Exact computes the exact edit distance via depth-first branch and bound,
// seeded with the bipartite approximation as the initial upper bound. It is
// intended for graphs of at most ExactLimit-ish nodes; beyond that the
// search space explodes.
func Exact(g1, g2 *topo.Graph, opt Options) (float64, Mapping) {
	opt = opt.norm()
	v1, v2 := topo.ViewOf(g1), topo.ViewOf(g2)
	bestCost, bestImg := approx(v1, v2, opt)
	s := exactSearch{
		v1: v1, v2: v2, opt: opt,
		n1: len(v1.IDs), n2: len(v2.IDs),
		bestCost: bestCost,
		bestImg:  bestImg,
	}
	s.assigned = make([]int, s.n1)
	for i := range s.assigned {
		s.assigned[i] = -1
	}
	s.usedV = make([]bool, s.n2)
	s.free2 = s.n2
	// One candidate list per depth: the loop over depth i's choices is
	// still running while depth i+1 builds its own.
	s.cands = make([]exactCand, (s.n1+1)*(s.n2+1))
	s.dfs(0, 0)
	return s.bestCost, mappingOf(v1, v2, s.bestImg)
}

// exactSearch is the state of one Exact call: the two views, the partial
// assignment and the scratch the depth-first search reuses at every node
// it expands.
type exactSearch struct {
	v1, v2 *topo.View
	opt    Options
	n1, n2 int

	assigned []int  // assigned[i] = position in g2, or -1 for deletion
	usedV    []bool // g2 positions taken
	free2    int    // g2 positions not taken
	cands    []exactCand

	bestCost float64
	bestImg  []int
}

type exactCand struct {
	choice int
	cost   float64
}

// stepCost computes the incremental cost of assigning g1 position i to
// choice (a g2 position, or -1), given assignments 0..i-1.
func (s *exactSearch) stepCost(i, choice int) float64 {
	var c float64
	opt := &s.opt
	if choice < 0 {
		c += opt.NodeInsDel
	} else {
		c += opt.NodeSubst(s.v1.Kinds[i], s.v2.Kinds[choice])
		if opt.ExtraNodePenalty != nil {
			c += opt.ExtraNodePenalty(s.v1.IDs[i], s.v2.IDs[choice])
		}
	}
	row1 := s.v1.Cost[i*s.n1 : i*s.n1+i]
	for j, w1 := range row1 {
		var w2 float64
		if choice >= 0 && s.assigned[j] >= 0 {
			w2 = s.v2.Cost[choice*s.n2+s.assigned[j]]
		}
		switch {
		case w1 != 0 && w2 == 0:
			c += opt.EdgeDel(w1)
		case w1 == 0 && w2 != 0:
			c += opt.EdgeIns(w2)
		}
	}
	return c
}

// completionCost: all g1 nodes assigned; remaining unused g2 nodes are
// inserted along with their edges to used/inserted nodes.
func (s *exactSearch) completionCost() float64 {
	var c float64
	for _, used := range s.usedV {
		if !used {
			c += s.opt.NodeInsDel
		}
	}
	for v, used := range s.usedV {
		if used {
			continue
		}
		for _, nb := range s.v2.Nbrs[v] {
			if !s.usedV[nb] && nb < v {
				continue // count inserted-inserted edges once
			}
			c += s.opt.EdgeIns(s.v2.Cost[v*s.n2+nb])
		}
	}
	return c
}

func (s *exactSearch) dfs(i int, acc float64) {
	// Admissible remaining-cost lower bound: node count imbalance only.
	diff := (s.n1 - i) - s.free2
	if diff < 0 {
		diff = -diff
	}
	if acc+float64(diff)*s.opt.NodeInsDel >= s.bestCost {
		return
	}
	if i == s.n1 {
		if total := acc + s.completionCost(); total < s.bestCost {
			s.bestCost = total
			s.bestImg = append(s.bestImg[:0], s.assigned...)
		}
		return
	}
	// Order candidate choices by incremental cost so good solutions are
	// found early and pruning bites: ascending position, deletion last,
	// stably insertion-sorted by cost.
	cands := s.cands[i*(s.n2+1) : i*(s.n2+1)]
	for j, used := range s.usedV {
		if !used {
			cands = insertCand(cands, exactCand{j, s.stepCost(i, j)})
		}
	}
	cands = insertCand(cands, exactCand{-1, s.stepCost(i, -1)})
	for _, cd := range cands {
		s.assigned[i] = cd.choice
		if cd.choice >= 0 {
			s.usedV[cd.choice] = true
			s.free2--
		}
		s.dfs(i+1, acc+cd.cost)
		if cd.choice >= 0 {
			s.usedV[cd.choice] = false
			s.free2++
		}
	}
	s.assigned[i] = -1
}

// insertCand appends c and sifts it left past strictly costlier entries —
// a stable sort by cost, one element at a time.
func insertCand(cands []exactCand, c exactCand) []exactCand {
	cands = append(cands, c)
	k := len(cands) - 1
	for k > 0 && cands[k-1].cost > c.cost {
		cands[k] = cands[k-1]
		k--
	}
	cands[k] = c
	return cands
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
func Refine(g1, g2 *topo.Graph, m Mapping, opt Options, maxPasses int) (float64, Mapping) {
	opt = opt.norm()
	v1, v2 := topo.ViewOf(g1), topo.ViewOf(g2)
	cur := imageOf(v1, v2, m)
	inv := make([]int, len(v2.IDs))
	cost := pathCost(v1, v2, cur, inv, opt)
	if maxPasses <= 0 {
		maxPasses = 4
	}
	used := make([]bool, len(v2.IDs))
	var freeT []int
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		// Unused target positions (recomputed per pass).
		for j := range used {
			used[j] = false
		}
		for _, p := range cur {
			if p >= 0 {
				used[p] = true
			}
		}
		freeT = freeT[:0]
		for j, u := range used {
			if !u {
				freeT = append(freeT, j)
			}
		}
		for a, va := range cur {
			if va < 0 {
				continue
			}
			// Swap with a later mapped node.
			for b := a + 1; b < len(cur); b++ {
				vb := cur[b]
				if vb < 0 {
					continue
				}
				cur[a], cur[b] = vb, va
				if c := pathCost(v1, v2, cur, inv, opt); c < cost {
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
				if c := pathCost(v1, v2, cur, inv, opt); c < cost {
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
	return cost, mappingOf(v1, v2, cur)
}

// LowerBounder computes admissible lower bounds on the edit distance from
// one fixed graph g1 to many candidate graphs — the degree-sequence
// pruning of the mapping hot path: a candidate whose bound already
// exceeds the best known distance is discarded before the Hungarian
// assignment (or the exact branch-and-bound) ever runs.
//
// The bound combines two independent cost components, so it never
// overestimates the exact distance under structural options
// (Options.Structural must hold; NewLowerBounder panics otherwise):
//
//   - node imbalance: any edit path performs at least ||V1|-|V2|| node
//     insertions/deletions, each costing NodeInsDel;
//   - degree imbalance: a node mapping can match at most
//     (1/2)·Σᵢ min(d1⟨i⟩, d2⟨i⟩) edges (descending-sorted degree
//     sequences, zero-padded), so at least E1+E2 minus twice that many
//     edge edits remain, each costing at least the cheapest edge weight
//     of either graph. Equivalently, the remainder is
//     (1/2)·Σᵢ |d1⟨i⟩ − d2⟨i⟩|.
type LowerBounder struct {
	nodeInsDel float64
	n1         int
	deg1       []int   // descending
	minW1      float64 // +Inf when g1 has no edges
}

// NewLowerBounder prepares bounds against g1. opt must be structural.
func NewLowerBounder(g1 *topo.Graph, opt Options) *LowerBounder {
	if !opt.Structural() {
		panic("ged: LowerBounder needs structural options")
	}
	opt = opt.norm()
	lb := &LowerBounder{
		nodeInsDel: opt.NodeInsDel,
		n1:         g1.NumNodes(),
		minW1:      math.Inf(1),
	}
	v1 := topo.ViewOf(g1)
	lb.deg1 = degreesDesc(v1)
	lb.minW1 = minEdgeCost(v1, lb.minW1)
	return lb
}

// degreesDesc returns the view's degree sequence, descending.
func degreesDesc(v *topo.View) []int {
	deg := slices.Clone(v.Deg)
	slices.Sort(deg)
	slices.Reverse(deg)
	return deg
}

// minEdgeCost returns the smaller of min and the view's cheapest edge.
func minEdgeCost(v *topo.View, min float64) float64 {
	for _, e := range v.Edges {
		if e.Cost < min {
			min = e.Cost
		}
	}
	return min
}

// Bound returns the admissible lower bound on the exact edit distance
// from the bounder's g1 to g2.
func (lb *LowerBounder) Bound(g2 *topo.Graph) float64 {
	v2 := topo.ViewOf(g2)
	n2 := len(v2.IDs)
	deg2 := degreesDesc(v2)
	minW := minEdgeCost(v2, lb.minW1)

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
func Approx(g1, g2 *topo.Graph, opt Options) (float64, Mapping) {
	v1, v2 := topo.ViewOf(g1), topo.ViewOf(g2)
	cost, img := approx(v1, v2, opt.norm())
	return cost, mappingOf(v1, v2, img)
}

// approx is Approx on the dense views, options normalized, returning the
// assignment in image form.
func approx(v1, v2 *topo.View, opt Options) (float64, []int) {
	n1, n2 := len(v1.IDs), len(v2.IDs)
	n := n1 + n2
	if n == 0 {
		return 0, nil
	}

	const inf = math.MaxFloat64 / 4
	flat := make([]float64, n*n)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = flat[i*n : (i+1)*n]
	}
	avgEdge := func(v *topo.View, p int, f func(float64) float64) float64 {
		var s float64
		for _, nb := range v.Nbrs[p] {
			s += f(v.Cost[p*len(v.IDs)+nb])
		}
		return s / 2 // each unmatched edge is counted at both endpoints
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			c := opt.NodeSubst(v1.Kinds[i], v2.Kinds[j])
			if opt.ExtraNodePenalty != nil {
				c += opt.ExtraNodePenalty(v1.IDs[i], v2.IDs[j])
			}
			// Local structure estimate: degree imbalance costs edge edits.
			d1, d2 := v1.Deg[i], v2.Deg[j]
			if d1 > d2 {
				c += float64(d1-d2) * 0.5
			} else {
				c += float64(d2-d1) * 0.5
			}
			cost[i][j] = c
		}
		for j := 0; j < n1; j++ { // deletion block
			if i == j {
				cost[i][n2+j] = opt.NodeInsDel + avgEdge(v1, i, opt.EdgeDel)
			} else {
				cost[i][n2+j] = inf
			}
		}
	}
	for i := 0; i < n2; i++ { // insertion block
		for j := 0; j < n2; j++ {
			if i == j {
				cost[n1+i][j] = opt.NodeInsDel + avgEdge(v2, j, opt.EdgeIns)
			} else {
				cost[n1+i][j] = inf
			}
		}
		// The epsilon-to-epsilon corner stays 0: free.
	}

	assign := hungarian(cost)
	img := make([]int, n1)
	for i := range img {
		img[i] = -1
		if j := assign[i]; j < n2 {
			img[i] = j
		}
	}
	return pathCost(v1, v2, img, make([]int, n2), opt), img
}
