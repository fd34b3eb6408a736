package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// streamWorld is one seeded mapping problem of the differential test.
type streamWorld struct {
	phys *topo.Graph
	free []topo.NodeID
	req  *topo.Graph
}

// churnRequests are the map_churn benchmark's request families (meshes of
// 1..3 x 2..3, chains of 3..7, near-meshes of 3..8) plus the 3x3 mesh the
// benchmark leaves out.
func churnRequests() []*topo.Graph {
	var reqs []*topo.Graph
	for r := 1; r <= 3; r++ {
		for c := 2; c <= 3; c++ {
			reqs = append(reqs, topo.Mesh2D(r, c))
		}
	}
	for n := 3; n <= 7; n++ {
		reqs = append(reqs, topo.Chain(n))
	}
	for n := 3; n <= 8; n++ {
		reqs = append(reqs, topo.NearMesh(n))
	}
	return reqs
}

// streamWorlds draws n worlds on a side×side mesh: free density 0.3–0.9,
// requests drawn from reqs.
func streamWorlds(rng *rand.Rand, side, n int, reqs []*topo.Graph) []streamWorld {
	phys := topo.Mesh2D(side, side)
	worlds := make([]streamWorld, 0, n)
	for len(worlds) < n {
		density := 0.3 + 0.6*rng.Float64()
		var free []topo.NodeID
		for id := 0; id < side*side; id++ {
			if rng.Float64() < density {
				free = append(free, topo.NodeID(id))
			}
		}
		req := reqs[rng.Intn(len(reqs))]
		if len(free) >= req.NumNodes() {
			worlds = append(worlds, streamWorld{phys, free, req})
		}
	}
	return worlds
}

// TestMapSimilarStreamEqualsReference is the streaming mapper's
// differential test: on seeded worlds the streamed mapSimilar must return
// the whole MapResult — nodes, cost, candidate count, connectivity — and
// the error text of the materialise-then-scan reference, with the
// rectangle fast path on and off, and under a positional penalty (where
// signature dedup is off). The odd-cycle requests have no exact match on
// a mesh (it is bipartite), so on a dense 8x8 free set they run the
// enumeration into exactEnumLimit and on through the region-growing
// fallback without an early exit cutting the comparison short; at ten
// nodes the grown regions include shapes the capped enumeration never
// reached, so skipping the fallback changes the candidate count.
func TestMapSimilarStreamEqualsReference(t *testing.T) {
	defer func(r bool) { enableRectFastPath = r }(enableRectFastPath)

	penalty := ged.Options{ExtraNodePenalty: func(a, b topo.NodeID) float64 {
		return 0.25 * float64((int(a)+int(b))%3)
	}}
	chorded := topo.NearMesh(10)
	chorded.AddEdge(0, 4, topo.DefaultEdgeCost) // a triangle: 0-1-4
	rows := []struct {
		name   string
		side   int
		worlds int
		rect   bool
		opt    ged.Options
		reqs   []*topo.Graph
	}{
		{"4x4", 4, 100, true, ged.Options{}, churnRequests()},
		{"6x6", 6, 100, true, ged.Options{}, churnRequests()},
		{"6x6/no-rect", 6, 60, false, ged.Options{}, churnRequests()},
		{"8x8", 8, 60, true, ged.Options{}, churnRequests()},
		{"8x8/no-rect", 8, 40, false, ged.Options{}, churnRequests()},
		{"8x8/odd-cycles", 8, 6, true, ged.Options{}, []*topo.Graph{topo.Ring(7), chorded}},
		// No dedup and no pruning under a penalty: every one of up to
		// maxGEDCandidates regions is solved exactly, so keep them small.
		{"6x6/penalty", 6, 24, true, penalty, []*topo.Graph{topo.Mesh2D(2, 2), topo.Chain(4), topo.NearMesh(5), topo.Mesh2D(2, 3)}},
	}
	for ri, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			enableRectFastPath = row.rect
			rng := rand.New(rand.NewSource(int64(1000 + ri)))
			grew := 0 // worlds scanned to the end of the region-growing fallback
			for wi, w := range streamWorlds(rng, row.side, row.worlds, row.reqs) {
				k := w.req.NumNodes()
				want, wantErr := refMapSimilar(w.phys, w.free, w.req, row.opt)
				got, gotErr := mapSimilar(w.phys, w.free, w.req, row.opt)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("world %d (%d-node request, %d free): error %v, reference %v", wi, k, len(w.free), gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("world %d (%d-node request, %d free):\n got %+v\nwant %+v", wi, k, len(w.free), got, want)
				}
				if _, complete := topo.ConnectedSubgraphs(w.phys, w.free, k, exactEnumLimit); !complete && wantErr == nil && want.Cost > 0 {
					grew++
				}
			}
			if row.name == "8x8/odd-cycles" && grew == 0 {
				t.Fatal("no odd-cycle world ran the enumeration into exactEnumLimit: the grow fallback went untested")
			}
		})
	}
}

// refMapSimilar is the parent's mapSimilar, verbatim but for names: it
// materialises every candidate (refGatherCandidates) and only then scans
// them. Original comment follows.
//
// mapSimilar implements Algorithm 1: enumerate connected candidate regions,
// prune duplicates by topology signature, return early on an exact match,
// otherwise compute edit distances in parallel and keep the minimum.
//
// Three prunings cut the miss cost without changing the returned score:
// a free congruent rectangle short-circuits the whole search at edit
// distance 0 (exactRectangle); candidate enumeration runs on bitsets with
// small free components skipped (internal/topo); and candidates whose
// admissible degree-sequence lower bound exceeds the best score found so
// far are discarded before the edit-distance solver runs on them.
func refMapSimilar(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, opt ged.Options) (MapResult, error) {
	k := req.NumNodes()
	if enableRectFastPath && opt.Structural() {
		if res, ok := exactRectangle(phys, free, req, opt); ok {
			return res, nil
		}
	}
	candidates := refGatherCandidates(phys, free, k)
	if len(candidates) == 0 {
		return MapResult{}, fmt.Errorf("core: no connected %d-core region available: %w", k, ErrTopologyUnsatisfiable)
	}

	// Signature dedup is only sound when the cost model is purely
	// structural; positional penalties distinguish same-shape regions.
	// Signatures are computed in place over the host graph (SubSigner);
	// the induced subgraph is only materialized for candidates that
	// survive dedup — duplicates, the common case on a fragmented mesh,
	// cost one signature and no graph construction.
	dedup := opt.ExtraNodePenalty == nil
	reqSig := topo.Signature(req, 0)
	signer := topo.NewSubSigner(phys)
	seen := make(map[string]bool)
	var kept []refCandidate
	for _, c := range candidates {
		sig := signer.Signature(c.nodes, 0)
		var sub *topo.Graph
		if sig == reqSig {
			// Algorithm 1 line 22: exact topology, return immediately.
			sub = phys.Induced(c.nodes)
			cost, mapping := ged.Distance(req, sub, opt)
			if cost == 0 {
				return MapResult{
					Nodes:      orderByMapping(req, mapping, c.nodes),
					Cost:       0,
					Candidates: len(kept) + 1,
					Connected:  true,
				}, nil
			}
			// Rare signature collision: fall through to scoring.
		}
		if dedup {
			if seen[sig] {
				continue
			}
			seen[sig] = true
		}
		if sub == nil {
			sub = phys.Induced(c.nodes)
		}
		kept = append(kept, refCandidate{nodes: c.nodes, sub: sub})
		if len(kept) >= maxGEDCandidates {
			break
		}
	}

	// Algorithm 1 lines 30-32: score candidates in parallel, keep the
	// minimum (deterministic: results indexed, ties to lowest index).
	//
	// Candidates are scored cheapest-lower-bound first in bounded waves:
	// once some candidate's admissible bound exceeds the best score seen,
	// its true distance can only be worse, so it (and, the order being
	// sorted, everything after it) is skipped without running the solver.
	// A skipped candidate's exact distance strictly exceeds the final
	// minimum, so the minimum — and the lowest-original-index tie-break —
	// are exactly those of the unpruned scan (property-tested).
	type scored struct {
		cost    float64
		mapping ged.Mapping
	}
	results := make([]scored, len(kept))
	valid := make([]bool, len(kept))
	order := make([]int, len(kept))
	for i := range order {
		order[i] = i
	}
	var lbs []float64
	prune := enableGEDPrune && opt.Structural()
	if prune {
		lber := ged.NewLowerBounder(req, opt)
		lbs = make([]float64, len(kept))
		for i := range kept {
			lbs[i] = lber.Bound(kept[i].sub)
		}
		sort.SliceStable(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	}
	bestCost := math.Inf(1)
	width := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for start := 0; start < len(order); start += width {
		end := start + width
		if end > len(order) {
			end = len(order)
		}
		wave := order[start:end]
		if prune && lbs[wave[0]] > bestCost {
			break // sorted by bound: every remaining candidate is prunable
		}
		for _, i := range wave {
			if prune && lbs[i] > bestCost {
				continue
			}
			valid[i] = true
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cost, mapping := ged.Distance(req, kept[i].sub, opt)
				results[i] = scored{cost, mapping}
			}(i)
		}
		wg.Wait()
		for _, i := range wave {
			if valid[i] && results[i].cost < bestCost {
				bestCost = results[i].cost
			}
		}
	}

	best := -1
	for i := range kept {
		if !valid[i] {
			continue
		}
		if best < 0 || results[i].cost < results[best].cost {
			best = i
		}
	}
	cost, mapping := results[best].cost, results[best].mapping
	bestNodes := kept[best].nodes
	if k > 10 {
		// Beyond the exact solver's reach the bipartite assignment can be
		// loose; tighten the winning candidate with local search.
		cost, mapping = ged.Refine(req, kept[best].sub, mapping, opt, 6)
	}
	// The naive ID-order region is always a legal candidate; never return
	// something worse than what the straightforward strategy would get
	// refined (Algorithm 1 minimizes over all candidates).
	if straight, err := mapStraightforward(phys, free, req, opt); err == nil && straight.Connected {
		sSub := phys.Induced(straight.Nodes)
		sMap := make(ged.Mapping, k)
		for i, n := range straight.Nodes {
			sMap[topo.NodeID(i)] = n
		}
		sCost := straight.Cost
		if k > 10 {
			sCost, sMap = ged.Refine(req, sSub, sMap, opt, 6)
		}
		if sCost < cost {
			cost, mapping = sCost, sMap
			bestNodes = straight.Nodes
		}
	}
	return MapResult{
		Nodes:      orderByMapping(req, mapping, bestNodes),
		Cost:       cost,
		Candidates: len(kept) + 1,
		Connected:  true,
	}, nil
}

type refCandidate struct {
	nodes []topo.NodeID
	sub   *topo.Graph
}

// refGatherCandidates produces connected size-k regions of the free set:
// exhaustive enumeration when feasible, seeded region growing otherwise,
// deduplicated by node set.
func refGatherCandidates(phys *topo.Graph, free []topo.NodeID, k int) []refCandidate {
	var sets [][]topo.NodeID
	if k <= exactEnumMaxK {
		enum, complete := topo.ConnectedSubgraphs(phys, free, k, exactEnumLimit)
		sets = enum
		if !complete {
			sets = append(sets, topo.GrowRegions(phys, free, k)...)
		}
	} else {
		sets = topo.GrowRegions(phys, free, k)
	}
	seen := make(map[string]bool, len(sets))
	out := make([]refCandidate, 0, len(sets))
	for _, s := range sets {
		key := refNodeSetKey(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, refCandidate{nodes: s})
	}
	return out
}

func refNodeSetKey(ids []topo.NodeID) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), ';')
	}
	return string(b)
}
