package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Strategy selects the NPU core allocation policy (§4.3, Fig 8).
type Strategy uint8

// Allocation strategies.
const (
	// StrategySimilar allocates the connected free region with minimum
	// topology edit distance to the request — the paper's best-effort
	// mapping (Algorithm 1).
	StrategySimilar Strategy = iota
	// StrategyExact only accepts a region isomorphic to the request;
	// allocation fails otherwise (topology lock-in).
	StrategyExact
	// StrategyStraightforward takes the free cores with the smallest IDs
	// first (row-major order), ignoring topology — the naive allocation of
	// Fig 8 that Fig 18 compares against.
	StrategyStraightforward
	// StrategyFragment behaves like StrategySimilar but accepts a
	// disconnected region when no connected one exists, trading NoC
	// interference for utilization (§4.3, "Topology fragmentation").
	StrategyFragment
)

var strategyNames = [...]string{"similar", "exact", "straightforward", "fragment"}

// String names the strategy.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// MapResult is the outcome of a topology mapping.
type MapResult struct {
	// Nodes holds the physical node hosting each virtual core: Nodes[v]
	// hosts vCore v (requested-topology node v).
	Nodes []topo.NodeID
	// Cost is the topology edit distance between the request and the
	// allocated region under the chosen assignment (0 = exact match).
	Cost float64
	// Candidates reports how many candidate regions were evaluated.
	Candidates int
	// Connected reports whether the allocated region is connected (R-3).
	Connected bool
}

// enumeration budgets: exhaustive ESU enumeration is exponential, so it is
// only attempted for small requests and capped; region growing covers the
// rest (the paper prunes the same way, §4.3).
const (
	exactEnumMaxK    = 10
	exactEnumLimit   = 3000
	maxGEDCandidates = 512
)

// mapSimilar's stream relies on exactEnumLimit >= maxGEDCandidates (see
// there); a negative constant does not convert.
const _ = uint(exactEnumLimit - maxGEDCandidates)

// MapTopology allocates req.NumNodes() cores from the free nodes of phys
// according to the strategy. The requested topology's node IDs must be
// 0..n-1 (they become the virtual core IDs). opt customizes edit costs
// (heterogeneous nodes, critical edges); the zero Options give the paper's
// defaults.
func MapTopology(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, strat Strategy, opt ged.Options) (MapResult, error) {
	k := req.NumNodes()
	if k == 0 {
		return MapResult{}, fmt.Errorf("core: empty topology request")
	}
	for i := 0; i < k; i++ {
		if !req.HasNode(topo.NodeID(i)) {
			return MapResult{}, fmt.Errorf("core: request nodes must be 0..%d (missing %d)", k-1, i)
		}
	}
	if len(free) < k {
		return MapResult{}, fmt.Errorf("core: %d cores requested, %d free: %w", k, len(free), ErrNoCapacity)
	}

	switch strat {
	case StrategyStraightforward:
		return mapStraightforward(phys, free, req, opt)
	case StrategyExact:
		res, err := mapSimilar(phys, free, req, opt)
		if err != nil {
			return res, err
		}
		if res.Cost != 0 {
			return MapResult{}, fmt.Errorf("core: no exact %d-core topology available (best edit distance %.1f): topology lock-in: %w", k, res.Cost, ErrTopologyUnsatisfiable)
		}
		return res, nil
	case StrategyFragment:
		res, err := mapSimilar(phys, free, req, opt)
		if err == nil {
			return res, nil
		}
		return mapFragment(phys, free, req, opt)
	default: // StrategySimilar
		return mapSimilar(phys, free, req, opt)
	}
}

// mapStraightforward implements the smallest-ID-first baseline: free cores
// are taken in ascending physical ID (row-major) order and virtual core i
// lands on the i-th one.
func mapStraightforward(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, opt ged.Options) (MapResult, error) {
	k := req.NumNodes()
	chosen := idOrderNodes(free, k)
	if len(chosen) < k {
		return MapResult{}, fmt.Errorf("core: only %d free cores for %d-core request: %w", len(chosen), k, ErrNoCapacity)
	}
	m := make(ged.Mapping, k)
	for i, node := range chosen {
		m[topo.NodeID(i)] = node
	}
	sub := phys.Induced(chosen)
	return MapResult{
		Nodes:      chosen,
		Cost:       ged.PathCost(req, sub, m, opt),
		Candidates: 1,
		Connected:  sub.Connected(),
	}, nil
}

// idOrderNodes returns the k smallest free node IDs in ascending order.
func idOrderNodes(free []topo.NodeID, k int) []topo.NodeID {
	sorted := slices.Clone(free)
	slices.Sort(sorted)
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// Search toggles, exported to this package's tests only: the pruned-GED
// equivalence property test compares the pruned search against the
// reference with each optimization disabled. Production code never flips
// them; tests that do must not run mapping work concurrently.
var (
	enableRectFastPath = true
	enableGEDPrune     = true
)

// mapSimilar implements Algorithm 1: stream connected candidate regions,
// return at the first exact match, prune duplicates by topology signature,
// otherwise compute edit distances in parallel and keep the minimum.
//
// Three prunings cut the miss cost without changing the returned score:
// a free congruent rectangle short-circuits the whole search at edit
// distance 0 (exactRectangle); candidate enumeration runs on bitsets with
// small free components skipped (internal/topo); and candidates whose
// admissible degree-sequence lower bound exceeds the best score found so
// far are discarded before the edit-distance solver runs on them.
func mapSimilar(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, opt ged.Options) (MapResult, error) {
	k := req.NumNodes()
	if enableRectFastPath && opt.Structural() {
		if res, ok := exactRectangle(phys, free, req, opt); ok {
			return res, nil
		}
	}

	// Signature dedup is only sound when the cost model is purely
	// structural; positional penalties distinguish same-shape regions.
	// Signatures are computed in place over the physical graph's view
	// (SubSigner); the induced subgraph is only materialized for
	// candidates that survive dedup — duplicates, the common case on a
	// fragmented mesh, cost one signature and no graph construction.
	dedup := opt.ExtraNodePenalty == nil
	host := topo.ViewOf(phys)
	reqSig := topo.ViewOf(req).WL()
	signer := host.Signer()
	seen := make(map[topo.WLSig]bool)
	var kept []candidate
	var exact *MapResult
	// consider takes the next candidate region off the stream (nodes is
	// the enumerator's buffer) and reports whether it wants another.
	consider := func(nodes []topo.NodeID) bool {
		sig := signer.Sum(nodes, 0)
		var sub *topo.Graph
		if sig == reqSig {
			// Algorithm 1 line 22: exact topology, return immediately.
			sub = phys.Induced(nodes)
			cost, mapping := ged.Distance(req, sub, opt)
			if cost == 0 {
				exact = &MapResult{
					Nodes:      orderByMapping(req, mapping, nodes),
					Cost:       0,
					Candidates: len(kept) + 1,
					Connected:  true,
				}
				return false
			}
			// Rare signature collision: fall through to scoring.
		}
		if dedup {
			if seen[sig] {
				return true
			}
			seen[sig] = true
		}
		if sub == nil {
			sub = phys.Induced(nodes)
		}
		kept = append(kept, candidate{nodes: slices.Clone(nodes), sub: sub})
		return len(kept) < maxGEDCandidates
	}
	// Exhaustive enumeration when feasible, seeded region growing when the
	// request is too large for it or it ran into its limit. A grow set the
	// enumeration already produced needs no node-set bookkeeping to be
	// dropped: its signature has been seen. (With signature dedup off every
	// enumerated set is kept, so the stream stops at maxGEDCandidates long
	// before exactEnumLimit and no grow set is ever consulted.)
	grow := k > exactEnumMaxK
	if !grow {
		grow = !host.VisitConnectedSubgraphs(free, k, exactEnumLimit, consider)
	}
	if grow {
		for _, nodes := range host.GrowRegions(free, k) {
			if !consider(nodes) {
				break
			}
		}
	}
	if exact != nil {
		return *exact, nil
	}
	if len(kept) == 0 {
		return MapResult{}, fmt.Errorf("core: no connected %d-core region available: %w", k, ErrTopologyUnsatisfiable)
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
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(lbs[a], lbs[b]) })
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

// mapFragment relaxes the connectivity requirement: grab the zig-zag-first
// free cores and score the (possibly disconnected) region.
func mapFragment(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, opt ged.Options) (MapResult, error) {
	res, err := mapStraightforward(phys, free, req, opt)
	if err != nil {
		return res, err
	}
	// Re-derive the assignment with the edit-distance solver so the
	// fragment still gets the best achievable internal mapping.
	sub := phys.Induced(res.Nodes)
	cost, mapping := ged.Distance(req, sub, opt)
	return MapResult{
		Nodes:      orderByMapping(req, mapping, res.Nodes),
		Cost:       cost,
		Candidates: 1,
		Connected:  sub.Connected(),
	}, nil
}

type candidate struct {
	nodes []topo.NodeID
	sub   *topo.Graph
}

// orderByMapping converts a GED mapping into the Nodes slice (vCore order).
// Virtual cores the solver left unmapped are assigned leftover region
// nodes deterministically.
func orderByMapping(req *topo.Graph, m ged.Mapping, region []topo.NodeID) []topo.NodeID {
	k := req.NumNodes()
	out := make([]topo.NodeID, k)
	used := make(map[topo.NodeID]bool, k)
	missing := make([]int, 0)
	for v := 0; v < k; v++ {
		if p, ok := m[topo.NodeID(v)]; ok {
			out[v] = p
			used[p] = true
		} else {
			missing = append(missing, v)
		}
	}
	if len(missing) > 0 {
		var leftovers []topo.NodeID
		for _, p := range region {
			if !used[p] {
				leftovers = append(leftovers, p)
			}
		}
		slices.Sort(leftovers)
		for i, v := range missing {
			out[v] = leftovers[i]
		}
	}
	return out
}
