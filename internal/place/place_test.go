package place_test

import (
	"errors"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// simChip builds one fully-free DCRA-scale (6x6) engine chip.
func simChip() place.Chip {
	g := topo.Mesh2D(6, 6)
	return place.Chip{Graph: g, Free: g.Nodes(), Profile: place.FromConfig(npu.SimConfig())}
}

// fpgaChip builds one fully-free FPGA-scale (2x4) engine chip.
func fpgaChip() place.Chip {
	g := topo.Mesh2D(2, 4)
	return place.Chip{Graph: g, Free: g.Nodes(), Profile: place.FromConfig(npu.FPGAConfig())}
}

func newEngine(t *testing.T, chips []place.Chip, opts ...place.Option) *place.Engine {
	t.Helper()
	e, err := place.New(chips, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineCachesRepeatedPlacements(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip(), simChip()})
	req := place.Request{Topology: topo.Mesh2D(2, 2)}

	cands, err := e.Place(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	s := e.Stats()
	// Two identical idle chips share one computation: one miss, and the
	// second resolution is served from the in-flight result or the cache.
	if s.CacheMisses != 1 {
		t.Fatalf("misses = %d after first placement over twin chips, want 1", s.CacheMisses)
	}
	if s.CacheHits != 1 {
		t.Fatalf("hits = %d after first placement over twin chips, want 1", s.CacheHits)
	}

	if _, err := e.Place(req); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 3 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 3/1", s.CacheHits, s.CacheMisses)
	}
	if s.Placements != 2 {
		t.Fatalf("placements = %d, want 2", s.Placements)
	}
	if s.PlaceTime <= 0 {
		t.Fatal("no placement latency recorded")
	}
}

func TestEngineCommitInvalidatesAndReleaseRestores(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip()})
	req := place.Request{Topology: topo.Mesh2D(2, 2)}

	res, err := e.Claim(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.FreeCount(0); got != 32 {
		t.Fatalf("free count %d after claim, want 32", got)
	}

	// The free set changed, so the same request misses and must map onto
	// the remaining cores only.
	res2, err := e.Claim(0, req)
	if err != nil {
		t.Fatal(err)
	}
	taken := make(map[topo.NodeID]bool)
	for _, n := range res.Nodes {
		taken[n] = true
	}
	for _, n := range res2.Nodes {
		if taken[n] {
			t.Fatalf("second resolution reuses committed core %d", n)
		}
	}
	s := e.Stats()
	if s.CacheMisses != 2 {
		t.Fatalf("misses = %d, want 2 (free-set delta invalidates)", s.CacheMisses)
	}

	// Releasing restores the original free set: the first decision is
	// served from cache again.
	if err := e.Release(0, res2.Nodes); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(0, res.Nodes); err != nil {
		t.Fatal(err)
	}
	res3, err := e.Claim(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if s = e.Stats(); s.CacheHits == 0 {
		t.Fatal("release did not restore the cached free-set signature")
	}
	if res3.Cost != res.Cost {
		t.Fatalf("restored resolution cost %v, want %v", res3.Cost, res.Cost)
	}
}

func TestEnginePrefersCheapestSatisfyingChip(t *testing.T) {
	// Chip 0 is the expensive DCRA-scale part, chip 1 the FPGA-scale one.
	e := newEngine(t, []place.Chip{simChip(), fpgaChip()})

	// A 2x2 mesh fits both exactly (cost 0): the cheap chip must rank
	// first even though it is listed second.
	cands, err := e.Place(place.Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	if cands[0].Chip != 1 {
		t.Fatalf("best candidate is chip %d, want cheap chip 1", cands[0].Chip)
	}
	if cands[0].Cost != cands[1].Cost {
		t.Fatalf("costs differ (%v vs %v) — tie expected", cands[0].Cost, cands[1].Cost)
	}
	if cands[0].Price >= cands[1].Price {
		t.Fatalf("winner price %v is not below runner-up %v", cands[0].Price, cands[1].Price)
	}

	// A 12-core request only fits the big chip.
	cands, err = e.Place(place.Request{Topology: topo.Mesh2D(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Chip != 0 {
		t.Fatalf("12-core request candidates %+v, want only chip 0", cands)
	}
}

func TestEngineMemoryFilterExcludesSmallChips(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip(), fpgaChip()})
	// More memory than the FPGA pool (4 GiB) but within the SIM pool.
	cands, err := e.Place(place.Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 8 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Chip != 0 {
		t.Fatalf("candidates %+v, want only the large-memory chip 0", cands)
	}
	// More than any pool: typed failure.
	if _, err := e.Place(place.Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 1 << 40}); !errors.Is(err, core.ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded", err)
	}
}

func TestEngineTypedErrorsSurface(t *testing.T) {
	e := newEngine(t, []place.Chip{fpgaChip()})
	// 12 cores on an 8-core chip.
	if _, err := e.Place(place.Request{Topology: topo.Mesh2D(3, 4)}); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("got %v, want ErrNoCapacity", err)
	}
	// An 8-node chain has no isomorphic region on the 2x4 mesh.
	if _, err := e.Place(place.Request{Topology: topo.Chain(8), Strategy: core.StrategyExact}); !errors.Is(err, core.ErrTopologyUnsatisfiable) {
		t.Fatalf("got %v, want ErrTopologyUnsatisfiable", err)
	}
	// Negative outcomes are cached too.
	if _, err := e.Place(place.Request{Topology: topo.Chain(8), Strategy: core.StrategyExact}); !errors.Is(err, core.ErrTopologyUnsatisfiable) {
		t.Fatalf("got %v, want cached ErrTopologyUnsatisfiable", err)
	}
	if s := e.Stats(); s.CacheHits == 0 {
		t.Fatal("repeated unsatisfiable request did not hit the negative cache")
	}
}

func TestEngineEvictionsBoundTheCache(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip()}, place.WithCacheSize(1))
	reqs := []place.Request{
		{Topology: topo.Mesh2D(2, 2)},
		{Topology: topo.Chain(3)},
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Place(reqs[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CacheEvictions == 0 {
		t.Fatal("alternating requests over a 1-entry cache evicted nothing")
	}
	if s.CacheSize > 1 {
		t.Fatalf("cache holds %d entries, capacity 1", s.CacheSize)
	}
}

func TestEngineUncacheableRequestsBypassCache(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip()})
	req := place.Request{
		Topology:   topo.Mesh2D(2, 2),
		MapOptions: ged.Options{ExtraNodePenalty: func(a, b topo.NodeID) float64 { return 0 }},
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Place(req); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CacheHits != 0 {
		t.Fatalf("callback-cost request hit the cache %d times", s.CacheHits)
	}
	if s.CacheMisses != 2 {
		t.Fatalf("misses = %d, want 2 (one per placement, uncached)", s.CacheMisses)
	}
}

func TestEngineCommitReleaseDriftDetection(t *testing.T) {
	e := newEngine(t, []place.Chip{fpgaChip()})
	res, err := e.Claim(0, place.Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(0, res.Nodes); err == nil {
		t.Fatal("double commit of the same cores succeeded")
	}
	if err := e.Release(0, res.Nodes); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(0, res.Nodes); err == nil {
		t.Fatal("double release of the same cores succeeded")
	}
	if got := e.FreeCount(0); got != 8 {
		t.Fatalf("free count %d after failed double release, want 8", got)
	}
}

// TestEngineRelabeledRequestsDoNotAlias: two isomorphic chains with
// different virtual-core labelings must get separate cache entries — the
// cached assignment is indexed by virtual core ID, so serving one
// labeling the other's entry would wire virtual links onto non-adjacent
// physical cores.
func TestEngineRelabeledRequestsDoNotAlias(t *testing.T) {
	e := newEngine(t, []place.Chip{fpgaChip()})

	chainA := topo.Chain(4) // path 0-1-2-3
	chainB := topo.New()    // isomorphic path visiting 0,2,1,3
	for i := 0; i < 4; i++ {
		chainB.AddNode(topo.NodeID(i), "core")
	}
	chainB.AddEdge(0, 2, topo.DefaultEdgeCost)
	chainB.AddEdge(2, 1, topo.DefaultEdgeCost)
	chainB.AddEdge(1, 3, topo.DefaultEdgeCost)

	check := func(req *topo.Graph) {
		t.Helper()
		res, err := e.Claim(0, place.Request{Topology: req})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := e.Release(0, res.Nodes); err != nil {
				t.Fatal(err)
			}
		}()
		if res.Cost != 0 {
			t.Fatalf("idle 2x4 mesh must host a 4-chain exactly, cost %v", res.Cost)
		}
		// Every virtual link must land on physically adjacent cores.
		g := topo.Mesh2D(2, 4)
		for _, edge := range req.Edges() {
			a, b := res.Nodes[edge.A], res.Nodes[edge.B]
			if !g.HasEdge(a, b) {
				t.Fatalf("virtual edge %d-%d mapped to non-adjacent cores %d,%d (nodes %v)",
					edge.A, edge.B, a, b, res.Nodes)
			}
		}
	}
	check(chainA)
	check(chainB)
	if s := e.Stats(); s.CacheMisses != 2 {
		t.Fatalf("misses = %d — the relabeled request aliased the first entry", s.CacheMisses)
	}
}

func TestEngineColdModeDisablesCaching(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip()}, place.WithCacheSize(0))
	req := place.Request{Topology: topo.Mesh2D(2, 2)}
	for i := 0; i < 3; i++ {
		if _, err := e.Place(req); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 3 {
		t.Fatalf("cold engine hits=%d misses=%d, want 0/3", s.CacheHits, s.CacheMisses)
	}
}
