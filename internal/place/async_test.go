package place_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// waitClosed blocks on an async mapping edge with a test timeout.
func waitClosed(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("async mapping never completed")
	}
}

// TestEngineMapAsyncServesPlaceCached: a Rank that misses computes the
// request's mappings off the caller, after which PlaceCached answers
// without running the mapper; a second Rank has nothing to wait for.
func TestEngineMapAsyncServesPlaceCached(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip(), fpgaChip()}, place.WithWorkers(2))
	defer e.Close()
	req := place.Request{Topology: topo.Mesh2D(2, 2)}

	if cands := e.PlaceCached(req); cands != nil {
		t.Fatalf("cold engine served cached candidates: %+v", cands)
	}
	ranked, ready, err := e.Rank(req)
	if ready == nil || len(ranked) != 0 || err != nil {
		t.Fatalf("Rank with both chips unmapped = %+v, pending %v, %v; want only the edge", ranked, ready != nil, err)
	}
	waitClosed(t, ready)
	cands := e.PlaceCached(req)
	if len(cands) != 2 {
		t.Fatalf("cached candidates after the rank's mappings landed = %d, want 2: %+v", len(cands), cands)
	}
	if ranked, again, err := e.Rank(req); again != nil || err != nil || len(ranked) != 2 {
		t.Fatalf("Rank with every chip answered = %+v, pending %v, %v; want both chips", ranked, again != nil, err)
	}
	st := e.Stats()
	if st.AsyncMaps != 2 {
		t.Fatalf("AsyncMaps = %d, want 2: %+v", st.AsyncMaps, st)
	}
	if st.CacheMisses != 2 {
		t.Fatalf("CacheMisses = %d, want 2: %+v", st.CacheMisses, st)
	}
	if st.MapTime == 0 {
		t.Fatalf("MapTime not accounted: %+v", st)
	}
}

// TestEngineHitsFirstStartsAreColdOptima is the hits-first guarantee:
// every candidate of a Rank that did not park — complete, or the exact
// fits an incomplete rank starts a job on — leads with the cacheless
// engine's best cost over ALL chips at the same free state. Nothing is
// given up by not waiting.
func TestEngineHitsFirstStartsAreColdOptima(t *testing.T) {
	reqPool := []*topo.Graph{
		topo.Mesh2D(2, 2),
		topo.Mesh2D(2, 3),
		topo.Chain(3),
		topo.Chain(5),
	}
	rng := rand.New(rand.NewSource(42))
	cached := newEngine(t, []place.Chip{simChip(), fpgaChip()})
	defer cached.Close()
	cold := newEngine(t, []place.Chip{simChip(), fpgaChip()}, place.WithCacheSize(0))
	defer cold.Close()
	type livePlacement struct {
		chip  int
		nodes []topo.NodeID
	}
	var live []livePlacement
	for op := 0; op < 30; op++ {
		req := place.Request{Topology: reqPool[rng.Intn(len(reqPool))]}
		switch rng.Intn(4) {
		case 0: // warm one chip's mapping only (partial cache)
			chip := rng.Intn(2)
			if res, err := cached.Claim(chip, req); err == nil {
				if err := cached.Release(chip, res.Nodes); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // full async warm
			if _, ready, _ := cached.Rank(req); ready != nil {
				waitClosed(t, ready)
			}
		case 2: // churn: place and claim, mirrored on the cold engine
			cands, err := cached.Place(req)
			if err != nil {
				continue
			}
			res, err := cached.Claim(cands[0].Chip, req)
			if err != nil {
				continue
			}
			if err := cold.Commit(cands[0].Chip, res.Nodes); err != nil {
				t.Fatal(err)
			}
			live = append(live, livePlacement{cands[0].Chip, res.Nodes})
		default: // churn: release
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := cached.Release(p.chip, p.nodes); err != nil {
				t.Fatal(err)
			}
			if err := cold.Release(p.chip, p.nodes); err != nil {
				t.Fatal(err)
			}
		}
		ranked, ready, _ := cached.Rank(req)
		if ready != nil {
			if len(ranked) != 0 {
				t.Fatalf("op %d: a parked rank named candidates: %+v", op, ranked)
			}
			waitClosed(t, ready)
			continue
		}
		if len(ranked) == 0 {
			continue
		}
		coldCands, err := cold.Place(req)
		if err != nil || len(coldCands) == 0 {
			t.Fatalf("op %d: cached rank exists but cold rank failed: %v", op, err)
		}
		if got, best := ranked[0].Cost, coldCands[0].Cost; got != best {
			t.Fatalf("op %d: rank leads with chip %d at cost %v but the cold optimum costs %v", op, ranked[0].Chip, got, best)
		}
	}
}

// TestEngineMapAsyncChurnRace exercises Rank and PlaceCached against
// concurrent Claim/Release churn and blocking placements under -race:
// async mappers share flights and the cache with every other path, and
// the free-set mirror moves underneath them.
func TestEngineMapAsyncChurnRace(t *testing.T) {
	e := newEngine(t, []place.Chip{simChip(), fpgaChip()}, place.WithWorkers(3))
	defer e.Close()
	reqPool := []*topo.Graph{
		topo.Mesh2D(2, 2),
		topo.Mesh2D(2, 3),
		topo.Chain(3),
		topo.Chain(4),
	}

	const (
		churners = 3
		mappers  = 3
		rounds   = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				req := place.Request{Topology: reqPool[rng.Intn(len(reqPool))]}
				cands, err := e.Place(req)
				if err != nil {
					continue
				}
				chip := cands[rng.Intn(len(cands))].Chip
				res, err := e.Claim(chip, req)
				if err != nil {
					continue
				}
				if rng.Intn(4) != 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				if err := e.Release(chip, res.Nodes); err != nil {
					t.Errorf("release of claimed nodes failed: %v", err)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < mappers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < rounds; i++ {
				req := place.Request{Topology: reqPool[rng.Intn(len(reqPool))]}
				if rng.Intn(2) == 0 {
					if _, ready, _ := e.Rank(req); ready != nil && rng.Intn(2) == 0 {
						waitClosed(t, ready)
					}
				} else {
					for _, c := range e.PlaceCached(req) {
						if c.Chip < 0 || c.Chip >= e.Chips() {
							t.Errorf("cached candidate names unknown chip %d", c.Chip)
							return
						}
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
