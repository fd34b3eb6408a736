package place_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Property: under any randomized create/destroy sequence, a caching
// engine and a cold engine (cache disabled) make identical placement
// decisions — same candidate ranking, same costs, same resolved cores.
// This is the correctness contract of the cache: memoization plus
// incremental free-set signatures must be observationally equivalent to
// rescoring from scratch on every dispatch.
func TestEngineCachedEqualsColdProperty(t *testing.T) {
	reqPool := []*topo.Graph{
		topo.Mesh2D(2, 2),
		topo.Mesh2D(2, 3),
		topo.Mesh2D(3, 3),
		topo.Chain(3),
		topo.Chain(4),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cached, err := place.New([]place.Chip{simChip(), fpgaChip()})
		if err != nil {
			t.Log(err)
			return false
		}
		cold, err := place.New([]place.Chip{simChip(), fpgaChip()}, place.WithCacheSize(0))
		if err != nil {
			t.Log(err)
			return false
		}

		type livePlacement struct {
			chip  int
			nodes []topo.NodeID
		}
		var live []livePlacement
		for op := 0; op < 18; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				// Destroy a random live placement on both engines.
				i := rng.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := cached.Release(p.chip, p.nodes); err != nil {
					t.Logf("seed %d op %d: cached release: %v", seed, op, err)
					return false
				}
				if err := cold.Release(p.chip, p.nodes); err != nil {
					t.Logf("seed %d op %d: cold release: %v", seed, op, err)
					return false
				}
				continue
			}
			req := place.Request{Topology: reqPool[rng.Intn(len(reqPool))]}
			wantCands, wantErr := cold.Place(req)
			gotCands, gotErr := cached.Place(req)
			if (wantErr == nil) != (gotErr == nil) {
				t.Logf("seed %d op %d: errors diverge: cached %v, cold %v", seed, op, gotErr, wantErr)
				return false
			}
			if wantErr != nil && gotErr.Error() != wantErr.Error() {
				t.Logf("seed %d op %d: errors diverge: cached %v, cold %v", seed, op, gotErr, wantErr)
				return false
			}
			if wantErr != nil {
				continue
			}
			if len(gotCands) != len(wantCands) {
				t.Logf("seed %d op %d: %d candidates cached vs %d cold", seed, op, len(gotCands), len(wantCands))
				return false
			}
			for i := range wantCands {
				if gotCands[i] != wantCands[i] {
					t.Logf("seed %d op %d: candidate %d diverges: cached %+v, cold %+v",
						seed, op, i, gotCands[i], wantCands[i])
					return false
				}
			}
			// Claim the winner on both engines, so the free sets evolve
			// in lockstep: identical scores AND identical core
			// assignments (the mapper is deterministic).
			chip := wantCands[0].Chip
			wantRes, wantErr := cold.Claim(chip, req)
			gotRes, gotErr := cached.Claim(chip, req)
			if wantErr != nil || gotErr != nil {
				t.Logf("seed %d op %d: claim errors cached %v cold %v", seed, op, gotErr, wantErr)
				return false
			}
			if gotRes.Cost != wantRes.Cost {
				t.Logf("seed %d op %d: cached score %v != cold score %v", seed, op, gotRes.Cost, wantRes.Cost)
				return false
			}
			if len(gotRes.Nodes) != len(wantRes.Nodes) {
				t.Logf("seed %d op %d: node counts diverge", seed, op)
				return false
			}
			for i := range wantRes.Nodes {
				if gotRes.Nodes[i] != wantRes.Nodes[i] {
					t.Logf("seed %d op %d: node %d: cached %d, cold %d",
						seed, op, i, gotRes.Nodes[i], wantRes.Nodes[i])
					return false
				}
			}
			live = append(live, livePlacement{chip: chip, nodes: gotRes.Nodes})
		}
		// The cached engine must actually have cached something, or the
		// property degenerates into cold-vs-cold.
		if s := cached.Stats(); s.CacheHits+s.CacheMisses == 0 {
			t.Logf("seed %d: cached engine never consulted its cache", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
