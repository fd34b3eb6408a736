package topo_test

import (
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestGraphViewConcurrentReaders shares one request topology across
// goroutines the way the serving stack does, each reading the signature,
// the cache key and an edit distance from a cold graph: the lazily built
// view must be race-free (run under -race) and every reader must see the
// same values.
func TestGraphViewConcurrentReaders(t *testing.T) {
	want := topo.NearMesh(7)
	wantSig, wantKey := topo.Signature(want, 0), place.CanonicalKey(want)
	region := topo.Mesh2D(3, 3).Induced([]topo.NodeID{0, 1, 2, 3, 4, 5, 6})
	wantCost, _ := ged.Exact(want, region, ged.Options{})

	for round := 0; round < 20; round++ {
		req := topo.NearMesh(7) // cold: no view yet
		reg := topo.Mesh2D(3, 3).Induced([]topo.NodeID{0, 1, 2, 3, 4, 5, 6})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Stagger which read builds the view.
				for j := 0; j < 3; j++ {
					switch (i + j) % 3 {
					case 0:
						if got := topo.Signature(req, 0); got != wantSig {
							t.Errorf("Signature = %q, want %q", got, wantSig)
						}
					case 1:
						if got := place.CanonicalKey(req); got != wantKey {
							t.Errorf("CanonicalKey = %q, want %q", got, wantKey)
						}
					default:
						if got, _ := ged.Exact(req, reg, ged.Options{}); got != wantCost {
							t.Errorf("Exact = %v, want %v", got, wantCost)
						}
					}
				}
			}(i)
		}
		wg.Wait()
	}
}
