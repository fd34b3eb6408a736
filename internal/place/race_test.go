package place_test

import (
	"errors"
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestEngineConcurrentChurn (run with -race) drives a cached engine the
// way the cluster does: a single placer goroutine ranks and claims
// placements while several releaser goroutines return finished ones
// concurrently, with readers hammering Stats and FreeCount. The invariant
// under churn: the cache can go stale on releases (free set grows) but a
// claim never hands out cores another live placement holds — Release
// fails loudly on a core that is already free, and the drain check at
// the end counts every core back.
func TestEngineConcurrentChurn(t *testing.T) {
	e, err := place.New([]place.Chip{simChip(), simChip(), fpgaChip()})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []place.Request{
		{Topology: topo.Mesh2D(2, 2)},
		{Topology: topo.Mesh2D(2, 3)},
		{Topology: topo.Chain(3)},
	}

	type livePlacement struct {
		chip  int
		nodes []topo.NodeID
	}
	const iterations = 300
	releaseCh := make(chan livePlacement, iterations)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// Releasers: return placements concurrently with placement decisions.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range releaseCh {
				if err := e.Release(p.chip, p.nodes); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Readers: snapshot stats during churn.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				_ = e.FreeCount(0)
			}
		}
	}()

	// The placer: the dispatcher role. It is the only goroutine that
	// claims, mirroring the cluster's single dispatch loop.
	live := 0
	for i := 0; i < iterations; i++ {
		req := reqs[i%len(reqs)]
		cands, err := e.Place(req)
		if err != nil {
			// Transient exhaustion while releases are in flight is the
			// backpressure path, not a failure; anything typed otherwise is.
			if errors.Is(err, core.ErrNoCapacity) || errors.Is(err, core.ErrTopologyUnsatisfiable) {
				continue
			}
			t.Fatalf("iteration %d: place: %v", i, err)
		}
		chip := cands[0].Chip
		res, err := e.Claim(chip, req)
		if err != nil {
			continue
		}
		live++
		releaseCh <- livePlacement{chip: chip, nodes: res.Nodes}
	}
	close(releaseCh)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent release failed: %v", err)
	}
	if live == 0 {
		t.Fatal("churn placed nothing")
	}
	// Every placement was released: all cores must be free again.
	for chip := 0; chip < e.Chips(); chip++ {
		want := map[int]int{0: 36, 1: 36, 2: 8}[chip]
		if got := e.FreeCount(chip); got != want {
			t.Fatalf("chip %d has %d free cores after drain, want %d", chip, got, want)
		}
	}
}
