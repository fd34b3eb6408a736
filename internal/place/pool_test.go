package place

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestEngineFixedPoolLifecycle: the mapper pool is WithWorkers resident
// goroutines from New to Close. With every worker pinned and the task
// queue full behind them, a burst of more distinct misses than the queue
// holds still lands in the cache on overflow goroutines, a blocking Place
// issued behind the full queue returns, and after Close the goroutine
// count is back where it was before New.
func TestEngineFixedPoolLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"workers=1", []Option{WithWorkers(1)}},
		{"default", nil},
		{"workers=8", []Option{WithWorkers(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e, err := New([]Chip{meshChip(6, 6)}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)

			// Pin every worker on the gate and fill the queue behind them.
			gate := make(chan struct{})
			var pinned atomic.Int32
			for int(pinned.Load()) < e.workers || len(e.tasks) < cap(e.tasks) {
				if time.Now().After(deadline) {
					t.Fatalf("pool never filled: %d of %d workers pinned, queue %d/%d", pinned.Load(), e.workers, len(e.tasks), cap(e.tasks))
				}
				if !e.trySubmit(func() { pinned.Add(1); <-gate }) {
					runtime.Gosched()
				}
			}

			// Distinct cache keys over one cheap topology: each request
			// differs only in its node insertion/deletion cost.
			req := func(i int) Request {
				return Request{Topology: topo.Chain(4), MapOptions: ged.Options{NodeInsDel: float64(i + 1)}}
			}
			burst := cap(e.tasks) + e.workers + 1
			edges := make([]<-chan struct{}, burst)
			for i := range edges {
				cands, pending, err := e.Rank(req(i))
				if pending == nil {
					t.Fatalf("Rank %d on a cold engine = %+v, %v; want a pending edge", i, cands, err)
				}
				edges[i] = pending
			}
			for i, ch := range edges {
				select {
				case <-ch:
				case <-time.After(time.Until(deadline)):
					t.Fatalf("miss %d of %d never landed behind the full queue", i, burst)
				}
			}
			for i := 0; i < burst; i++ {
				if cands := e.PlaceCached(req(i)); len(cands) != 1 {
					t.Fatalf("miss %d not served from the cache: %+v", i, cands)
				}
			}
			if got := e.Stats().CacheMisses; got != uint64(burst) {
				t.Fatalf("CacheMisses = %d, want %d (one mapper run per distinct miss)", got, burst)
			}

			placed := make(chan error, 1)
			go func() {
				_, err := e.Place(req(burst))
				placed <- err
			}()
			select {
			case err := <-placed:
				if err != nil {
					t.Fatalf("Place behind the full queue: %v", err)
				}
			case <-time.After(time.Until(deadline)):
				t.Fatal("Place behind the full queue never returned")
			}

			close(gate)
			e.Close()
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
