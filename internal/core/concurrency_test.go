package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestHypervisorConcurrentChurn hammers one hypervisor with parallel
// CreateVNPU/Destroy churn plus read-side traffic. Run with -race: the
// serving layer creates vNPUs from its dispatcher goroutine while chip
// workers destroy finished ones, so the hypervisor must tolerate exactly
// this interleaving.
func TestHypervisorConcurrentChurn(t *testing.T) {
	dev, err := npu.NewDevice(npu.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	hv, err := NewHypervisor(dev)
	if err != nil {
		t.Fatal(err)
	}

	shapes := []*topo.Graph{
		topo.Mesh2D(2, 2),
		topo.Mesh2D(2, 3),
		topo.Chain(3),
		topo.Chain(5),
	}
	const (
		workers = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				req := Request{
					Topology:    shapes[rng.Intn(len(shapes))],
					Strategy:    StrategyFragment,
					MemoryBytes: uint64(1+rng.Intn(4)) << 20,
				}
				v, err := hv.CreateVNPU(req)
				if err != nil {
					// Capacity races with the other workers are expected —
					// anything else is a real failure.
					if errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrTopologyUnsatisfiable) {
						continue
					}
					errCh <- err
					return
				}
				_ = hv.Utilization()
				_ = hv.FreeCores()
				if err := hv.Destroy(v.ID()); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Read-side churn alongside the creators/destroyers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = hv.VNPUs()
				_ = hv.Utilization()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// After the churn everything must have been rolled back or destroyed.
	if got := freeCores(t, hv); got != dev.Config().Cores() {
		t.Fatalf("%d cores free after churn, want %d", got, dev.Config().Cores())
	}
	if u := hv.Utilization(); u != 0 {
		t.Fatalf("utilization %.2f after churn, want 0", u)
	}
}

// TestCreateRollbackOnFailure checks that a failed creation leaves no
// residue: cores, memory and meta state all return to baseline.
func TestCreateRollbackOnFailure(t *testing.T) {
	dev, err := npu.NewDevice(npu.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	hv, err := NewHypervisor(dev)
	if err != nil {
		t.Fatal(err)
	}
	free := freeCores(t, hv)

	// Memory larger than the HBM pool can never be satisfied — a budget
	// violation, not transient capacity pressure.
	_, err = hv.CreateVNPU(Request{
		Topology:    topo.Mesh2D(2, 2),
		MemoryBytes: uint64(dev.Config().HBMCapacityBytes) * 2,
	})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded", err)
	}
	if got := freeCores(t, hv); got != free {
		t.Fatalf("%d cores free after failed create, want %d", got, free)
	}

	// A KV buffer larger than the scratchpad fails after memory was
	// allocated; the blocks must return to the buddy pool.
	_, err = hv.CreateVNPU(Request{
		Topology:      topo.Mesh2D(2, 2),
		MemoryBytes:   1 << 20,
		KVBufferBytes: dev.Config().ScratchpadBytes,
	})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded", err)
	}
	if got := freeCores(t, hv); got != free {
		t.Fatalf("%d cores free after failed KV create, want %d", got, free)
	}
	// And a successful create must still work afterwards.
	v, err := hv.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
}
