package vnpu

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// execBarrier returns a testExecHook that blocks every execution until n
// of them are in flight at once — deterministic proof that jobs overlap
// on the chip, not just in the queue.
func execBarrier(n int) func(int) {
	var mu sync.Mutex
	arrived := 0
	done := make(chan struct{})
	return func(int) {
		mu.Lock()
		arrived++
		ok := arrived == n
		mu.Unlock()
		if ok {
			close(done)
		}
		<-done
	}
}

// soloCycles runs one job alone on a fresh single-chip cluster and
// returns its simulated cycle count.
func soloCycles(t *testing.T, job Job, opts ...ClusterOption) int64 {
	t.Helper()
	c, err := NewCluster(SimConfig(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cycles
}

// TestOverlappedExecutionCycleIdentical is the timing-isolation property
// behind spatial concurrency: a vNPU executing overlapped with disjoint
// neighbors reports exactly the cycle count it reports alone on the
// chip. Each job runs in its own timing domain, so neighbors share no
// transient NoC or HBM calendar state. Covered for both execution
// paths; run it under -race to also exercise the memory-safety claim.
func TestOverlappedExecutionCycleIdentical(t *testing.T) {
	const overlap = 3
	job := Job{Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Iterations: 2}

	t.Run("dispatcher", func(t *testing.T) {
		want := soloCycles(t, job)
		c, err := NewCluster(SimConfig(), 1, WithChipSlots(overlap))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.testExecHook = execBarrier(overlap)
		handles := make([]*Handle, overlap)
		for i := range handles {
			j := job
			j.Tenant = fmt.Sprintf("t%d", i)
			h, err := c.Submit(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			rep, err := h.Wait(context.Background())
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if rep.Cycles != want {
				t.Errorf("job %d: %d cycles overlapped, want %d (solo)", i, rep.Cycles, want)
			}
		}
		if s := c.Stats(); s.ExecOverlapAvg <= 1 {
			t.Fatalf("barrier held %d jobs but ExecOverlapAvg = %v — executions did not overlap", overlap, s.ExecOverlapAvg)
		}
	})

	t.Run("session", func(t *testing.T) {
		reusable := job
		reusable.Reusable = true
		want := soloCycles(t, reusable, WithSessionReuse())
		c, err := NewCluster(SimConfig(), 1, WithSessionReuse())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.testExecHook = execBarrier(overlap)
		handles := make([]*Handle, overlap)
		for i := range handles {
			j := reusable
			j.Tenant = fmt.Sprintf("t%d", i)
			h, err := c.Submit(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			rep, err := h.Wait(context.Background())
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if rep.Cycles != want {
				t.Errorf("job %d: %d cycles overlapped, want %d (solo)", i, rep.Cycles, want)
			}
		}
		if s := c.Stats(); s.ExecOverlapAvg <= 1 {
			t.Fatalf("barrier held %d jobs but ExecOverlapAvg = %v — executions did not overlap", overlap, s.ExecOverlapAvg)
		}
	})
}

// checkDrained asserts what a closed cluster's accounting must show
// whatever traffic it served: every admitted job booked exactly one
// outcome, in total and per class, the scheduler core owns no unfinished
// work, and every core is back — free in the hypervisor and in the
// placement engine's free set, with no session left in the pool.
func checkDrained(t *testing.T, c *Cluster) {
	t.Helper()
	snap := c.Snapshot()
	if s := snap.Cluster; s.Submitted != s.Completed+s.Failed {
		t.Errorf("submitted %d != completed %d + failed %d", s.Submitted, s.Completed, s.Failed)
	}
	for i, cl := range snap.Sched.Classes {
		if cl.Submitted != cl.Completed+cl.Failed {
			t.Errorf("class %d: submitted %d != completed %d + failed %d", i, cl.Submitted, cl.Completed, cl.Failed)
		}
	}
	if n := c.disp.Pending(); n != 0 {
		t.Errorf("%d jobs still pending after Close", n)
	}
	for chip, sys := range c.systems {
		if free, cores := sys.FreeCores(), sys.Config().Cores(); free != cores {
			t.Errorf("chip %d: %d of %d cores free after Close", chip, free, cores)
		}
		if free, cores := c.engine.FreeCount(chip), sys.Config().Cores(); free != cores {
			t.Errorf("chip %d: engine books %d of %d cores free after Close", chip, free, cores)
		}
	}
	if c.pool != nil {
		if idle, busy := c.pool.Counts(); idle != 0 || busy != 0 {
			t.Errorf("pool still holds %d idle and %d busy sessions after Close", idle, busy)
		}
	}
}

// TestConcurrentChurnBothPaths hammers both execution paths with enough
// in-flight jobs to keep 3+ vNPUs executing per chip, mixing one-shot
// and session traffic — the -race workout for the timing-domain
// machinery (private calendars, region claims, occupancy accounting,
// domain open/close across session churn).
func TestConcurrentChurnBothPaths(t *testing.T) {
	c, err := NewCluster(SimConfig(), 2, WithSessionReuse(), WithChipSlots(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const jobs = 48
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		job := Job{
			Tenant:   fmt.Sprintf("t%d", i%6),
			Model:    mustModel(t, "alexnet"),
			Topology: Mesh(2, 2),
			Reusable: i%2 == 0,
		}
		if i%3 == 0 {
			job.Topology = Chain(4)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := c.Submit(context.Background(), job)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = h.Wait(context.Background())
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.Completed != jobs || s.Failed != 0 {
		t.Fatalf("stats %+v, want %d completed", s, jobs)
	}
	// The occupancy integral must stay a true occupancy: overlapped
	// executions may not push any chip's busy time past elapsed time.
	for i, busy := range s.ChipBusy {
		if busy > wall {
			t.Fatalf("chip %d: busy %v exceeds wall %v — occupancy integral double-counts", i, busy, wall)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	checkDrained(t, c)
}

// TestRegionClaimsSerializeOverlap pins the safety net: claims over
// intersecting core sets execute one at a time, while disjoint claims
// pass straight through.
func TestRegionClaimsSerializeOverlap(t *testing.T) {
	r := newChipRegions()
	first := r.acquire([]topo.NodeID{0, 1})
	disjoint := make(chan struct{})
	go func() {
		r.release(r.acquire([]topo.NodeID{2, 3}))
		close(disjoint)
	}()
	select {
	case <-disjoint:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint claim blocked behind an unrelated region")
	}

	acquired := make(chan struct{})
	go func() {
		r.release(r.acquire([]topo.NodeID{1, 2}))
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("intersecting claim acquired while the region was held")
	case <-time.After(50 * time.Millisecond):
	}
	r.release(first)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("intersecting claim never acquired after release")
	}
}

// TestConcurrentColdSessionCreatesDoNotPark fires cold creates of one
// shape at a chip with room for all of them. Each must get its own
// region: before createPlaced serialized resolve→create→reserve per chip,
// two of them drew the same cached mapping, the loser's stale-placement
// ErrNoCapacity read as exhaustion, and its job parked until some other
// job finished — here, behind the hook, forever.
func TestConcurrentColdSessionCreatesDoNotPark(t *testing.T) {
	const n = 6 // 6 x 4 of the chip's 36 cores
	c, err := NewCluster(SimConfig(), 1, WithSessionReuse())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	c.testExecHook = func(int) {
		arrived <- struct{}{}
		<-release
	}
	handles := make([]*Handle, n)
	var wg sync.WaitGroup
	for i := range handles {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := c.Submit(context.Background(), Job{
				Tenant:   fmt.Sprintf("t%d", i),
				Model:    mustModel(t, "alexnet"),
				Topology: Mesh(2, 2),
				Reusable: true,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			handles[i] = h
		}()
	}
	wg.Wait()
	if t.Failed() {
		close(release)
		return
	}
	// All n executing at once is the proof that none parked: a parked
	// job waits for a finish, and nothing finishes before release.
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			close(release)
			t.Fatalf("%d of %d cold creates reached execution; the rest parked with %d cores free",
				i, n, c.systems[0].FreeCores())
		}
	}
	close(release)
	for i, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}
