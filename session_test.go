package vnpu

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newReuseCluster boots a small cluster with the session pool on and a
// long TTL so tests control eviction themselves.
func newReuseCluster(t *testing.T, cfg Config, chips int, extra ...ClusterOption) *Cluster {
	t.Helper()
	opts := append([]ClusterOption{
		WithSessionReuse(),
		WithSessionIdleTTL(time.Hour),
	}, extra...)
	c, err := NewCluster(cfg, chips, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submitWait(t *testing.T, c *Cluster, job Job) JobReport {
	t.Helper()
	h, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSessionWarmReuse(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	defer c.Close()

	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}
	first := submitWait(t, c, job)
	if first.Warm {
		t.Fatal("first job cannot be warm")
	}
	second := submitWait(t, c, job)
	if !second.Warm {
		t.Fatal("second identical job must reuse the resident session")
	}
	if first.Cycles != second.Cycles {
		t.Fatalf("warm run changed cycles: %d vs %d", first.Cycles, second.Cycles)
	}
	s := c.SessionStats()
	if s.ColdCreates != 1 || s.WarmHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestSessionAutoPromotion(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	defer c.Close()

	// Not marked Reusable: the first submission takes the dispatcher
	// path, the repeated fingerprint promotes the second to the pool
	// (cold) and the third is warm.
	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2)}
	submitWait(t, c, job)
	if s := c.SessionStats(); s.Jobs() != 0 {
		t.Fatalf("first submission must not touch the pool: %+v", s)
	}
	submitWait(t, c, job)
	if s := c.SessionStats(); s.ColdCreates != 1 {
		t.Fatalf("second submission must be promoted: %+v", s)
	}
	rep := submitWait(t, c, job)
	if !rep.Warm {
		t.Fatal("third submission must be warm")
	}
}

func TestSessionEvictionUnderCapacityPressure(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	defer c.Close()

	// A reusable job occupies the whole 8-core chip, then idles warm.
	big := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Reusable: true}
	submitWait(t, c, big)
	usage := c.CoreUsage()[0]
	if usage.WarmIdle != 8 || usage.Active() != 0 {
		t.Fatalf("usage after warm idle: %+v", usage)
	}
	if c.Utilization()[0] != 1 {
		t.Fatal("warm cores must still count as allocated")
	}

	// A non-reusable job needs cores the warm session holds: placement
	// must reclaim the idle session instead of failing ErrNoCapacity.
	small := Job{Tenant: "u", Model: mustModel(t, "mobilenet"), Topology: Chain(3)}
	rep := submitWait(t, c, small)
	if rep.Warm {
		t.Fatal("dispatcher job cannot be warm")
	}
	s := c.SessionStats()
	if s.EvictedPressure < 1 {
		t.Fatalf("want a pressure eviction, got %+v", s)
	}
}

func TestSessionPoolPressureBetweenKeys(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	defer c.Close()

	// Session A holds the whole chip warm; a cold create for session B
	// must evict it.
	a := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Reusable: true}
	submitWait(t, c, a)
	b := Job{Tenant: "t", Model: mustModel(t, "googlenet"), Topology: Mesh(2, 4), Reusable: true}
	submitWait(t, c, b)
	s := c.SessionStats()
	if s.ColdCreates != 2 || s.EvictedPressure < 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSessionContinuousBatching(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}
	h1, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started() // session is busy (holder gated on the chip)
	h2, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// h2 must have attached to h1's session: release the gate for both.
	gate <- struct{}{}
	gate <- struct{}{}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Warm {
		t.Fatal("micro-queued job must report warm")
	}
	s := c.SessionStats()
	if s.Batched != 1 || s.ColdCreates != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.WarmHits != 0 {
		t.Fatalf("batched job must not double-count as warm hit: %+v", s)
	}
}

func TestSessionCancelMicroQueuedJob(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}
	h1, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	ctx, cancel := context.WithCancel(context.Background())
	h2, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // canceled while waiting in the micro-queue
	gate <- struct{}{}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The canceled job must not have held the session: it is idle again.
	s := c.SessionStats()
	if s.BusySessions != 0 || s.IdleSessions != 1 {
		t.Fatalf("session not freed: %+v", s)
	}
}

func TestSessionCancelMidRunFreesChip(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Iterations: 64, Reusable: true}
	h, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	<-h.Started()
	cancel()    // canceled while gated on the chip, before the run loop
	close(gate) // let execution proceed into the simulator
	rep, err := h.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (rep %+v)", err, rep)
	}
	// A fresh submission still works: the chip was freed.
	c.testExecHook = nil
	submitWait(t, c, Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true})
}

// TestSessionPooledMatchesNonPooled is the equivalence property: the
// same job reaches the same outcome with and without session reuse —
// resident vNPUs and cached compiled programs are a serving optimization,
// not a semantic change. A sequential job sequence produces identical
// simulated cycle counts, and a job that cannot run — canceled, or past
// its deadline, before execution — fails with the same typed error, is
// booked the same way and leaves cores and quota as it found them.
func TestSessionPooledMatchesNonPooled(t *testing.T) {
	type step struct {
		model string
		topo  *Topology
	}
	steps := []step{
		{"alexnet", Mesh(2, 2)},
		{"resnet18", Mesh(2, 3)},
		{"alexnet", Mesh(2, 2)},
		{"mobilenet", Chain(4)},
		{"alexnet", Mesh(2, 2)},
		{"resnet18", Mesh(2, 3)},
		{"mobilenet", Chain(4)},
	}
	run := func(reuse bool) []int64 {
		var opts []ClusterOption
		if reuse {
			opts = append(opts, WithSessionReuse(), WithSessionIdleTTL(time.Hour))
		}
		c, err := NewCluster(SimConfig(), 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var cycles []int64
		for _, st := range steps {
			rep := submitWait(t, c, Job{
				Tenant:   "t",
				Model:    mustModel(t, st.model),
				Topology: st.topo,
				Reusable: true,
			})
			cycles = append(cycles, rep.Cycles)
		}
		return cycles
	}
	pooled := run(true)
	plain := run(false)
	for i := range steps {
		if pooled[i] != plain[i] {
			t.Fatalf("step %d (%s): pooled %d cycles, non-pooled %d",
				i, steps[i].model, pooled[i], plain[i])
		}
	}

	// The rows below hold the whole chip with a blocker gated on the exec
	// hook, submit a victim, make it unrunnable while the chip is still
	// held, free the chip, and compare the two paths.
	type outcome struct {
		err            error
		failed, misses uint64
	}
	cannotRun := func(reuse, deadline bool) outcome {
		clk := NewVirtualClock(time.Unix(0, 0))
		opts := []ClusterOption{WithTenantQuota(1), WithClock(clk)}
		if reuse {
			opts = append(opts, WithSessionReuse(), WithSessionIdleTTL(time.Hour))
		}
		c, release := holdCluster(t, opts...)
		var runs atomic.Int32
		hold := c.testExecHook
		c.testExecHook = func(chip int) {
			runs.Add(1)
			hold(chip)
		}
		job := Job{Tenant: "blocker", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Reusable: true}
		blocker, err := c.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		<-blocker.Started()
		job.Tenant = "victim"
		victim := job
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if deadline {
			victim.Deadline = clk.Now().Add(time.Second)
		}
		h, err := c.Submit(ctx, victim)
		if err != nil {
			t.Fatal(err)
		}
		if deadline {
			clk.Advance(2 * time.Second)
		} else {
			cancel()
		}
		release()
		_, werr := h.Wait(context.Background())
		if _, err := blocker.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Its quota slot is back: the tenant's quota of one admits again.
		again, err := c.Submit(context.Background(), job)
		if err != nil {
			t.Fatalf("reuse=%v: quota slot not returned: %v", reuse, err)
		}
		if _, err := again.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := runs.Load(); n != 2 {
			t.Errorf("reuse=%v: %d runs started, want the blocker's and the resubmission's", reuse, n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if free := c.systems[0].FreeCores(); free != c.systems[0].Config().Cores() {
			t.Errorf("reuse=%v: %d cores free after Close, want all", reuse, free)
		}
		return outcome{werr, c.Stats().Failed, c.SchedStats().DeadlineMisses()}
	}
	for _, row := range []struct {
		name     string
		deadline bool
		want     error
		misses   uint64
	}{
		{"canceled before execution", false, context.Canceled, 0},
		{"deadline before execution", true, ErrDeadlineExceeded, 1},
	} {
		for _, reuse := range []bool{true, false} {
			got := cannotRun(reuse, row.deadline)
			if !errors.Is(got.err, row.want) {
				t.Errorf("%s, reuse=%v: got %v, want %v", row.name, reuse, got.err, row.want)
			}
			if got.failed != 1 || got.misses != row.misses {
				t.Errorf("%s, reuse=%v: %d failed and %d deadline misses, want 1 and %d",
					row.name, reuse, got.failed, got.misses, row.misses)
			}
		}
	}
}

// TestStatsBookedBeforeHandleResolves: a caller returning from Wait finds
// its job already counted, in the cluster totals and in its class — the
// completion books the outcome before it resolves the handle, on both
// serving paths.
func TestStatsBookedBeforeHandleResolves(t *testing.T) {
	for _, row := range []struct {
		name     string
		reusable bool
	}{{"one-shot", false}, {"session-warm", true}} {
		t.Run(row.name, func(t *testing.T) {
			c := tracedCluster(t, WithTimingBackend(FastTimingBackend(0)))
			job := decodeJob()
			job.Reusable = row.reusable
			class := PriorityNormal.class()
			for i := uint64(1); i <= 200; i++ {
				if !row.reusable {
					// A repeated fingerprint would auto-promote onto the
					// session path.
					job.Tenant = fmt.Sprintf("t%d", i)
				}
				submitWait(t, c, job)
				if got := c.Stats().Completed; got != i {
					t.Fatalf("job %d: Wait returned with Stats().Completed = %d", i, got)
				}
				if got := c.SchedStats().Classes[class].Completed; got != i {
					t.Fatalf("job %d: Wait returned with class Completed = %d", i, got)
				}
			}
		})
	}
}

// TestSessionChurnRace drives mixed reusable traffic from many tenants
// at a small cluster under capacity pressure; run with -race. It checks
// the serving invariants, not timing: every job resolves, and the pool
// drains cleanly on Close.
func TestSessionChurnRace(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 2,
		WithSessionMaxIdle(3), WithQueueDepth(256))
	models := []string{"alexnet", "mobilenet", "resnet18"}
	topos := []*Topology{Mesh(2, 2), Chain(3), Mesh(2, 3)}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % len(models)
				job := Job{
					Tenant:   fmt.Sprintf("tenant-%d", g%3),
					Model:    mustModel(t, models[k]),
					Topology: topos[k],
					Reusable: i%2 == 0,
				}
				h, err := c.Submit(context.Background(), job)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						errs <- err
					}
					continue
				}
				if _, err := h.Wait(context.Background()); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s := c.SessionStats()
	if s.BusySessions != 0 || s.IdleSessions != 0 {
		t.Fatalf("sessions survived Close: %+v", s)
	}
	checkDrained(t, c)
}

// TestDispatcherReclaimsIdleSessionMemory exercises the Reclaim hook:
// an idle warm session holds most of the chip's HBM (but not its cores),
// so ranking accepts the chip and the failure only appears at create
// time, in the buddy allocator. The dispatcher must evict the idle
// session and retry instead of failing the job terminally.
func TestDispatcherReclaimsIdleSessionMemory(t *testing.T) {
	cfg := FPGAConfig()
	pool := uint64(1) << (63 - bits.LeadingZeros64(uint64(cfg.HBMCapacityBytes)))
	mem := pool/2 + pool/4 // 3/4 of the buddy pool: two such vNPUs cannot coexist
	c := newReuseCluster(t, cfg, 1)
	defer c.Close()

	m := mustModel(t, "alexnet")
	warm := Job{Tenant: "t", Model: m, Topology: Mesh(2, 2), Reusable: true,
		Options: []Option{WithMemory(mem)}}
	submitWait(t, c, warm)

	// 4 of 8 cores are free, so placement ranks the chip fine; only the
	// buddy allocator can reject this one.
	oneShot := Job{Tenant: "u", Model: m, Topology: Mesh(2, 2),
		Options: []Option{WithMemory(mem)}}
	submitWait(t, c, oneShot)
	if s := c.SessionStats(); s.EvictedPressure < 1 {
		t.Fatalf("want a pressure eviction for held memory, got %+v", s)
	}
}

func TestSessionQuotaSharedWithDispatcher(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1, WithTenantQuota(1))
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	// One reusable job holds tenant t's single quota slot on the session
	// path...
	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}
	h, err := c.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// ...so both paths must reject further t jobs: quota is one shared
	// counter, not per-path.
	if _, err := c.Submit(context.Background(), job); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("session path: want ErrQuotaExceeded, got %v", err)
	}
	oneShot := Job{Tenant: "t", Model: mustModel(t, "mobilenet"), Topology: Chain(3)}
	if _, err := c.Submit(context.Background(), oneShot); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("dispatcher path: want ErrQuotaExceeded, got %v", err)
	}
	// Another tenant is unaffected.
	if _, err := c.Submit(context.Background(), Job{Tenant: "u", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}); err != nil {
		t.Fatalf("tenant u: %v", err)
	}
	close(gate)
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The finished job's slot frees: t can submit again.
	if _, err := c.Submit(context.Background(), job); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestSessionTTLExpiryReturnsCapacity(t *testing.T) {
	c, err := NewCluster(FPGAConfig(), 1,
		WithSessionReuse(), WithSessionIdleTTL(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true}
	submitWait(t, c, job)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := c.SessionStats(); s.EvictedTTL >= 1 && s.IdleSessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TTL eviction never happened: %+v", c.SessionStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Utilization()[0]; got != 0 {
		t.Fatalf("cores not returned after TTL eviction: %v", got)
	}
}

// TestSessionCannotPassOlderQueuedDispatcherJob is the admission-order
// fairness property: a session-eligible job may no longer overtake an
// older queued dispatcher job of equal priority — not even by batching
// onto its busy resident session. The scheduler core holds it in
// WaitTurn until the older job has been placed.
func TestSessionCannotPassOlderQueuedDispatcherJob(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	// R occupies the whole chip on the session path and blocks on the
	// exec hook.
	rJob := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Reusable: true}
	hR, err := c.Submit(context.Background(), rJob)
	if err != nil {
		t.Fatal(err)
	}
	<-hR.Started()

	// D is an older one-shot job that cannot place while R holds the
	// chip: it parks in the dispatcher.
	hD, err := c.Submit(context.Background(), Job{Tenant: "u", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4)})
	if err != nil {
		t.Fatal(err)
	}

	// W is a newer session job of R's class. Pre-fairness it would attach
	// to R's micro-queue and run before D; now it must wait its turn.
	hW, err := c.Submit(context.Background(), rJob)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if s := c.SessionStats(); s.Batched != 0 {
		t.Fatalf("session job batched past the queued dispatcher job: %+v", s)
	}

	// Release R: D must reclaim the idle session and take the chip; W
	// stays unstarted until D is done.
	gate <- struct{}{}
	select {
	case <-hD.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("queued dispatcher job never placed after the session went idle")
	}
	select {
	case <-hW.Started():
		t.Fatal("session job started before the older dispatcher job finished")
	case <-time.After(30 * time.Millisecond):
	}
	gate <- struct{}{} // release D
	if _, err := hD.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // release W (cold create after D freed the chip)
	repW, err := hW.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repW.Warm {
		t.Fatal("W cannot be warm: fairness forced it behind D, whose reclaim evicted R's session")
	}
	if _, err := hR.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := c.SessionStats(); s.Batched != 0 {
		t.Fatalf("batching slipped past admission order: %+v", s)
	}
}

// TestSessionHigherClassPassesQueuedLowerClass: priority classes are the
// sanctioned overtaking lane — a high-priority session job batches onto
// a busy session ahead of queued best-effort one-shot work.
func TestSessionHigherClassPassesQueuedLowerClass(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	gate := make(chan struct{})
	c.testExecHook = func(int) { <-gate }
	defer c.Close()

	rJob := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Reusable: true, Priority: PriorityHigh}
	hR, err := c.Submit(context.Background(), rJob)
	if err != nil {
		t.Fatal(err)
	}
	<-hR.Started()
	hD, err := c.Submit(context.Background(), Job{
		Tenant: "u", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4), Priority: PriorityBestEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	hW, err := c.Submit(context.Background(), rJob)
	if err != nil {
		t.Fatal(err)
	}
	// W (high) passes D (best-effort): it attaches to R's busy session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := c.SessionStats(); s.Batched == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("high-class session job did not batch past best-effort queued work: %+v", c.SessionStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	gate <- struct{}{} // R finishes; its holder runs W next
	gate <- struct{}{} // W finishes
	repW, err := hW.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !repW.Warm {
		t.Fatal("batched high-class job must report warm")
	}
	gate <- struct{}{} // D finally runs
	if _, err := hD.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := hR.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionEvictionPrefersLowPriorityCluster: under capacity pressure
// the cluster evicts the low-priority warm session and keeps the
// high-priority one, even when the high one is least recently used.
func TestSessionEvictionPrefersLowPriorityCluster(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 1)
	defer c.Close()

	// High-class session first: pure LRU would make it the victim.
	high := Job{Tenant: "t", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true, Priority: PriorityHigh}
	submitWait(t, c, high)
	low := Job{Tenant: "t", Model: mustModel(t, "googlenet"), Topology: Mesh(2, 2), Reusable: true, Priority: PriorityBestEffort}
	submitWait(t, c, low)

	// 8 cores all warm-held; a 3-core one-shot needs one eviction.
	oneShot := Job{Tenant: "u", Model: mustModel(t, "mobilenet"), Topology: Chain(3)}
	submitWait(t, c, oneShot)
	if s := c.SessionStats(); s.EvictedPressure < 1 {
		t.Fatalf("want a pressure eviction, got %+v", s)
	}
	// The high-priority session survived and serves warm.
	rep := submitWait(t, c, high)
	if !rep.Warm {
		t.Fatal("eviction took the high-priority session instead of the best-effort one")
	}
}

// TestPriorityChurnRace mixes priorities, deadlines and reusability
// across both serving paths from many goroutines; run with -race. It
// checks serving invariants: every job resolves (success, queue-full or
// a deadline miss), and the pool drains on Close.
func TestPriorityChurnRace(t *testing.T) {
	c := newReuseCluster(t, FPGAConfig(), 2,
		WithSessionMaxIdle(3), WithQueueDepth(256), WithAgingRounds(4))
	models := []string{"alexnet", "mobilenet", "resnet18"}
	topos := []*Topology{Mesh(2, 2), Chain(3), Mesh(2, 3)}
	prios := []Priority{PriorityBestEffort, PriorityNormal, PriorityHigh, PriorityCritical}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % len(models)
				job := Job{
					Tenant:   fmt.Sprintf("tenant-%d", g%3),
					Model:    mustModel(t, models[k]),
					Topology: topos[k],
					Reusable: i%2 == 0,
					Priority: prios[(g+i)%len(prios)],
				}
				if i%3 == 0 {
					job.Deadline = time.Now().Add(30 * time.Second)
				}
				h, err := c.Submit(context.Background(), job)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						errs <- err
					}
					continue
				}
				if _, err := h.Wait(context.Background()); err != nil &&
					!errors.Is(err, ErrDeadlineExceeded) {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s := c.SessionStats(); s.BusySessions != 0 || s.IdleSessions != 0 {
		t.Fatalf("sessions survived Close: %+v", s)
	}
	// Per-class accounting covered both paths: everything submitted was
	// accounted completed or failed.
	ss := c.SchedStats()
	var sub, done uint64
	for _, cs := range ss.Classes {
		sub += cs.Submitted
		done += cs.Completed + cs.Failed
	}
	if sub == 0 || sub != done {
		t.Fatalf("per-class accounting leaked: submitted %d, resolved %d (%+v)", sub, done, ss.Classes)
	}
}

// TestSessionColdCreateConsolidates pins the cold create's chip tiebreak.
// Two FPGA chips rank equal for a 2x2 session (edit distance 0, same
// price) and chip 1 already holds a resident session. A cold create of a
// higher class lands on chip 1 — residency it may cannibalize under
// pressure — leaving chip 0 whole; a resident of a higher class than the
// creating job attracts nothing, and the engine's chip order decides.
func TestSessionColdCreateConsolidates(t *testing.T) {
	for _, tc := range []struct {
		name              string
		resident, creator Priority
		wantChip          int
	}{
		{"lower-class resident attracts", PriorityBestEffort, PriorityHigh, 1},
		{"higher-class resident does not", PriorityHigh, PriorityBestEffort, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newReuseCluster(t, FPGAConfig(), 2)
			defer c.Close()
			gate := make(chan struct{})
			c.testExecHook = func(chip int) {
				if chip == 0 {
					<-gate
				}
			}
			// A whole-chip one-shot held on chip 0 sends the resident to chip 1.
			filler, err := c.Submit(context.Background(), fullChipJob(t, "filler"))
			if err != nil {
				t.Fatal(err)
			}
			<-filler.Started()
			resident := Job{Tenant: "r", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true, Priority: tc.resident}
			if rep := submitWait(t, c, resident); rep.Chip != 1 {
				t.Fatalf("resident session landed on chip %d, want 1 (chip 0 is full)", rep.Chip)
			}
			close(gate)
			if _, err := filler.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			creator := Job{Tenant: "c", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Reusable: true, Priority: tc.creator}
			if rep := submitWait(t, c, creator); rep.Chip != tc.wantChip || rep.Warm {
				t.Fatalf("cold create landed on chip %d (warm=%v), want a cold create on chip %d", rep.Chip, rep.Warm, tc.wantChip)
			}
		})
	}
}
