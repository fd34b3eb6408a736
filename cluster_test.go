package vnpu

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustModel(t testing.TB, name string) Model {
	t.Helper()
	m, err := ModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterServesMixedJobs drives a small cluster end to end: jobs from
// several tenants land on chips, report progress, and release capacity.
func TestClusterServesMixedJobs(t *testing.T) {
	cluster, err := NewCluster(SimConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	jobs := []Job{
		{Tenant: "vision", Model: mustModel(t, "resnet18"), Topology: Mesh(3, 4)},
		{Tenant: "vision", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 3)},
		{Tenant: "llm", Model: mustModel(t, "gpt2-small"), Topology: Mesh(3, 4),
			Options: []Option{WithConfinement(true)}},
		{Tenant: "mobile", Model: mustModel(t, "mobilenet"), Topology: Chain(4), Iterations: 2},
	}
	handles := make([]*Handle, len(jobs))
	for i, job := range jobs {
		h, err := cluster.Submit(context.Background(), job)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.FPS <= 0 {
			t.Fatalf("job %d: no throughput in %+v", i, rep)
		}
		if rep.Chip < 0 || rep.Chip >= cluster.Chips() {
			t.Fatalf("job %d: bad chip %d", i, rep.Chip)
		}
		if rep.Tenant != jobs[i].tenant() {
			t.Fatalf("job %d: tenant %q, want %q", i, rep.Tenant, jobs[i].tenant())
		}
	}
	s := cluster.Stats()
	if s.Completed != uint64(len(jobs)) || s.Failed != 0 {
		t.Fatalf("stats %+v, want %d completed", s, len(jobs))
	}
	// All capacity returned.
	for i, u := range cluster.Utilization() {
		if u != 0 {
			t.Fatalf("chip %d still %.0f%% utilized after drain", i, u*100)
		}
	}
}

// holdCluster builds a 1-chip FPGA cluster whose executions block until
// the returned release func is called — a deterministic way to keep
// capacity occupied.
func holdCluster(t *testing.T, opts ...ClusterOption) (*Cluster, func()) {
	t.Helper()
	cluster, err := NewCluster(FPGAConfig(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	cluster.testExecHook = func(int) { <-gate }
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		cluster.Close()
	})
	return cluster, release
}

// fullChipJob occupies all 8 cores of an FPGA chip, so a second copy can
// never be placed concurrently.
func fullChipJob(t *testing.T, tenant string) Job {
	return Job{Tenant: tenant, Model: mustModel(t, "alexnet"), Topology: Mesh(2, 4)}
}

func TestClusterQueueFullRejection(t *testing.T) {
	cluster, release := holdCluster(t, WithQueueDepth(1))
	defer release()

	h1, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	// The chip is fully occupied: the next job parks in the dispatcher,
	// one more fits the queue, anything beyond must be rejected. A job
	// whose placement is not cached yet leaves the queue to wait on the
	// mapper, and until the mapper answers the dispatcher may pop the
	// next one too; so the full chip's answer is settled in the cache
	// first, and every later job parks on capacity.
	if _, err := cluster.engine.Place(placeRequest(fullChipJob(t, "a").request())); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("placing a second full-chip job: err = %v, want ErrNoCapacity", err)
	}
	var admitted []*Handle
	var rejected int
	for i := 0; i < 3; i++ {
		h, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
		switch {
		case err == nil:
			admitted = append(admitted, h)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no submission was rejected with ErrQueueFull")
	}
	if s := cluster.Stats(); s.RejectedQueueFull == 0 {
		t.Fatal("stats did not count queue-full rejections")
	}
	release()
	for i, h := range admitted {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("admitted job %d: %v", i, err)
		}
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCancelQueuedJob(t *testing.T) {
	cluster, release := holdCluster(t)
	defer release()

	h1, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	ctx, cancel := context.WithCancel(context.Background())
	h2, err := cluster.Submit(ctx, fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := h2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job: got %v, want context.Canceled", err)
	}
	release()
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClusterTenantQuota(t *testing.T) {
	cluster, release := holdCluster(t, WithTenantQuota(1))
	defer release()

	h1, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Submit(context.Background(), fullChipJob(t, "a")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("tenant a over quota: got %v, want ErrQuotaExceeded", err)
	}
	// A different tenant is unaffected by a's quota.
	hb, err := cluster.Submit(context.Background(), fullChipJob(t, "b"))
	if err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	release()
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The quota slot frees once the job completes.
	h3, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatalf("tenant a after drain: %v", err)
	}
	if _, err := h3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := cluster.Stats(); s.RejectedQuota == 0 {
		t.Fatal("stats did not count the quota rejection")
	}
}

// TestClusterUnsatisfiableJob: a topology larger than a whole chip can
// never be placed and is rejected at Submit, before it can head-of-line
// block the dispatcher.
func TestClusterUnsatisfiableJob(t *testing.T) {
	cluster, err := NewCluster(FPGAConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	_, err = cluster.Submit(context.Background(), Job{
		Model:    mustModel(t, "alexnet"),
		Topology: Mesh(3, 4), // 12 cores, chips have 8
	})
	if !errors.Is(err, ErrTopologyUnsatisfiable) {
		t.Fatalf("got %v, want ErrTopologyUnsatisfiable at Submit", err)
	}
}

// TestClusterMemoryBeyondChipRejectedAtSubmit: memory larger than a whole
// chip's HBM pool can never be allocated and is rejected at Submit.
func TestClusterMemoryBeyondChipRejectedAtSubmit(t *testing.T) {
	cluster, err := NewCluster(FPGAConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	hbm := uint64(FPGAConfig().HBMCapacityBytes)
	_, err = cluster.Submit(context.Background(), Job{
		Model:    mustModel(t, "alexnet"),
		Topology: Mesh(2, 2),
		Options:  []Option{WithMemory(2 * hbm)},
	})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded at Submit", err)
	}
}

// TestClusterTerminalDispatchFailure exercises the terminal dispatch
// path: a job that passes admission but cannot be placed on any chip of
// an idle cluster (an exact-topology request no chip can realize) fails
// with ErrTopologyUnsatisfiable instead of waiting forever.
func TestClusterTerminalDispatchFailure(t *testing.T) {
	cluster, err := NewCluster(FPGAConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// An 8-node chain on a fully-free 2x4 mesh maps onto the whole chip,
	// whose induced topology has extra edges — StrategyExact rejects it.
	h, err := cluster.Submit(context.Background(), Job{
		Model:    mustModel(t, "alexnet"),
		Topology: Chain(8),
		Options:  []Option{WithStrategy(StrategyExact)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrTopologyUnsatisfiable) {
		t.Fatalf("got %v, want ErrTopologyUnsatisfiable", err)
	}
}

func TestClusterSubmitAfterClose(t *testing.T) {
	cluster, err := NewCluster(FPGAConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Submit(context.Background(), fullChipJob(t, "a")); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("submit after close: got %v, want ErrDestroyed", err)
	}
}

// TestTypedErrorsOnSystem covers the sentinels on the single-chip path:
// every public error value must be errors.Is-matchable.
func TestTypedErrorsOnSystem(t *testing.T) {
	sys, err := NewSystem(SimConfig())
	if err != nil {
		t.Fatal(err)
	}

	// ErrNoCapacity: more cores than the chip has.
	if _, err := sys.Create(Request{Topology: Mesh(7, 7)}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized create: got %v, want ErrNoCapacity", err)
	}

	// ErrTopologyUnsatisfiable: a 36-node chain has no exact region on the
	// fully-free 6x6 mesh (the induced region is the whole mesh).
	if _, err := sys.Create(NewRequest(Chain(36), WithStrategy(StrategyExact))); !errors.Is(err, ErrTopologyUnsatisfiable) {
		t.Fatalf("exact chain: got %v, want ErrTopologyUnsatisfiable", err)
	}

	// ErrMemoryExceeded: a vNPU with no memory cannot hold a model.
	v, err := sys.Create(Request{Topology: Mesh(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunModel(v, mustModel(t, "alexnet"), 1); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("run without memory: got %v, want ErrMemoryExceeded", err)
	}

	// ErrDestroyed: double destroy.
	if err := sys.Destroy(v); err != nil {
		t.Fatal(err)
	}
	if err := sys.Destroy(v); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("double destroy: got %v, want ErrDestroyed", err)
	}
}

// TestClusterConcurrentSubmitters hammers a cluster from many goroutines
// (run with -race) to exercise dispatcher/worker/hypervisor concurrency.
func TestClusterConcurrentSubmitters(t *testing.T) {
	cluster, err := NewCluster(SimConfig(), 2, WithQueueDepth(256))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	model := mustModel(t, "alexnet")
	topos := []*Topology{Mesh(2, 2), Mesh(2, 3), Chain(3)}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				h, err := cluster.Submit(context.Background(), Job{
					Tenant:   []string{"a", "b", "c"}[g%3],
					Model:    model,
					Topology: topos[(g+i)%len(topos)],
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := h.Wait(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := cluster.Stats(); s.Completed != 32 {
		t.Fatalf("completed %d of 32", s.Completed)
	}
}

// TestClusterHeterogeneousPlacement boots a mixed DCRA/FPGA cluster and
// checks the cost-model routing: a small job both chips host exactly goes
// to the cheaper FPGA-scale chip, while a topology only the big chip can
// hold lands there.
func TestClusterHeterogeneousPlacement(t *testing.T) {
	cluster, err := NewCluster(Config{}, 0, WithChipProfiles(
		ChipSpec{Config: SimConfig()},
		ChipSpec{Config: FPGAConfig()},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Chips() != 2 {
		t.Fatalf("cluster has %d chips, want the 2 specs", cluster.Chips())
	}

	small, err := cluster.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := small.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chip != 1 {
		t.Fatalf("small job on chip %d, want cheap FPGA chip 1", rep.Chip)
	}
	if rep.MapCost != 0 {
		t.Fatalf("small job map cost %v on an idle chip, want 0", rep.MapCost)
	}

	big, err := cluster.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "resnet18"), Topology: Mesh(3, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = big.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep.Chip != 0 {
		t.Fatalf("12-core job on chip %d, want the only big chip 0", rep.Chip)
	}
}

// TestClusterProfileMemoryOverride: an operator-set ChipSpec profile
// memory bound is honored by the placement filter — jobs whose footprint
// exceeds it avoid that chip even though its hardware pool is larger.
func TestClusterProfileMemoryOverride(t *testing.T) {
	cluster, err := NewCluster(Config{}, 0, WithChipProfiles(
		ChipSpec{Config: SimConfig(), Profile: ChipProfile{MemoryBytes: 64 << 10}},
		ChipSpec{Config: SimConfig()},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// alexnet's footprint is far beyond 64 KiB, so only chip 1 qualifies.
	for i := 0; i < 2; i++ {
		h, err := cluster.Submit(context.Background(), Job{
			Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chip != 1 {
			t.Fatalf("job %d on chip %d, want chip 1 (chip 0's profile caps memory)", i, rep.Chip)
		}
	}

	// When EVERY profile's bound is below the footprint, the job must be
	// rejected at Submit — admitting it would head-of-line-block the FIFO
	// dispatcher on a placement no chip will ever accept.
	capped, err := NewCluster(Config{}, 0, WithChipProfiles(
		ChipSpec{Config: SimConfig(), Profile: ChipProfile{MemoryBytes: 64 << 10}},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	_, err = capped.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
	})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded at Submit (profile bound)", err)
	}

	// Joint satisfiability: one chip has the cores (but capped memory),
	// another has the memory (but too few cores). Independently both
	// maxima pass; no single chip fits, so Submit must reject rather than
	// park the dispatcher forever.
	split, err := NewCluster(Config{}, 0, WithChipProfiles(
		ChipSpec{Config: SimConfig(), Profile: ChipProfile{MemoryBytes: 64 << 10}},
		ChipSpec{Config: FPGAConfig()},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	_, err = split.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "resnet18"), Topology: Mesh(3, 4),
	})
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded for a jointly unsatisfiable job", err)
	}
}

// TestClusterPlacementCacheServesRepeatTraffic: repeated identical jobs
// are placed from the mapping cache, and the counters surface it.
func TestClusterPlacementCacheServesRepeatTraffic(t *testing.T) {
	cluster, err := NewCluster(SimConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	model := mustModel(t, "alexnet")
	for i := 0; i < 4; i++ {
		h, err := cluster.Submit(context.Background(), Job{
			Tenant: "a", Model: model, Topology: Mesh(2, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Serialize so every dispatch sees fully-free chips — the same
		// free-set signature every time.
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ps := cluster.PlacementStats()
	if ps.Placements < 4 {
		t.Fatalf("placements = %d, want >= 4", ps.Placements)
	}
	if ps.CacheHits == 0 {
		t.Fatalf("no cache hits across identical dispatches: %+v", ps)
	}
	if ps.HitRate() <= 0.5 {
		t.Fatalf("hit rate %.2f, want > 0.5 for repeat traffic: %+v", ps.HitRate(), ps)
	}
	// Cold clusters are available for comparison.
	cold, err := NewCluster(SimConfig(), 1, WithPlacementCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	h, err := cold.Submit(context.Background(), Job{Tenant: "a", Model: model, Topology: Mesh(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ps := cold.PlacementStats(); ps.CacheHits != 0 {
		t.Fatalf("cold cluster hit its cache: %+v", ps)
	}
}

// TestClusterCompilesModelOnce: admission compiles a given (model, core
// count) workload once and keeps the sized program; subsequent
// submissions — including the executions themselves — reuse the cached
// program (rebased to their vNPU's memory base) instead of recompiling.
func TestClusterCompilesModelOnce(t *testing.T) {
	cluster, err := NewCluster(SimConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	model := mustModel(t, "resnet18")
	var handles []*Handle
	for i := 0; i < 3; i++ {
		h, err := cluster.Submit(context.Background(), Job{
			Tenant: "a", Model: model, Topology: Mesh(2, 3),
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	cluster.progMu.Lock()
	entries := len(cluster.progs)
	cluster.progMu.Unlock()
	if entries != 1 {
		t.Fatalf("program cache holds %d entries after 3 identical submissions, want 1", entries)
	}
	// A different core count is a different program.
	h, err := cluster.Submit(context.Background(), Job{
		Tenant: "a", Model: model, Topology: Mesh(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, h)
	var reps []JobReport
	for i, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		reps = append(reps, rep)
	}
	cluster.progMu.Lock()
	entries = len(cluster.progs)
	cluster.progMu.Unlock()
	if entries != 2 {
		t.Fatalf("program cache holds %d entries after a second shape, want 2", entries)
	}
	// Execution did not add entries beyond sizing: the runs were served
	// from the admission-compiled programs, and the cached program is
	// cycle-identical run to run.
	if reps[0].Cycles != reps[1].Cycles || reps[1].Cycles != reps[2].Cycles {
		t.Fatalf("cached program changed cycles: %d / %d / %d",
			reps[0].Cycles, reps[1].Cycles, reps[2].Cycles)
	}
}

// TestHandleWaitTimeout checks that an expired wait context abandons the
// wait without killing the job.
func TestHandleWaitTimeout(t *testing.T) {
	cluster, release := holdCluster(t)

	h, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	release()
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatalf("job should have survived the abandoned wait: %v", err)
	}
}

// TestClusterPriorityResolution: PriorityDefault resolves to the cluster
// default, WithDefaultPriority overrides it, WithTenantPriorityCap
// clamps a tenant's class, and the resolved class is echoed in the
// JobReport.
func TestClusterPriorityResolution(t *testing.T) {
	cluster, err := NewCluster(FPGAConfig(), 1,
		WithTenantPriorityCap("batch", PriorityBestEffort))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	submitPrio := func(tenant string, p Priority) Priority {
		t.Helper()
		h, err := cluster.Submit(context.Background(), Job{
			Tenant: tenant, Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Priority: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Priority
	}
	if got := submitPrio("a", PriorityDefault); got != PriorityNormal {
		t.Fatalf("default resolved to %v, want PriorityNormal", got)
	}
	if got := submitPrio("a", PriorityCritical); got != PriorityCritical {
		t.Fatalf("explicit priority resolved to %v, want PriorityCritical", got)
	}
	if got := submitPrio("batch", PriorityCritical); got != PriorityBestEffort {
		t.Fatalf("capped tenant resolved to %v, want PriorityBestEffort", got)
	}

	hi, err := NewCluster(FPGAConfig(), 1, WithDefaultPriority(PriorityHigh))
	if err != nil {
		t.Fatal(err)
	}
	defer hi.Close()
	h, err := hi.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Priority != PriorityHigh {
		t.Fatalf("cluster default resolved to %v, want PriorityHigh", rep.Priority)
	}
	// Per-class accounting surfaced it.
	ss := hi.SchedStats()
	if cs := ss.Classes[PriorityHigh.class()]; cs.Completed != 1 {
		t.Fatalf("per-class stats: %+v", ss.Classes)
	}
}

// TestClusterDeadlineExceededTyped: a job whose Deadline passes before
// placement fails errors.Is-matchably on both serving paths, and a
// deadline already in the past is rejected at Submit.
func TestClusterDeadlineExceededTyped(t *testing.T) {
	cluster, release := holdCluster(t)
	defer release()

	past := Job{Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
		Deadline: time.Now().Add(-time.Second)}
	if _, err := cluster.Submit(context.Background(), past); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("past deadline at submit: got %v, want ErrDeadlineExceeded", err)
	}

	// Occupy the chip, then queue a job with a tight deadline: it must
	// fail fast with the typed error while the blocker keeps running.
	blocker, err := cluster.Submit(context.Background(), fullChipJob(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	h, err := cluster.Submit(context.Background(), Job{
		Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2),
		Deadline: time.Now().Add(25 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued past deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if got := cluster.SchedStats().DeadlineMisses(); got < 2 {
		t.Fatalf("deadline misses = %d, want >= 2", got)
	}
	release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
