package vnpu

import (
	"context"
	"fmt"
	"testing"
)

// timingMixJobs is a job mix with repeats (memo hits), distinct
// topologies and iteration counts (distinct memo keys), exercising the
// dimensions of the memo key from the serving layer.
func timingMixJobs(t *testing.T) []Job {
	t.Helper()
	return []Job{
		{Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2)},
		{Tenant: "b", Model: mustModel(t, "alexnet"), Topology: Chain(4)},
		{Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2)},
		{Tenant: "c", Model: mustModel(t, "resnet18"), Topology: Mesh(3, 4)},
		{Tenant: "a", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Iterations: 3},
		{Tenant: "b", Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2)},
	}
}

// sequentialReports runs the jobs one at a time on a fresh single-chip
// cluster and returns their reports, so each run's placement — and with
// it the memo's geometry key — is deterministic.
func sequentialReports(t *testing.T, jobs []Job, opts ...ClusterOption) ([]JobReport, TimingStats) {
	t.Helper()
	c, err := NewCluster(SimConfig(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reports := make([]JobReport, len(jobs))
	for i, job := range jobs {
		h, err := c.Submit(context.Background(), job)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if reports[i], err = h.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	return reports, c.TimingStats()
}

// TestFastBackendCycleIdenticalBothPaths is the ISSUE's headline
// property: with the fast (memoizing) timing backend the serving stack
// reports byte-identical timing outcomes to the analytic reference —
// every Report field, not just the makespan — on both execution paths.
// The session path must additionally serve repeats from the memo
// (hits > 0, proving replay identity rather than replay absence): warm
// jobs reuse the resident vNPU, whose fingerprint repeats. Dispatcher
// churn re-creates vNPUs, whose guest VA layout is per-vNPU, so its
// runs record without hitting — the identity property is what matters
// there, and every run must still be memoable (domains open, nothing
// bypassed).
func TestFastBackendCycleIdenticalBothPaths(t *testing.T) {
	check := func(t *testing.T, jobs []Job, wantHits bool, opts ...ClusterOption) {
		want, base := sequentialReports(t, jobs, opts...)
		if base.Backend != "analytic" || base.Hits != 0 {
			t.Fatalf("baseline timing stats = %+v, want pristine analytic", base)
		}
		got, fast := sequentialReports(t, jobs, append(opts, WithTimingBackend(FastTimingBackend(0)))...)
		if fast.Backend != "fast" {
			t.Fatalf("fast stats backend = %q", fast.Backend)
		}
		if fast.Bypassed != 0 || fast.Hits+fast.Misses != uint64(len(jobs)) {
			t.Fatalf("stats %+v: every run must flow through the memo as memoable", fast)
		}
		if wantHits && fast.Hits == 0 {
			t.Fatalf("no memo hits over warm repeats (stats %+v) — replay was not exercised", fast)
		}
		for i := range want {
			if got[i].Report != want[i].Report {
				t.Errorf("job %d (%s on %d cores, iters %d): fast report %+v, analytic %+v",
					i, jobs[i].Model.Name, jobs[i].Topology.NumNodes(), jobs[i].Iterations,
					got[i].Report, want[i].Report)
			}
		}
	}

	t.Run("dispatcher", func(t *testing.T) { check(t, timingMixJobs(t), false) })
	t.Run("session", func(t *testing.T) {
		jobs := timingMixJobs(t)
		for i := range jobs {
			jobs[i].Reusable = true
		}
		check(t, jobs, true, WithSessionReuse())
	})
}

// TestFastBackendOverlappedCycleIdentical extends the spatial-
// concurrency cycle-identity property to the fast backend: overlapped
// executions through the memo report exactly the solo analytic cycle
// count. The second session wave reuses the resident vNPUs, so its runs
// are guaranteed memo hits replayed while neighbors execute.
func TestFastBackendOverlappedCycleIdentical(t *testing.T) {
	const overlap = 3
	job := Job{Model: mustModel(t, "alexnet"), Topology: Mesh(2, 2), Iterations: 2, Reusable: true}
	want := soloCycles(t, job, WithSessionReuse())

	c, err := NewCluster(SimConfig(), 1, WithSessionReuse(), WithTimingBackend(FastTimingBackend(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.testExecHook = execBarrier(overlap)
	wave := func(round int) {
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
				t.Fatalf("round %d job %d: %v", round, i, err)
			}
			if rep.Cycles != want {
				t.Errorf("round %d job %d: %d cycles, want %d (solo analytic)", round, i, rep.Cycles, want)
			}
		}
	}
	wave(1)
	first := c.TimingStats()
	wave(2)
	second := c.TimingStats()
	if second.Hits <= first.Hits {
		t.Fatalf("warm wave on resident sessions added no memo hits: %+v -> %+v", first, second)
	}
	if s := c.Stats(); s.ExecOverlapAvg <= 1 {
		t.Fatalf("barrier held %d jobs but ExecOverlapAvg = %v — executions did not overlap", overlap, s.ExecOverlapAvg)
	}
}

// TestFastBackendGeometryInvalidation drives the memo through domain
// close/reopen on a bare System: a repeat on the same vNPU hits; a
// differently-shaped vNPU after destroy misses (its geometry
// fingerprint differs) and simulates fresh; re-creating the original
// geometry on the emptied chip hits again with the original result.
func TestFastBackendGeometryInvalidation(t *testing.T) {
	sys, err := NewSystem(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	memo := FastTimingBackend(0)
	sys.SetTimingBackend(memo)
	m := mustModel(t, "alexnet")
	bytes, err := sys.ModelMemoryBytes(m, 4)
	if err != nil {
		t.Fatal(err)
	}

	boot := func(topology *Topology) (*VirtualNPU, *CompiledModel) {
		t.Helper()
		v, err := sys.Create(NewRequest(topology, WithMemory(bytes)))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.OpenDomain(); err != nil {
			t.Fatal(err)
		}
		cm, err := sys.CompileFor(v, m)
		if err != nil {
			t.Fatal(err)
		}
		return v, cm
	}
	run := func(v *VirtualNPU, cm *CompiledModel) Report {
		t.Helper()
		v.ResetForRun()
		rep, err := sys.RunCompiled(context.Background(), v, cm, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	assertStats := func(step string, hits, misses uint64) {
		t.Helper()
		if s := memo.Stats(); s.Hits != hits || s.Misses != misses {
			t.Fatalf("%s: stats %+v, want hits=%d misses=%d", step, s, hits, misses)
		}
	}

	v1, cm1 := boot(Mesh(2, 2))
	mesh := run(v1, cm1)
	assertStats("first mesh run", 0, 1)
	if again := run(v1, cm1); again != mesh {
		t.Fatalf("same-domain repeat differs: %+v vs %+v", again, mesh)
	}
	assertStats("mesh repeat", 1, 1)
	if err := sys.Destroy(v1); err != nil {
		t.Fatal(err)
	}

	v2, cm2 := boot(Chain(4))
	chain := run(v2, cm2)
	assertStats("chain run after reshape", 1, 2)
	// The chain result must be the analytic truth, not a stale mesh replay.
	ref, err := NewSystem(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	rv, rcm := func() (*VirtualNPU, *CompiledModel) {
		v, err := ref.Create(NewRequest(Chain(4), WithMemory(bytes)))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.OpenDomain(); err != nil {
			t.Fatal(err)
		}
		cm, err := ref.CompileFor(v, m)
		if err != nil {
			t.Fatal(err)
		}
		return v, cm
	}()
	rv.ResetForRun()
	analytic, err := ref.RunCompiled(context.Background(), rv, rcm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chain != analytic {
		t.Fatalf("chain through memo %+v differs from analytic %+v", chain, analytic)
	}
	if err := sys.Destroy(v2); err != nil {
		t.Fatal(err)
	}

	// Original topology on the emptied chip: the guest VA layout is
	// per-vNPU, so the fresh vNPU's fingerprint differs and the run
	// simulates rather than replaying a stale entry — but re-creation
	// is cycle-identical, so the simulated outcome matches the original.
	v3, cm3 := boot(Mesh(2, 2))
	if again := run(v3, cm3); again != mesh {
		t.Fatalf("re-created mesh differs: %+v vs %+v", again, mesh)
	}
	assertStats("re-created mesh", 1, 3)
	// And a repeat on that same resident vNPU replays.
	if again := run(v3, cm3); again != mesh {
		t.Fatalf("resident repeat differs: %+v vs %+v", again, mesh)
	}
	assertStats("resident repeat", 2, 3)
}

// TestRecycledTimingStorageCycleIdentical extends the geometry property
// to the analytic path's own storage: a device hands a closed domain's
// HBM calendars to the next domain, so a job that follows a larger one of
// another shape (other cores, other channel share) runs on storage that
// job grew. It must report exactly what it reports on a chip nothing has
// run on, and so must the larger job when it returns.
func TestRecycledTimingStorageCycleIdentical(t *testing.T) {
	type shape struct {
		model    string
		topology *Topology
	}
	big, small := shape{"resnet18", Mesh(3, 3)}, shape{"alexnet", Chain(4)}
	oneShot := func(sys *System, s shape) Report {
		t.Helper()
		return runOneShot(t, sys, s.model, s.topology, 1)
	}
	newSystem := func() *System {
		t.Helper()
		sys, err := NewSystem(SimConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	wantBig, wantSmall := oneShot(newSystem(), big), oneShot(newSystem(), small)
	sys := newSystem()
	for round, s := range []shape{big, small, big, small} {
		want := wantBig
		if s == small {
			want = wantSmall
		}
		if got := oneShot(sys, s); got != want {
			t.Fatalf("round %d (%s) on the reused chip: %+v, fresh chip %+v", round, s.model, got, want)
		}
	}
}
