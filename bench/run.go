package main

import (
	"fmt"
	"runtime"
	"time"
)

// runOpts is what one run of one workload is given: the driver's four
// arguments plus the two things the tier-1 test turns down.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	// setupReps is how many times set-up is built and timed; setup_s is
	// the median, because one build of a few milliseconds is mostly noise.
	setupReps int
	// probeScale divides every probe's iteration count (1 = full size).
	probeScale int
	// probes, when non-nil, are probe results to reuse instead of running
	// the probes again (the all-workloads mode runs them once).
	probes *metricSet
	// shared says other work shares the machine (the tier-1 test runs
	// beside other packages' tests), so how late the load generator ran
	// says nothing about the run and is not held against it.
	shared bool
	// dryRun generates the inputs, fingerprints them and runs nothing.
	dryRun bool
}

// result is one run's outcome.
type result struct {
	workload                              string
	seed                                  int64
	traced                                bool
	attempted, completed, failed, refused int
	// metrics holds the end-to-end set of an untraced run or the
	// per-layer set of a traced one.
	metrics *metricSet
	// violations are failed correctness checks; any makes the run
	// incorrect and the exit code non-zero.
	violations []string
	// jobHash fingerprints the generated inputs (tenant, model, topology,
	// priority, due time of each job), so a test can hold two runs with
	// one seed to the same sequence.
	jobHash uint64
	spans   *spanLog
}

func (r *result) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// invalidRun marks a run whose numbers must not be used: the load
// generator ran late, or the trace ring dropped events. It is an error,
// not a violation — the harness prints no result for it.
type invalidRun struct{ why string }

func (e invalidRun) Error() string { return "invalid run: " + e.why }

// workloadFn runs one workload once.
type workloadFn func(runOpts) (*result, error)

// workloadDef names a workload, says why it exists and bounds its run.
type workloadDef struct {
	name string
	why  string
	run  workloadFn
}

var workloads = []workloadDef{
	{"sim_solo", "closed, one goroutine, eight fixed model/topology cases on System with no serving stack: the timing core (npu, mem, sim, noc) is all of the work", runSimSolo},
	{"warm_decode", "closed, 2 clients on 4 resident decode sessions with the memo backend: every job is a warm lease and a memo hit, so the submit/sched/session/obs path is all of the work", runWarmDecode},
	{"map_churn", "closed, 8 one-shot jobs outstanding with unique tenants and seeded random topologies on one chip: the free set stays fragmented, so the mapper (core, ged, topo, place) does most of the work", runMapChurn},
	{"fleet_open", "open loop, seeded Poisson arrivals at 1000 jobs/s on a 2-shard fleet, 70% warm session traffic and 30% cold one-shots sharing the cores: a gain for one path that costs the other shows", runFleetOpen},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupBudget stops the set-up repeats early once the builds alone have
// taken this long (slow set-ups need fewer repeats for a steady median).
const setupBudget = time.Second

// timeSetup builds set-up up to reps times, keeping the last build and
// tearing the others down (untimed), and returns the median build time
// and how many builds it is the median of.
func timeSetup[T any](reps int, build func() (T, error), teardown func(T) error) (kept T, medianS float64, n int, err error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]float64, 0, reps)
	var total time.Duration
	for i := 0; i < reps; i++ {
		// Every build starts from a collected heap and a quiet scheduler:
		// the goroutines of the stack just torn down take a few hundred
		// microseconds to exit, and a build racing them reads up to twice
		// as long.
		runtime.GC()
		for settle := time.Now(); time.Since(settle) < 300*time.Microsecond; {
			runtime.Gosched()
		}
		start := time.Now()
		env, err := build()
		if err != nil {
			return kept, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		total += took
		if i == reps-1 || (i >= 4 && total > setupBudget) {
			kept = env
			break
		}
		if err := teardown(env); err != nil {
			return kept, 0, 0, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	return kept, median(times), len(times), nil
}
