// vnpuserve is the serving-path load generator: it drives a multi-chip
// vnpu.Cluster with a Poisson arrival trace of mixed model/topology jobs
// from many tenants and reports throughput, queueing-latency percentiles
// and per-chip utilization — the serving analogue of cmd/vnpu-experiments.
//
// With -priomix the trace carries a priority mix (10% critical, 20%
// high, 40% normal, 30% best-effort, drawn from the -seed'ed RNG so runs
// are reproducible) and the report adds per-class queueing percentiles
// and deadline misses; -deadline attaches a scheduling SLO to the
// high/critical classes.
//
// With -shards N (N > 1) it boots a fleet of N independent cluster
// shards behind the session-affine router: reusable jobs consistent-hash
// to their owner shard, one-shots balance by pressure, and -drain
// exercises a mid-trace drain/rejoin of one shard. With -virtual the
// trace instead replays on the deterministic virtual clock — a
// million-job multi-tenant day in seconds of wall time — and reports
// fleet p50/p99, per-shard utilization, steal/drain counters and the
// warm-hit rate against a single-cluster baseline (BENCH_fleet.json).
//
// Example:
//
//	vnpuserve -chips 4 -jobs 256 -rate 300 -tenants 8
//	vnpuserve -chips 2 -jobs 128 -rate 40 -priomix -json BENCH_sched.json
//	vnpuserve -shards 4 -chips 2 -jobs 400 -reuse -drain 1
//	vnpuserve -shards 4 -virtual -json BENCH_fleet.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"github.com/vnpu-sim/vnpu"
	"github.com/vnpu-sim/vnpu/internal/benchjson"
	"github.com/vnpu-sim/vnpu/internal/fleet"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		// The flag set already printed the error (or, for -h, the usage).
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	// SIGINT/SIGTERM stop the submit loop, not the process: in-flight jobs
	// drain, then the trace export, SLO report and -json summary flush as
	// on a normal exit, so an interrupted -listen run never loses its
	// telemetry.
	cfg.stop = make(chan os.Signal, 1)
	signal.Notify(cfg.stop, os.Interrupt, syscall.SIGTERM)
	if err := cfg.serve(); err != nil {
		log.Fatal(err)
	}
}

// serve runs the serving mode the flags select.
func (rc runConfig) serve() error {
	switch {
	case rc.virtual:
		return runVirtual(rc)
	case rc.shards > 1:
		return runFleet(rc)
	default:
		return run(rc)
	}
}

// parseFlags resolves the command line into a runConfig.
func parseFlags(args []string) (runConfig, error) {
	var cfg runConfig
	fs := flag.NewFlagSet("vnpuserve", flag.ContinueOnError)
	fs.IntVar(&cfg.chips, "chips", 4, "number of NPU chips in the cluster")
	fs.StringVar(&cfg.chipName, "chip", "sim", "chip configuration: fpga, sim or sim48")
	fs.IntVar(&cfg.jobs, "jobs", 256, "total jobs to submit")
	fs.Float64Var(&cfg.rate, "rate", 300, "mean Poisson arrival rate in jobs/s (0 = open throttle)")
	fs.IntVar(&cfg.queue, "queue", 0, "admission queue depth (0 = default)")
	fs.IntVar(&cfg.quota, "quota", 0, "per-tenant in-flight quota (0 = unlimited)")
	fs.IntVar(&cfg.tenants, "tenants", 8, "number of tenants generating load")
	fs.IntVar(&cfg.iters, "iters", 1, "inference iterations per job")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed for the arrival trace and the priority mix (reproducible runs)")
	fs.BoolVar(&cfg.confine, "confine", false, "request NoC confinement for every job")
	fs.BoolVar(&cfg.hetero, "hetero", false, "boot a mixed cluster: odd chips use the FPGA-scale config, so the cost model routes small jobs there")
	fs.BoolVar(&cfg.reuse, "reuse", false, "enable the session pool: jobs lease resident vNPUs per (tenant, model, topology), skipping the create path on warm hits")
	fs.BoolVar(&cfg.priomix, "priomix", false, "draw a priority mix (10% critical / 20% high / 40% normal / 30% best-effort) from the seeded RNG and report per-class latency")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "scheduling SLO attached to high/critical priomix jobs (0 = none); missed deadlines fail fast with ErrDeadlineExceeded and are reported, not fatal")
	fs.StringVar(&cfg.jsonPath, "json", "", "write a machine-readable run summary (jobs/s, warm-hit rate, latency percentiles, per-class stats) to this file")
	fs.IntVar(&cfg.workers, "workers", 0, "async mapper worker pool size (0 = engine default); cache misses compute on these workers instead of the dispatch path")
	fs.StringVar(&cfg.timing, "timing", "analytic", "timing backend for job executions: analytic (full simulation every run) or fast (memoized replay of cycle-identical warm runs)")
	fs.BoolVar(&cfg.grounded, "grounded", false, "with -virtual: ground the replay's service times in probe-chip cycle simulations through the -timing backend instead of the synthetic formula (lower -jobs with -timing analytic)")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file (for hot-path work)")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile (after a final GC) at the end of the run to this file")
	fs.StringVar(&cfg.tracePath, "trace", "", "record every job's lifecycle transitions and write them as Chrome trace_event JSON (Perfetto-loadable) to this file")
	fs.StringVar(&cfg.listen, "listen", "", "serve live telemetry on this address for the run's duration: /metrics (Prometheus), /trace(.json), /debug/pprof/ (e.g. :9090)")
	fs.BoolVar(&cfg.verbose, "v", false, "log every job completion")
	fs.IntVar(&cfg.shards, "shards", 1, "number of independent cluster shards behind the session-affine router (1 = single cluster)")
	fs.BoolVar(&cfg.virtual, "virtual", false, "replay the trace on the deterministic virtual clock instead of wall time (fleet model; pairs with -shards)")
	fs.IntVar(&cfg.drainShard, "drain", 1, "shard to drain and rejoin mid-trace when -shards > 1 (-1 disables)")
	fs.DurationVar(&cfg.sloTarget, "slotarget", 2*time.Millisecond, "per-job sojourn target of the declared wildcard SLO (p99, 99.9% availability; 0 disables SLO tracking)")
	fs.StringVar(&cfg.sloReport, "sloreport", "", "write the SLO + critical-path attribution report as JSON to this file (deterministic per seed with -virtual)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "jobs":
			cfg.jobsSet = true
		case "rate":
			cfg.rateSet = true
		}
	})
	return cfg, nil
}

type runConfig struct {
	chips    int
	chipName string
	jobs     int
	rate     float64
	queue    int
	quota    int
	tenants  int
	iters    int
	seed     int64
	confine  bool
	hetero   bool
	reuse    bool
	priomix  bool
	deadline time.Duration
	jsonPath string
	verbose  bool

	workers    int
	timing     string
	grounded   bool
	cpuprofile string
	memprofile string
	tracePath  string
	listen     string

	shards     int
	virtual    bool
	drainShard int
	jobsSet    bool
	rateSet    bool

	sloTarget time.Duration
	sloReport string
	stop      chan os.Signal
}

// interrupted polls the signal channel; true stops the submit loop.
func (rc *runConfig) interrupted(at int) bool {
	select {
	case sig := <-rc.stop:
		fmt.Printf("-- %v at job %d: stopping submissions, draining in-flight work and flushing reports\n", sig, at)
		return true
	default:
		return false
	}
}

// chipConfig resolves the -chip flag to a chip profile.
func chipConfig(name string) (vnpu.Config, error) {
	switch name {
	case "fpga":
		return vnpu.FPGAConfig(), nil
	case "sim":
		return vnpu.SimConfig(), nil
	case "sim48":
		return vnpu.SimConfig48(), nil
	default:
		return vnpu.Config{}, fmt.Errorf("unknown chip %q (want fpga, sim or sim48)", name)
	}
}

// timingBackend resolves the -timing flag. The analytic default returns
// nil — the cluster's built-in direct path — so the flag's zero value
// changes nothing; "fast" returns one shared memoizing backend for the
// whole run (sound across chips and shards: the memo key covers the
// chip's timing configuration).
func timingBackend(name string) (vnpu.TimingBackend, error) {
	switch name {
	case "analytic":
		return nil, nil
	case "fast":
		return vnpu.FastTimingBackend(0), nil
	default:
		return nil, fmt.Errorf("unknown timing backend %q (want analytic or fast)", name)
	}
}

// timingProbe grounds service times in cycle simulations: one probe chip
// (always the 48-core sim config, so every zoo mix shape fits
// domain-isolated side by side) with the chosen timing backend, each
// model compiled onto its own resident vNPU. service() is a
// fleet.TraceConfig ServiceTime: it reruns the model through the backend
// — full simulation under analytic, a memo replay under fast after the
// first run — and converts the makespan to virtual time at the chip
// clock.
type timingProbe struct {
	sys     *vnpu.System
	backend vnpu.TimingBackend
	vs      []*vnpu.VirtualNPU
	cms     []*vnpu.CompiledModel
	freqMHz float64
}

func newTimingProbe(backendName string, models int) (*timingProbe, error) {
	cfg := vnpu.SimConfig48()
	sys, err := vnpu.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	backend, err := timingBackend(backendName)
	if err != nil {
		return nil, err
	}
	if backend != nil {
		sys.SetTimingBackend(backend)
	}
	mixes, err := buildMix(cfg.Cores())
	if err != nil {
		return nil, err
	}
	p := &timingProbe{sys: sys, backend: backend, freqMHz: float64(cfg.FreqMHz)}
	for i := 0; i < models; i++ {
		mx := mixes[i%len(mixes)]
		mem, err := sys.ModelMemoryBytes(mx.model, mx.topo.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("probe: sizing %s: %w", mx.model.Name, err)
		}
		v, err := sys.Create(vnpu.Request{Topology: mx.topo, MemoryBytes: mem})
		if err != nil {
			return nil, fmt.Errorf("probe: creating vNPU for %s: %w", mx.model.Name, err)
		}
		if err := v.OpenDomain(); err != nil {
			return nil, fmt.Errorf("probe: opening domain for %s: %w", mx.model.Name, err)
		}
		cm, err := sys.CompileFor(v, mx.model)
		if err != nil {
			return nil, fmt.Errorf("probe: compiling %s: %w", mx.model.Name, err)
		}
		p.vs = append(p.vs, v)
		p.cms = append(p.cms, cm)
	}
	return p, nil
}

// service implements fleet.TraceConfig.ServiceTime: deterministic in
// (model, jitter), so grounded replays keep a reproducible OrderHash —
// and the same hash under either backend, since memo replays are
// cycle-identical to the simulation they recorded.
func (p *timingProbe) service(_, model, jitter int) time.Duration {
	i := model % len(p.vs)
	p.vs[i].ResetForRun()
	rep, err := p.sys.RunCompiled(context.Background(), p.vs[i], p.cms[i], 1)
	if err != nil {
		// The probe models never fail after construction; keep the replay
		// alive on the synthetic formula if one somehow does.
		return time.Duration(150+40*model+jitter) * time.Microsecond
	}
	us := float64(rep.Cycles) / p.freqMHz
	return time.Duration(us*float64(time.Microsecond)) + time.Duration(jitter)*time.Microsecond
}

// stats reports the probe backend's memo counters (zeros under analytic).
func (p *timingProbe) stats() vnpu.TimingStats {
	if p.backend == nil {
		return vnpu.TimingStats{Backend: "analytic"}
	}
	return p.backend.Stats()
}

// measureFastSpeedup microbenchmarks the fast backend against the
// analytic reference on the probe chip: the same grounded service calls,
// warm in both cases (compiled programs, resident vNPUs), differing only
// in whether the timing model re-simulates or replays the memo. The
// ratio lands in the -json reports as fast_vs_analytic_speedup.
func measureFastSpeedup(models int) (float64, error) {
	ap, err := newTimingProbe("analytic", models)
	if err != nil {
		return 0, err
	}
	fp, err := newTimingProbe("fast", models)
	if err != nil {
		return 0, err
	}
	const rounds = 8
	for i := 0; i < models; i++ {
		fp.service(0, i, 0) // record each key once: steady state is all hits
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < models; i++ {
			ap.service(0, i, 0)
		}
	}
	analytic := time.Since(t0)
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < models; i++ {
			fp.service(0, i, 0)
		}
	}
	fast := time.Since(t1)
	if fast <= 0 {
		fast = time.Nanosecond
	}
	return float64(analytic) / float64(fast), nil
}

// classSummary is one priority class's slice of the -json report.
type classSummary struct {
	Class     string `json:"class"`
	Jobs      int    `json:"jobs"`
	P50Micros int64  `json:"p50_us"`
	P99Micros int64  `json:"p99_us"`
	Misses    uint64 `json:"deadline_misses"`
}

// summary is the -json run report, consumed by CI to track the serving
// trajectory (BENCH_session.json, BENCH_sched.json).
type summary struct {
	Chips          int            `json:"chips"`
	Jobs           int            `json:"jobs"`
	Failed         int            `json:"failed"`
	JobsPerSec     float64        `json:"jobs_per_s"`
	P50Micros      int64          `json:"p50_us"`
	P99Micros      int64          `json:"p99_us"`
	Reuse          bool           `json:"reuse"`
	WarmHitRate    float64        `json:"warm_hit_rate"`
	WarmHits       uint64         `json:"warm_hits"`
	ColdCreates    uint64         `json:"cold_creates"`
	Batched        uint64         `json:"batched"`
	Evicted        uint64         `json:"evicted"`
	PlaceHitRate   float64        `json:"placement_cache_hit_rate"`
	Priomix        bool           `json:"priomix"`
	Seed           int64          `json:"seed"`
	DeadlineMisses uint64         `json:"deadline_misses"`
	Displaced      uint64         `json:"displaced"`
	Promotions     uint64         `json:"aging_promotions"`
	Backfilled     uint64         `json:"backfilled"`
	PerClass       []classSummary `json:"per_class,omitempty"`

	// Placement-pipeline facts (BENCH_serve.json): how dispatch latency
	// relates to mapper latency across PRs.
	Workers       int    `json:"mapper_workers"`
	HitsFirst     uint64 `json:"hits_first"`
	MapParked     uint64 `json:"map_parked"`
	MapMissAvgUs  int64  `json:"map_miss_avg_us"`
	ColdP50Micros int64  `json:"cold_shape_p50_us"`
	ColdP99Micros int64  `json:"cold_shape_p99_us"`
	ColdShapeJobs int    `json:"cold_shape_jobs"`

	// Spatial-concurrency facts: mean and p99 of the number of vNPUs
	// executing overlapped on a chip (1.0 = the old serialized regime).
	ExecOverlapAvg     float64 `json:"exec_overlap_avg"`
	ChipConcurrencyP99 float64 `json:"chip_concurrency_p99"`

	// Timing-backend facts: which backend timed executions, how its memo
	// performed, and the microbenchmarked fast-vs-analytic speedup of one
	// warm grounded service call (0 under the analytic backend, where no
	// A/B ran).
	TimingBackend string  `json:"timing_backend"`
	MemoHitRate   float64 `json:"memo_hit_rate"`
	MemoHits      uint64  `json:"memo_hits"`
	MemoMisses    uint64  `json:"memo_misses"`
	FastSpeedup   float64 `json:"fast_vs_analytic_speedup"`

	// SLO standing and critical-path attribution of the run (nil when
	// -slotarget 0 / tracing off respectively).
	SLO         *slo.Report      `json:"slo,omitempty"`
	Attribution *slo.Attribution `json:"attribution,omitempty"`
}

// workloadMix pairs zoo models with topologies that fit the chip.
type workloadMix struct {
	model vnpu.Model
	topo  *vnpu.Topology
	shape string
}

func buildMix(cores int) ([]workloadMix, error) {
	type entry struct {
		model string
		topo  *vnpu.Topology
		shape string
	}
	var entries []entry
	if cores >= 36 {
		entries = []entry{
			{"alexnet", vnpu.Mesh(2, 2), "2x2"},
			{"mobilenet", vnpu.Chain(4), "1x4"},
			{"resnet18", vnpu.Mesh(2, 3), "2x3"},
			{"resnet34", vnpu.Mesh(3, 3), "3x3"},
			{"googlenet", vnpu.Mesh(2, 4), "2x4"},
			{"gpt2-small", vnpu.Mesh(3, 4), "3x4"},
		}
	} else {
		entries = []entry{
			{"alexnet", vnpu.Mesh(2, 2), "2x2"},
			{"mobilenet", vnpu.Chain(3), "1x3"},
			{"resnet18", vnpu.Mesh(2, 3), "2x3"},
			{"googlenet", vnpu.Mesh(2, 4), "2x4"},
		}
	}
	mixes := make([]workloadMix, len(entries))
	for i, e := range entries {
		m, err := vnpu.ModelByName(e.model)
		if err != nil {
			return nil, err
		}
		mixes[i] = workloadMix{model: m, topo: e.topo, shape: e.shape}
	}
	return mixes, nil
}

// drawPriority maps one RNG draw onto the priomix class distribution.
func drawPriority(rng *rand.Rand) vnpu.Priority {
	r := rng.Float64()
	switch {
	case r < 0.10:
		return vnpu.PriorityCritical
	case r < 0.30:
		return vnpu.PriorityHigh
	case r < 0.70:
		return vnpu.PriorityNormal
	default:
		return vnpu.PriorityBestEffort
	}
}

func priorityName(p vnpu.Priority) string { return p.String() }

// buildJob draws one trace job from the seeded RNG — its workload, its
// tenant and, under -priomix, its class, with the -deadline SLO attached
// to high and critical jobs — and returns the mix entry it drew. Both
// submit loops (single cluster and -shards) build their jobs here.
func buildJob(rng *rand.Rand, mixes []workloadMix, rc runConfig) (vnpu.Job, workloadMix) {
	mx := mixes[rng.Intn(len(mixes))]
	job := vnpu.Job{
		Tenant:     fmt.Sprintf("tenant-%02d", rng.Intn(rc.tenants)),
		Model:      mx.model,
		Iterations: rc.iters,
		Topology:   mx.topo,
		Reusable:   rc.reuse,
	}
	if rc.confine {
		job.Options = []vnpu.Option{vnpu.WithConfinement(true)}
	}
	if rc.priomix {
		job.Priority = drawPriority(rng)
		if rc.deadline > 0 && job.Priority >= vnpu.PriorityHigh {
			job.Deadline = time.Now().Add(rc.deadline)
		}
	}
	return job, mx
}

func run(rc runConfig) error {
	cfg, err := chipConfig(rc.chipName)
	if err != nil {
		return err
	}
	var opts []vnpu.ClusterOption
	if rc.queue > 0 {
		opts = append(opts, vnpu.WithQueueDepth(rc.queue))
	} else {
		// Default: admit the whole trace so rejections only appear when
		// the operator asks for a tighter queue.
		opts = append(opts, vnpu.WithQueueDepth(rc.jobs))
	}
	if rc.quota > 0 {
		opts = append(opts, vnpu.WithTenantQuota(rc.quota))
	}
	if rc.reuse {
		opts = append(opts, vnpu.WithSessionReuse())
	}
	if rc.workers > 0 {
		opts = append(opts, vnpu.WithMapperWorkers(rc.workers))
	}
	backend, err := timingBackend(rc.timing)
	if err != nil {
		return err
	}
	if backend != nil {
		opts = append(opts, vnpu.WithTimingBackend(backend))
	}
	if rc.tracePath != "" {
		opts = append(opts, vnpu.WithTracing())
	}
	if rc.sloTarget > 0 {
		opts = append(opts, vnpu.WithSLO(vnpu.SLO{Target: rc.sloTarget, Window: time.Second}))
	}
	if rc.cpuprofile != "" {
		f, err := os.Create(rc.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	mixCores := cfg.Cores()
	kind := rc.chipName
	if rc.hetero {
		// Mixed fleet: odd chips boot the small FPGA-scale config. The
		// placement cost model routes jobs that fit both chip classes to
		// the cheap chips, keeping the big ones free for large topologies.
		specs := make([]vnpu.ChipSpec, rc.chips)
		names := map[string]bool{}
		for i := range specs {
			if i%2 == 1 {
				specs[i] = vnpu.ChipSpec{Config: vnpu.FPGAConfig()}
			} else {
				specs[i] = vnpu.ChipSpec{Config: cfg}
			}
			if n := specs[i].Config.Cores(); n > mixCores {
				mixCores = n
			}
			names[specs[i].Config.Name] = true
		}
		// Label the fleet by what was actually booted: -chips 1 never
		// reaches an odd index, and -chip fpga -hetero is homogeneous.
		if len(names) > 1 {
			kind = rc.chipName + "+fpga"
		}
		opts = append(opts, vnpu.WithChipProfiles(specs...))
	}
	cluster, err := vnpu.NewCluster(cfg, rc.chips, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	defer serveTelemetry(rc.listen, cluster.Handler())()

	mixes, err := buildMix(mixCores)
	if err != nil {
		return err
	}

	fmt.Printf("vnpuserve: %d chips (%s), %d jobs, %d tenants, rate %.0f jobs/s, quota %d, seed %d",
		cluster.Chips(), kind, rc.jobs, rc.tenants, rc.rate, rc.quota, rc.seed)
	if rc.priomix {
		fmt.Printf(", priomix")
		if rc.deadline > 0 {
			fmt.Printf(" (SLO %s on high+)", rc.deadline)
		}
	}
	fmt.Println()

	rng := rand.New(rand.NewSource(rc.seed))
	ctx := context.Background()
	start := time.Now()
	handles := make([]*vnpu.Handle, 0, rc.jobs)
	prios := make([]vnpu.Priority, 0, rc.jobs)
	colds := make([]bool, 0, rc.jobs)
	seenShapes := make(map[string]bool)
	var rejectedQueue, rejectedQuota, missedAtSubmit int
	for i := 0; i < rc.jobs; i++ {
		if rc.interrupted(i) {
			break
		}
		if rc.rate > 0 && i > 0 {
			time.Sleep(time.Duration(rng.ExpFloat64() / rc.rate * float64(time.Second)))
		}
		job, mx := buildJob(rng, mixes, rc)
		h, err := cluster.Submit(ctx, job)
		switch {
		case err == nil:
			handles = append(handles, h)
			prios = append(prios, job.Priority)
			// A shape's first submission is the trace's mapping-miss job:
			// nothing can have warmed its placement yet. Later misses (free
			// sets churn) hit the async mappers too, but the first-seen set
			// is the stable cross-run cohort for time-to-start tracking.
			colds = append(colds, !seenShapes[mx.shape])
			seenShapes[mx.shape] = true
		case errors.Is(err, vnpu.ErrQueueFull):
			rejectedQueue++
		case errors.Is(err, vnpu.ErrQuotaExceeded):
			rejectedQuota++
		case errors.Is(err, vnpu.ErrDeadlineExceeded):
			missedAtSubmit++
		default:
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}

	var (
		waits      []time.Duration
		coldWaits  []time.Duration
		classWaits = map[vnpu.Priority][]time.Duration{}
		classMiss  = map[vnpu.Priority]uint64{}
		failed     int
		missed     int
	)
	for i, h := range handles {
		rep, err := h.Wait(ctx)
		if err != nil {
			if errors.Is(err, vnpu.ErrDeadlineExceeded) {
				missed++
				classMiss[prios[i]]++
			} else {
				failed++
			}
			if rc.verbose {
				fmt.Fprintf(os.Stderr, "job %d failed: %v\n", i, err)
			}
			continue
		}
		waits = append(waits, rep.QueueWait)
		if colds[i] {
			coldWaits = append(coldWaits, rep.QueueWait)
		}
		if rc.priomix {
			classWaits[rep.Priority] = append(classWaits[rep.Priority], rep.QueueWait)
		}
		if rc.verbose {
			fmt.Printf("job %3d %-24s %-11s chip %d  queued %8s  %8.1f FPS (TED %.1f)\n",
				i, rep.Tenant, rep.Priority, rep.Chip, rep.QueueWait.Round(time.Microsecond), rep.FPS, rep.MapCost)
		}
	}
	wall := time.Since(start)

	stats := cluster.Stats()
	fmt.Printf("\ncompleted %d jobs (%d failed, %d deadline-missed, %d shed on queue, %d shed on quota) in %s\n",
		len(waits), failed, missed+missedAtSubmit, rejectedQueue, rejectedQuota, wall.Round(time.Millisecond))
	if wall > 0 {
		fmt.Printf("throughput:    %.1f jobs/s\n", float64(len(waits))/wall.Seconds())
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		fmt.Printf("queueing:      p50 %s   p99 %s   max %s\n",
			percentile(waits, 0.50).Round(time.Microsecond),
			percentile(waits, 0.99).Round(time.Microsecond),
			waits[len(waits)-1].Round(time.Microsecond))
	}
	ss := cluster.SchedStats()
	var perClass []classSummary
	if rc.priomix {
		var displaced, promoted, backfilled uint64
		for _, cs := range ss.Classes {
			displaced += cs.Displaced
			promoted += cs.Promotions
			backfilled += cs.Backfilled
		}
		fmt.Printf("scheduler:     %d displaced, %d aging promotions, %d backfilled, %d deadline misses\n",
			displaced, promoted, backfilled, ss.DeadlineMisses())
		fmt.Println("per class:")
		for p := vnpu.PriorityCritical; p >= vnpu.PriorityBestEffort; p-- {
			ws := classWaits[p]
			sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
			fmt.Printf("  %-11s %4d jobs   p50 %10s   p99 %10s   %d missed\n",
				priorityName(p), len(ws),
				percentile(ws, 0.50).Round(time.Microsecond),
				percentile(ws, 0.99).Round(time.Microsecond),
				classMiss[p])
			perClass = append(perClass, classSummary{
				Class:     priorityName(p),
				Jobs:      len(ws),
				P50Micros: percentile(ws, 0.50).Microseconds(),
				P99Micros: percentile(ws, 0.99).Microseconds(),
				Misses:    classMiss[p],
			})
		}
	}
	ps := cluster.PlacementStats()
	fmt.Printf("placement:     %d decisions, avg %s   cache %.1f%% hit (%d hit / %d miss, %d evicted)\n",
		ps.Placements, ps.AvgPlaceTime().Round(time.Microsecond),
		ps.HitRate()*100, ps.CacheHits, ps.CacheMisses, ps.CacheEvictions)
	fmt.Printf("mapper:        miss avg %s   %d async, %d hits-first starts, %d map-parks\n",
		ps.AvgMapTime().Round(time.Microsecond), ps.AsyncMaps,
		stats.HitsFirst, stats.MapParked)
	ts := cluster.TimingStats()
	var speedup float64
	if rc.timing == "fast" {
		if speedup, err = measureFastSpeedup(len(mixes)); err != nil {
			return err
		}
		fmt.Printf("timing:        fast backend   memo %.1f%% hit (%d hit / %d miss / %d bypassed, %d entries)   warm replay %.1fx vs analytic\n",
			ts.HitRate()*100, ts.Hits, ts.Misses, ts.Bypassed, ts.Entries, speedup)
	}
	if len(coldWaits) > 0 {
		sort.Slice(coldWaits, func(i, j int) bool { return coldWaits[i] < coldWaits[j] })
		fmt.Printf("cold shapes:   %d jobs   time-to-start p50 %s   p99 %s\n",
			len(coldWaits),
			percentile(coldWaits, 0.50).Round(time.Microsecond),
			percentile(coldWaits, 0.99).Round(time.Microsecond))
	}
	sess := cluster.SessionStats()
	if rc.reuse {
		fmt.Printf("sessions:      %.1f%% warm (%d warm / %d batched / %d cold)   avg acquire warm %s cold %s\n",
			sess.HitRate()*100, sess.WarmHits, sess.Batched, sess.ColdCreates,
			sess.AvgWarmTime().Round(time.Microsecond), sess.AvgColdTime().Round(time.Microsecond))
		fmt.Printf("               %d evicted (%d TTL, %d LRU, %d capacity pressure), %d resident at end\n",
			sess.Evicted(), sess.EvictedTTL, sess.EvictedLRU, sess.EvictedPressure,
			sess.IdleSessions+sess.BusySessions)
	}
	if stats.ExecOverlapAvg > 0 {
		fmt.Printf("concurrency:   %.2f vNPUs executing overlapped per chip on average   p99 %.0f\n",
			stats.ExecOverlapAvg, stats.ChipConcurrencyP99)
	}
	fmt.Println("per chip:")
	usage := cluster.CoreUsage()
	for i := 0; i < cluster.Chips(); i++ {
		busyPct := 0.0
		if wall > 0 {
			busyPct = float64(stats.ChipBusy[i]) / float64(wall) * 100
		}
		chipCfg := cluster.Chip(i).Config()
		fmt.Printf("  chip %d (%-5s %2d cores): %4d jobs   busy %5.1f%%   final core alloc %3.0f%%",
			i, chipCfg.Name, chipCfg.Cores(), stats.ChipJobs[i], busyPct, usage[i].AllocatedFraction()*100)
		if rc.reuse {
			fmt.Printf(" (%d warm-held)", usage[i].WarmIdle)
		}
		fmt.Println()
	}
	sloRep, sloOK := cluster.SLOReport()
	if sloOK {
		printSLO(sloRep)
	}
	attr, attrOK := cluster.Attribution()
	if attrOK {
		printAttribution(attr)
	}
	if rc.jsonPath != "" {
		var displaced, promoted, backfilled uint64
		for _, cs := range ss.Classes {
			displaced += cs.Displaced
			promoted += cs.Promotions
			backfilled += cs.Backfilled
		}
		sum := summary{
			Chips:          cluster.Chips(),
			Jobs:           len(waits),
			Failed:         failed,
			Reuse:          rc.reuse,
			WarmHitRate:    sess.HitRate(),
			WarmHits:       sess.WarmHits,
			ColdCreates:    sess.ColdCreates,
			Batched:        sess.Batched,
			Evicted:        sess.Evicted(),
			PlaceHitRate:   ps.HitRate(),
			Priomix:        rc.priomix,
			Seed:           rc.seed,
			DeadlineMisses: ss.DeadlineMisses(),
			Displaced:      displaced,
			Promotions:     promoted,
			Backfilled:     backfilled,
			PerClass:       perClass,
			Workers:        rc.workers,
			HitsFirst:      stats.HitsFirst,
			MapParked:      stats.MapParked,
			MapMissAvgUs:   ps.AvgMapTime().Microseconds(),
			ColdShapeJobs:  len(coldWaits),

			ExecOverlapAvg:     stats.ExecOverlapAvg,
			ChipConcurrencyP99: stats.ChipConcurrencyP99,

			TimingBackend: ts.Backend,
			MemoHitRate:   ts.HitRate(),
			MemoHits:      ts.Hits,
			MemoMisses:    ts.Misses,
			FastSpeedup:   speedup,
		}
		if sloOK {
			sum.SLO = &sloRep
		}
		if attrOK {
			sum.Attribution = &attr
		}
		if wall > 0 {
			sum.JobsPerSec = float64(len(waits)) / wall.Seconds()
		}
		if len(waits) > 0 {
			sum.P50Micros = percentile(waits, 0.50).Microseconds()
			sum.P99Micros = percentile(waits, 0.99).Microseconds()
		}
		if len(coldWaits) > 0 {
			sum.ColdP50Micros = percentile(coldWaits, 0.50).Microseconds()
			sum.ColdP99Micros = percentile(coldWaits, 0.99).Microseconds()
		}
		if err := benchjson.Write(rc.jsonPath, sum); err != nil {
			return err
		}
	}
	if rc.tracePath != "" {
		if err := writeChromeTrace(rc.tracePath, cluster.TraceSnapshot(), cluster.TraceDropped()); err != nil {
			return err
		}
	}
	if rc.sloReport != "" {
		run := slo.RunReport{Seed: rc.seed, Jobs: len(waits), SLO: sloRep, Attribution: attr}
		if err := writeRunReport(rc.sloReport, run); err != nil {
			return err
		}
	}
	if err := writeMemProfile(rc.memprofile); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

// shardSummary is one shard's slice of the BENCH_fleet.json report.
type shardSummary struct {
	Jobs        int     `json:"jobs"`
	Completed   int     `json:"completed"`
	Rejected    int     `json:"rejected"`
	WarmHits    int     `json:"warm_hits"`
	StolenFrom  int     `json:"stolen_from"`
	StolenInto  int     `json:"stolen_into"`
	Utilization float64 `json:"utilization"`
}

// fleetSummary is the -json report of a fleet run (BENCH_fleet.json):
// fleet-level latency percentiles, membership-churn counters, and the
// warm-hit rate next to the single-cluster baseline.
type fleetSummary struct {
	Shards           int            `json:"shards"`
	ChipsPerShard    int            `json:"chips_per_shard"`
	CoresPerChip     int            `json:"cores_per_chip"`
	Jobs             int            `json:"jobs"`
	RatePerSec       float64        `json:"rate_jobs_per_s"`
	Seed             int64          `json:"seed"`
	Virtual          bool           `json:"virtual"`
	WallMillis       int64          `json:"wall_ms"`
	VirtualMillis    int64          `json:"virtual_ms"`
	Completed        int            `json:"completed"`
	Rejected         int            `json:"rejected"`
	ReHomed          int            `json:"rehomed"`
	Steals           int            `json:"steals"`
	DrainShard       int            `json:"drain_shard"`
	WarmHits         int            `json:"warm_hits"`
	WarmRate         float64        `json:"warm_hit_rate"`
	BaselineWarmRate float64        `json:"baseline_warm_hit_rate"`
	P50Micros        int64          `json:"p50_us"`
	P99Micros        int64          `json:"p99_us"`
	OrderHash        string         `json:"order_hash,omitempty"`
	PerShard         []shardSummary `json:"per_shard"`

	// Timing-backend facts; Grounded marks a -virtual replay whose
	// service times came from probe-chip cycle simulations through the
	// backend rather than the synthetic formula.
	TimingBackend string  `json:"timing_backend"`
	Grounded      bool    `json:"grounded,omitempty"`
	MemoHitRate   float64 `json:"memo_hit_rate"`
	FastSpeedup   float64 `json:"fast_vs_analytic_speedup"`

	// SLO standing and critical-path attribution; with -virtual both are
	// deterministic per seed, and ReportFingerprint digests the combined
	// RunReport (the same bytes -sloreport writes).
	SLO               *slo.Report      `json:"slo,omitempty"`
	Attribution       *slo.Attribution `json:"attribution,omitempty"`
	ReportFingerprint string           `json:"report_fingerprint,omitempty"`
}

// runVirtual replays the fleet trace on the deterministic virtual
// clock: millions of jobs in seconds of wall time, plus a single-cluster
// baseline replay of the same trace for the warm-affinity comparison.
func runVirtual(rc runConfig) error {
	cfg, err := chipConfig(rc.chipName)
	if err != nil {
		return err
	}
	cores := cfg.Cores()
	jobs := rc.jobs
	if !rc.jobsSet {
		// Virtual time is cheap: default to the CI-scale million-job day.
		jobs = 1_000_000
	}
	totalCores := rc.shards * rc.chips * cores
	rate := rc.rate
	if !rc.rateSet {
		// The trace model's mean job holds ~3 cores for ~300us, but warm
		// sessions continuous-batch on resident cores, so the sustainable
		// rate sits well above the naive per-job estimate; 1.5x of it lands
		// near 90% utilization with visible queueing and balancer activity.
		rate = 1.5 * float64(totalCores) / (3 * 300e-6)
	}
	tc := fleet.TraceConfig{
		Shards:        rc.shards,
		ChipsPerShard: rc.chips,
		CoresPerChip:  cores,
		Jobs:          jobs,
		RatePerSec:    rate,
		Tenants:       rc.tenants,
		Models:        6,
		ReuseFraction: 0.6,
		Seed:          rc.seed,
		QueueDepth:    rc.queue,
		DrainShard:    rc.drainShard,
		DrainAtFrac:   0.4,
		RejoinAtFrac:  0.7,
	}
	if tc.DrainShard >= tc.Shards {
		tc.DrainShard = -1
	}
	if _, err := timingBackend(rc.timing); err != nil {
		return err
	}
	// -grounded swaps the replay's synthetic service-time formula for
	// probe-chip cycle simulations through the -timing backend: virtual
	// time then reflects the measured per-model makespans, and under the
	// fast backend every repeat of a model is a memo replay instead of a
	// re-simulation — the replay's wall time drops while OrderHash stays
	// reproducible per seed (and equal across backends, since memo
	// replays are cycle-identical).
	var probe *timingProbe
	if rc.grounded {
		probe, err = newTimingProbe(rc.timing, tc.Models)
		if err != nil {
			return err
		}
		tc.ServiceTime = probe.service
	}
	// The replay never reads the observability taps, so a live scrape on
	// the -listen goroutine can watch a virtual-time run without
	// perturbing its determinism.
	gauges := &fleet.ReplayGauges{}
	tc.Observe = gauges
	var rec *obs.Recorder
	if rc.tracePath != "" {
		rec = obs.NewRecorder(tc.Shards, 0)
		tc.Recorder = rec
	}
	// The SLO tracker and critical-path analyzer tap the replay inline:
	// the recorder's rings would truncate a million-job day, while the
	// online folds see every event. Both are deterministic given the
	// seed, so the combined report is byte-identical across runs. (They
	// stay off the live mux: a wall-clock scrape would rotate the virtual
	// windows and corrupt the deterministic report.)
	epoch := time.Unix(0, 0)
	var tracker *slo.Tracker
	critic := slo.NewAnalyzer()
	tc.Sinks = []fleet.EventSink{critic}
	if rc.sloTarget > 0 {
		tracker = slo.NewTracker(func() time.Time { return epoch },
			[]string{"best-effort", "normal", "high", "critical"},
			slo.Objective{Class: -1, Target: rc.sloTarget, Percentile: 0.99,
				Availability: 0.999, Window: 250 * time.Millisecond})
		tc.Sinks = append(tc.Sinks, tracker)
	}
	reg := obs.NewRegistry()
	reg.AddCollector(gauges.Collect)
	defer serveTelemetry(rc.listen, obs.NewMux(reg, rec))()
	fmt.Printf("vnpuserve -virtual: %d shards x %d chips x %d cores (%s), %d jobs at %.0f jobs/s virtual, seed %d",
		tc.Shards, tc.ChipsPerShard, tc.CoresPerChip, cfg.Name, tc.Jobs, tc.RatePerSec, tc.Seed)
	if tc.DrainShard >= 0 {
		fmt.Printf(", drain shard %d at 40%% / rejoin at 70%%", tc.DrainShard)
	}
	if rc.grounded {
		fmt.Printf(", grounded service times (%s timing backend)", rc.timing)
	}
	fmt.Println()

	start := time.Now()
	res, err := fleet.Replay(tc)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	// Same trace, one shard with the whole fleet's capacity: the warm
	// pool has every key, so its hit rate bounds what sharding can keep.
	// The baseline replays untapped — its events would pollute the trace.
	base := tc
	base.Shards = 1
	base.ChipsPerShard = tc.ChipsPerShard * tc.Shards
	base.DrainShard = -1
	base.Recorder = nil
	base.Sinks = nil
	base.Observe = nil
	bres, err := fleet.Replay(base)
	if err != nil {
		return err
	}

	fmt.Printf("\nreplayed %d jobs in %s wall (%s virtual): %d completed, %d rejected typed, 0 lost\n",
		res.Jobs, wall.Round(time.Millisecond), res.VirtualSpan.Round(time.Millisecond),
		res.Completed, res.Rejected)
	if wall > 0 {
		fmt.Printf("replay speed:  %.0f jobs/s wall (%.0fx real time)\n",
			float64(res.Jobs)/wall.Seconds(), float64(res.VirtualSpan)/float64(wall))
	}
	fmt.Printf("fleet latency: p50 %s   p99 %s (sojourn)\n",
		res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	fmt.Printf("warm hits:     %.1f%% sharded vs %.1f%% single-cluster baseline (gap %.1f points)\n",
		res.WarmRate*100, bres.WarmRate*100, (bres.WarmRate-res.WarmRate)*100)
	fmt.Printf("churn:         %d steals, %d re-homed by drain   order hash %016x\n",
		res.Steals, res.ReHomed, res.OrderHash)
	groundedTiming := vnpu.TimingStats{Backend: rc.timing}
	var groundedSpeedup float64
	if probe != nil {
		groundedTiming = probe.stats()
		if rc.timing == "fast" {
			if groundedSpeedup, err = measureFastSpeedup(tc.Models); err != nil {
				return err
			}
		}
		fmt.Printf("timing:        grounded on %s backend   memo %.1f%% hit (%d hit / %d miss)",
			groundedTiming.Backend, groundedTiming.HitRate()*100, groundedTiming.Hits, groundedTiming.Misses)
		if groundedSpeedup > 0 {
			fmt.Printf("   warm replay %.1fx vs analytic", groundedSpeedup)
		}
		fmt.Println()
	}
	fmt.Println("per shard:")
	for i, sh := range res.PerShard {
		fmt.Printf("  shard %d: %7d jobs   %7d completed   %5d rejected   warm %7d   stolen %d out / %d in   util %5.1f%%\n",
			i, sh.Jobs, sh.Completed, sh.Rejected, sh.WarmHits, sh.StolenFrom, sh.StolenInto, sh.Utilization*100)
	}

	// Report time is the replay's virtual end — deterministic, so the
	// window rotation (and therefore the report bytes) is too.
	end := epoch.Add(res.VirtualSpan)
	runRep := slo.RunReport{Seed: tc.Seed, Jobs: res.Jobs, Attribution: critic.Report()}
	if tracker != nil {
		runRep.SLO = tracker.Report(end)
		printSLO(runRep.SLO)
	}
	printAttribution(runRep.Attribution)
	fp, err := slo.Fingerprint(runRep)
	if err != nil {
		return err
	}
	fmt.Printf("slo report:    fingerprint %016x (deterministic per seed)\n", fp)

	if rc.jsonPath != "" {
		sum := fleetSummary{
			Shards:           tc.Shards,
			ChipsPerShard:    tc.ChipsPerShard,
			CoresPerChip:     tc.CoresPerChip,
			Jobs:             res.Jobs,
			RatePerSec:       tc.RatePerSec,
			Seed:             tc.Seed,
			Virtual:          true,
			WallMillis:       wall.Milliseconds(),
			VirtualMillis:    res.VirtualSpan.Milliseconds(),
			Completed:        res.Completed,
			Rejected:         res.Rejected,
			ReHomed:          res.ReHomed,
			Steals:           res.Steals,
			DrainShard:       tc.DrainShard,
			WarmHits:         res.WarmHits,
			WarmRate:         res.WarmRate,
			BaselineWarmRate: bres.WarmRate,
			P50Micros:        res.P50.Microseconds(),
			P99Micros:        res.P99.Microseconds(),
			OrderHash:        fmt.Sprintf("%016x", res.OrderHash),

			TimingBackend: groundedTiming.Backend,
			Grounded:      rc.grounded,
			MemoHitRate:   groundedTiming.HitRate(),
			FastSpeedup:   groundedSpeedup,
		}
		for _, sh := range res.PerShard {
			sum.PerShard = append(sum.PerShard, shardSummary{
				Jobs:        sh.Jobs,
				Completed:   sh.Completed,
				Rejected:    sh.Rejected,
				WarmHits:    sh.WarmHits,
				StolenFrom:  sh.StolenFrom,
				StolenInto:  sh.StolenInto,
				Utilization: sh.Utilization,
			})
		}
		if tracker != nil {
			sum.SLO = &runRep.SLO
		}
		sum.Attribution = &runRep.Attribution
		sum.ReportFingerprint = fmt.Sprintf("%016x", fp)
		if err := benchjson.Write(rc.jsonPath, sum); err != nil {
			return err
		}
	}
	if rc.sloReport != "" {
		if err := writeRunReport(rc.sloReport, runRep); err != nil {
			return err
		}
	}
	if rec != nil {
		if err := writeChromeTrace(rc.tracePath, rec.Snapshot(), rec.Dropped()); err != nil {
			return err
		}
	}
	return writeMemProfile(rc.memprofile)
}

// runFleet drives a real (wall-clock) multi-shard fleet: the Poisson
// trace submits through the session-affine router, and -drain exercises
// a mid-trace drain/rejoin of one shard with zero lost jobs.
func runFleet(rc runConfig) error {
	cfg, err := chipConfig(rc.chipName)
	if err != nil {
		return err
	}
	var opts []vnpu.ClusterOption
	if rc.queue > 0 {
		opts = append(opts, vnpu.WithQueueDepth(rc.queue))
	} else {
		opts = append(opts, vnpu.WithQueueDepth(rc.jobs))
	}
	if rc.quota > 0 {
		opts = append(opts, vnpu.WithTenantQuota(rc.quota))
	}
	if rc.reuse {
		opts = append(opts, vnpu.WithSessionReuse())
	}
	if rc.workers > 0 {
		opts = append(opts, vnpu.WithMapperWorkers(rc.workers))
	}
	// One backend across every shard: the memo key covers the chip
	// configuration, so shards sharing a memo is sound and lets a model
	// warmed on one shard replay on all of them.
	backend, err := timingBackend(rc.timing)
	if err != nil {
		return err
	}
	if backend != nil {
		opts = append(opts, vnpu.WithTimingBackend(backend))
	}
	if rc.tracePath != "" {
		opts = append(opts, vnpu.WithTracing())
	}
	if rc.sloTarget > 0 {
		opts = append(opts, vnpu.WithSLO(vnpu.SLO{Target: rc.sloTarget, Window: time.Second}))
	}

	f, err := vnpu.NewFleet(cfg, rc.shards, rc.chips, opts...)
	if err != nil {
		return err
	}
	defer f.Close()
	defer serveTelemetry(rc.listen, f.Handler())()

	mixes, err := buildMix(cfg.Cores())
	if err != nil {
		return err
	}
	drain := rc.drainShard
	if drain >= rc.shards {
		drain = -1
	}
	fmt.Printf("vnpuserve -shards: %d shards x %d chips (%s), %d jobs, %d tenants, rate %.0f jobs/s, seed %d",
		rc.shards, rc.chips, cfg.Name, rc.jobs, rc.tenants, rc.rate, rc.seed)
	if drain >= 0 {
		fmt.Printf(", drain shard %d mid-trace", drain)
	}
	fmt.Println()

	rng := rand.New(rand.NewSource(rc.seed))
	ctx := context.Background()
	start := time.Now()
	handles := make([]*vnpu.FleetHandle, 0, rc.jobs)
	perShardSubmits := make([]int, rc.shards)
	var refused, missed int
	for i := 0; i < rc.jobs; i++ {
		if rc.interrupted(i) {
			break
		}
		if rc.rate > 0 && i > 0 {
			time.Sleep(time.Duration(rng.ExpFloat64() / rc.rate * float64(time.Second)))
		}
		if drain >= 0 && i == rc.jobs/3 {
			if err := f.Drain(ctx, drain); err != nil {
				return fmt.Errorf("drain shard %d: %w", drain, err)
			}
			fmt.Printf("-- drained shard %d at job %d\n", drain, i)
		}
		if drain >= 0 && i == 2*rc.jobs/3 {
			if err := f.Rejoin(drain); err != nil {
				return fmt.Errorf("rejoin shard %d: %w", drain, err)
			}
			fmt.Printf("-- rejoined shard %d at job %d\n", drain, i)
		}
		job, _ := buildJob(rng, mixes, rc)
		h, err := f.Submit(ctx, job)
		if err != nil {
			if errors.Is(err, vnpu.ErrDeadlineExceeded) {
				missed++
				continue
			}
			if errors.Is(err, vnpu.ErrQueueFull) || errors.Is(err, vnpu.ErrQuotaExceeded) ||
				errors.Is(err, vnpu.ErrNoActiveShards) {
				refused++
				continue
			}
			return fmt.Errorf("submit %d: %w", i, err)
		}
		handles = append(handles, h)
		perShardSubmits[h.Shard()]++
	}

	var waits []time.Duration
	var failed int
	for i, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			if errors.Is(err, vnpu.ErrDeadlineExceeded) {
				missed++
			} else {
				failed++
			}
			if rc.verbose {
				fmt.Fprintf(os.Stderr, "job %d failed: %v\n", i, err)
			}
			continue
		}
		waits = append(waits, h.QueueWait())
	}
	wall := time.Since(start)

	fs := f.Stats()
	fmt.Printf("\ncompleted %d jobs (%d failed typed, %d deadline-missed, %d refused typed, 0 lost) in %s\n",
		len(waits), failed, missed, refused, wall.Round(time.Millisecond))
	if wall > 0 {
		fmt.Printf("throughput:    %.1f jobs/s\n", float64(len(waits))/wall.Seconds())
	}
	var p50, p99 time.Duration
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		p50, p99 = percentile(waits, 0.50), percentile(waits, 0.99)
		fmt.Printf("queueing:      p50 %s   p99 %s   max %s\n",
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			waits[len(waits)-1].Round(time.Microsecond))
	}
	fmt.Printf("fleet:         %d steals, %d re-homed, %d rerouted, %d drains, %d rejoins, %d shards active\n",
		fs.Steals, fs.ReHomed, fs.Rerouted, fs.Drains, fs.Rejoins, fs.ActiveShards)
	var warm, cold, batched uint64
	fmt.Println("per shard:")
	for i := 0; i < f.NumShards(); i++ {
		ss := f.Shard(i).SessionStats()
		warm += ss.WarmHits
		cold += ss.ColdCreates
		batched += ss.Batched
		fmt.Printf("  shard %d: %4d submits   %4d completed   pressure %.2f", i, perShardSubmits[i], fs.Shards[i].Completed, fs.Pressure[i])
		if rc.reuse {
			fmt.Printf("   warm %.1f%%", ss.HitRate()*100)
		}
		fmt.Println()
	}
	warmRate := 0.0
	if warm+cold+batched > 0 {
		warmRate = float64(warm+batched) / float64(warm+cold+batched)
	}
	if rc.reuse {
		fmt.Printf("sessions:      %.1f%% warm fleet-wide (%d warm / %d batched / %d cold)\n",
			warmRate*100, warm, batched, cold)
	}
	fleetTiming := vnpu.TimingStats{Backend: "analytic"}
	var fleetSpeedup float64
	if backend != nil {
		fleetTiming = backend.Stats()
		if fleetSpeedup, err = measureFastSpeedup(len(mixes)); err != nil {
			return err
		}
		fmt.Printf("timing:        fast backend   memo %.1f%% hit fleet-wide (%d hit / %d miss)   warm replay %.1fx vs analytic\n",
			fleetTiming.HitRate()*100, fleetTiming.Hits, fleetTiming.Misses, fleetSpeedup)
	}
	sloRep, sloOK := f.SLOReport()
	if sloOK {
		printSLO(sloRep)
	}
	attr, attrOK := f.Attribution()
	if attrOK {
		printAttribution(attr)
	}

	if rc.jsonPath != "" {
		sum := fleetSummary{
			Shards:        rc.shards,
			ChipsPerShard: rc.chips,
			CoresPerChip:  cfg.Cores(),
			Jobs:          len(handles),
			RatePerSec:    rc.rate,
			Seed:          rc.seed,
			WallMillis:    wall.Milliseconds(),
			Completed:     len(waits),
			Rejected:      failed + missed + refused,
			ReHomed:       int(fs.ReHomed),
			Steals:        int(fs.Steals),
			DrainShard:    drain,
			WarmHits:      int(warm),
			WarmRate:      warmRate,
			P50Micros:     p50.Microseconds(),
			P99Micros:     p99.Microseconds(),

			TimingBackend: fleetTiming.Backend,
			MemoHitRate:   fleetTiming.HitRate(),
			FastSpeedup:   fleetSpeedup,
		}
		for i := range fs.Shards {
			sum.PerShard = append(sum.PerShard, shardSummary{
				Jobs:      perShardSubmits[i],
				Completed: int(fs.Shards[i].Completed),
			})
		}
		if sloOK {
			sum.SLO = &sloRep
		}
		if attrOK {
			sum.Attribution = &attr
		}
		if err := benchjson.Write(rc.jsonPath, sum); err != nil {
			return err
		}
	}
	if rc.tracePath != "" {
		if err := writeChromeTrace(rc.tracePath, f.TraceSnapshot(), f.TraceDropped()); err != nil {
			return err
		}
	}
	if rc.sloReport != "" {
		run := slo.RunReport{Seed: rc.seed, Jobs: len(waits), SLO: sloRep, Attribution: attr}
		if err := writeRunReport(rc.sloReport, run); err != nil {
			return err
		}
	}
	return writeMemProfile(rc.memprofile)
}

// serveTelemetry starts the -listen HTTP surface and returns its
// shutdown func (a no-op when the flag is unset).
func serveTelemetry(addr string, h http.Handler) func() {
	if addr == "" {
		return func() {}
	}
	srv := &http.Server{Addr: addr, Handler: h}
	fmt.Printf("telemetry:     listening on %s (/metrics, /trace, /debug/pprof/)\n", addr)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("telemetry listener: %v", err)
		}
	}()
	return func() { _ = srv.Close() }
}

// printSLO renders the error-budget standing, one line per series.
func printSLO(rep slo.Report) {
	if len(rep.Objectives) == 0 {
		return
	}
	fmt.Println("slo:")
	for _, st := range rep.Objectives {
		tenant := st.Tenant
		if tenant == "" {
			tenant = "*"
		}
		fmt.Printf("  %-4s %-12s %-11s  %7d good / %5d bad   budget %6.1f%%   burn %5.2fx fast / %5.2fx slow   p%g %s (target %s)\n",
			st.State, tenant, st.Class, st.Good, st.Bad, st.BudgetRemaining*100,
			st.BurnFast, st.BurnSlow, st.Percentile*100,
			time.Duration(st.ObservedUS)*time.Microsecond,
			time.Duration(st.TargetUS)*time.Microsecond)
	}
}

// printAttribution renders the critical-path breakdown, one line per
// segment.
func printAttribution(attr slo.Attribution) {
	if len(attr.Segments) == 0 {
		return
	}
	fmt.Printf("critical path: %s attributed over %d jobs (%d open, %d forward hops)\n",
		(time.Duration(attr.TotalUS) * time.Microsecond).Round(time.Millisecond),
		attr.Jobs, attr.Open, attr.Hops)
	for _, seg := range attr.Segments {
		fmt.Printf("  %-12s %5.1f%%   %12s over %d intervals\n",
			seg.Segment, seg.Share*100,
			(time.Duration(seg.TotalUS) * time.Microsecond).Round(time.Microsecond),
			seg.Count)
	}
}

// writeRunReport writes the combined SLO + attribution report (the
// artifact the CI regression gate diffs; byte-deterministic per seed
// with -virtual).
func writeRunReport(path string, rep slo.RunReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("slo report:    -> %s\n", path)
	return nil
}

// writeChromeTrace exports recorded lifecycle events to path as Chrome
// trace_event JSON, with the ring's drop count in the export metadata.
func writeChromeTrace(path string, events []vnpu.TraceEvent, dropped uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events, dropped); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace:         %d lifecycle events -> %s (%d overwritten in the ring)\n", len(events), path, dropped)
	if dropped > 0 {
		fmt.Printf("trace:         WARNING: export is incomplete — %d events were overwritten before the flush; raise the ring with WithTraceBufferSize\n", dropped)
	}
	return nil
}

// writeMemProfile writes a heap profile to path after a GC pass, so the
// profile reflects retained memory rather than garbage.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// percentile returns the q-quantile of sorted durations by the
// nearest-rank (ceiling) method, so p99 never understates the tail.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
