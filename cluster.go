package vnpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/sched"
	"github.com/vnpu-sim/vnpu/internal/session"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Cluster is the serving front-end over multiple NPU chips: jobs are
// submitted asynchronously, pass admission control (a bounded FIFO queue
// plus per-tenant in-flight quotas), and are placed by the placement
// engine — the chip whose free region matches the requested topology best
// (minimum topology edit distance), with ties going to the cheapest chip
// class and then the least-loaded chip. Each chip runs a small pool of
// execution slots (WithChipSlots): spatially disjoint vNPUs execute
// concurrently, each in its own timing domain, while overlapping regions
// serialize on a per-chip region lock. When no chip can host a job,
// dispatch parks until a finishing job frees capacity.
//
// Placement decisions are cached: scored topology mappings are memoized
// per (chip class, free-set signature, requested topology, strategy) and
// the free-set signatures are maintained incrementally on create/destroy
// deltas, so steady-state dispatch rarely runs the topology mapper at all
// (PlacementStats reports the hit rate). Chips may be heterogeneous — see
// WithChipProfiles.
//
// A Cluster of size 1 is the serving wrapper around a single System; the
// System API remains available as the synchronous single-chip building
// block.
//
// All methods are safe for concurrent use.
type Cluster struct {
	systems  []*System
	engine   *place.Engine
	disp     *sched.Dispatcher[Job, *VirtualNPU, JobReport]
	maxCores int
	// clk supplies time to every serving-path timestamp and timer —
	// deadline checks, queue-wait accounting, the session TTL janitor.
	// Wall clock unless WithClock injected another (see Clock).
	clk sim.Clock
	// chipCaps holds each chip's admission-relevant limits (core count
	// and the profile's memory bound). Submit must reject a job no single
	// chip jointly satisfies — checking cluster-wide maxima independently
	// would admit jobs that then head-of-line-block the FIFO dispatcher.
	chipCaps []chipCap

	// regions admits concurrent executions per chip: each executing job
	// claims its vNPU's core set and waits only on claims that intersect
	// it. The hypervisor hands out disjoint core sets, so on the serving
	// paths the wait is normally zero — the lock is the safety net that
	// turns an isolation bug into serialization instead of timing
	// corruption.
	regions []*chipRegions

	// coreNanos is the per-chip occupancy integral: each finished
	// execution adds its duration times the cores it held, so
	// Snapshot's ChipBusy (coreNanos / chip cores) stays a true
	// occupancy (<= wall clock) even when executions overlap.
	coreNanos []atomic.Int64
	// curJobs counts executions in flight per chip (the
	// vnpu_chip_concurrent_jobs gauge); overlap histograms the
	// concurrency level sampled at each execution start, feeding
	// ClusterStats.ExecOverlapAvg and ChipConcurrencyP99.
	curJobs []atomic.Int64
	overlap [overlapLevels]atomic.Uint64
	// regionWait observes how long each execution waited to claim its
	// region (vnpu_exec_region_wait_seconds).
	regionWait *obs.Histogram

	// pool holds resident session vNPUs when WithSessionReuse is on (nil
	// otherwise); see session.go for the serving path built on it.
	pool        *session.Pool[*sessRes, *sessTask]
	queueDepth  int
	tenantQuota int

	// capFreed is the session path's analogue of the dispatcher's freed
	// signal: a one-slot edge poked whenever capacity returns anywhere
	// (dispatcher release, session idle/evict/destroy), so session jobs
	// parked on ErrNoCapacity rescore instead of spinning or failing.
	capFreed chan struct{}

	// sessMu orders session admissions against Close: a session job joins
	// sessWG under it only while sessClosed is unset, so Close's Wait
	// cannot miss one. sessClosed also serves as the cluster's Close-once
	// flag. Every serving counter lives in the dispatcher (Admit/Finish).
	sessMu     sync.Mutex
	sessClosed bool
	sessWG     sync.WaitGroup

	// defaultPriority is the class PriorityDefault resolves to;
	// priorityCaps clamps specific tenants' classes (see
	// WithTenantPriorityCap). Both are read-only after NewCluster.
	defaultPriority Priority
	priorityCaps    map[string]Priority

	// seenMu guards seen, the auto-promotion memory: session keys
	// submitted more than once route through the pool even without
	// Job.Reusable.
	seenMu sync.Mutex
	seen   map[session.Key]uint8

	// timing is the cluster-wide timing backend (nil = analytic default);
	// every chip's System routes RunCompiled through it. See timing.go.
	timing TimingBackend

	// progMu guards progs, the compiled-program cache keyed by (model
	// fingerprint, core count, weight zone): admission sizing compiles a
	// workload once and keeps the sized program, and every later
	// execution at the same shape — cold session creates and one-shot
	// dispatcher jobs alike — reuses it as it stands, since every vNPU
	// shares one guest memory base, instead of recompiling (see
	// compileFor).
	progMu sync.Mutex
	progs  map[progKey]*progEntry

	// reg is the cluster's metrics registry (always on — counters and
	// stage histograms are cheap); rec is the lifecycle trace recorder,
	// nil unless WithTracing enabled it (or a fleet shared its recorder).
	// shard labels this cluster's metric series and trace events inside
	// a fleet (0 standalone). See telemetry.go.
	// slo is the error-budget tracker, nil unless WithSLO declared
	// objectives (or a fleet shared its tracker); it taps the same
	// lifecycle seam as rec but is independent of tracing.
	reg   *obs.Registry
	rec   *obs.Recorder
	slo   *slo.Tracker
	shard int

	// testExecHook, when set before any Submit, runs at the start of every
	// job execution — a test seam for holding jobs on their chips.
	testExecHook func(chip int)
}

// ChipProfile is the placement cost model of one chip class (compute
// throughput, NoC and memory bandwidth, memory pool). The engine prefers
// the cheapest chip that satisfies a job's topology; see WithChipProfiles.
type ChipProfile = place.ChipProfile

// ProfileFromConfig derives a chip's default cost model from its
// configuration. Override individual fields (e.g. CostPerCore) to encode
// operator-defined pricing.
func ProfileFromConfig(cfg Config) ChipProfile { return place.FromConfig(cfg) }

// ChipSpec describes one chip of a heterogeneous cluster: its hardware
// configuration plus an optional cost-model override (zero profile fields
// are derived from the configuration).
type ChipSpec struct {
	Config  Config
	Profile ChipProfile
}

// ClusterOption tunes cluster admission control and placement.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	queueDepth      int
	tenantQuota     int
	specs           []ChipSpec
	cacheSize       *int
	sessionReuse    bool
	sessionTTL      time.Duration
	sessionIdle     int
	defaultPriority Priority
	priorityCaps    map[string]Priority
	agingRounds     int
	mapperWorkers   int
	chipSlots       int
	timing          TimingBackend
	clock           sim.Clock
	tracing         bool
	traceBuf        int
	// slos are the declared error-budget objectives (WithSLO); sloShared
	// is the fleet's shared tracker (withSharedSLO), which wins over slos
	// so every shard scores into one fleet-wide budget.
	slos      []SLO
	sloShared *slo.Tracker
	// recorder/shard are set by the fleet (withShardObs) so every shard
	// writes into one shared recorder under its own shard label.
	recorder *obs.Recorder
	shard    int
}

// WithQueueDepth bounds the admission queue (default
// DefaultQueueDepth). Submissions beyond it fail with ErrQueueFull.
func WithQueueDepth(n int) ClusterOption {
	return func(c *clusterConfig) { c.queueDepth = n }
}

// WithTenantQuota caps each tenant's in-flight jobs, queued plus running
// (default unlimited). Submissions beyond it fail with ErrQuotaExceeded.
// A canceled job's slot is reclaimed when the job drains from the FIFO
// queue, not at cancellation time.
func WithTenantQuota(n int) ClusterOption {
	return func(c *clusterConfig) { c.tenantQuota = n }
}

// WithChipProfiles boots a heterogeneous cluster: one chip per spec, in
// order, each with its own configuration and placement cost model. When
// this option is given, NewCluster's cfg and chips arguments only
// validate (chips is ignored; cfg is unused) — the specs define the
// cluster. Placement sends each job to the chip realizing its topology
// with the lowest edit distance, breaking ties toward the cheapest chip
// class, so small jobs gravitate to FPGA-scale chips while DCRA-scale
// chips stay free for topologies only they can host.
func WithChipProfiles(specs ...ChipSpec) ClusterOption {
	return func(c *clusterConfig) { c.specs = append([]ChipSpec(nil), specs...) }
}

// WithPlacementCacheSize bounds the placement engine's mapping cache
// (default place.DefaultCacheSize entries); n <= 0 disables caching, so
// every dispatch scores chips cold — useful to quantify the cache's win.
func WithPlacementCacheSize(n int) ClusterOption {
	return func(c *clusterConfig) { c.cacheSize = &n }
}

// DefaultQueueDepth is the admission-queue bound when none is given.
const DefaultQueueDepth = sched.DefaultQueueDepth

// DefaultChipSlots is the per-chip execution-slot count when
// WithChipSlots is not given.
const DefaultChipSlots = 4

// WithChipSlots sets how many dispatcher jobs may execute concurrently
// on one chip (default DefaultChipSlots). Spatially disjoint vNPUs run
// overlapped, each inside its own timing domain, so every job still
// observes the cycle timeline it would see alone on the chip; jobs whose
// core regions overlap — which the hypervisor's disjoint allocations
// make rare to impossible — serialize on the chip's region lock. n = 1
// restores the fully serialized execution model.
func WithChipSlots(n int) ClusterOption {
	return func(c *clusterConfig) { c.chipSlots = n }
}

// PlacementStats is a snapshot of the placement engine's counters: cache
// hits/misses/evictions and placement-decision latency.
type PlacementStats = metrics.PlacementStats

// NewCluster boots the given number of identical NPU chips under one
// serving front-end (or the heterogeneous chips of WithChipProfiles).
// Close the cluster to stop its goroutines.
func NewCluster(cfg Config, chips int, opts ...ClusterOption) (*Cluster, error) {
	var cc clusterConfig
	for _, opt := range opts {
		opt(&cc)
	}
	specs := cc.specs
	if len(specs) == 0 {
		if chips < 1 {
			return nil, fmt.Errorf("vnpu: cluster needs at least one chip, got %d", chips)
		}
		specs = make([]ChipSpec, chips)
		for i := range specs {
			specs[i] = ChipSpec{Config: cfg}
		}
	}
	if cc.clock == nil {
		cc.clock = sim.Wall()
	}
	c := &Cluster{
		clk:             cc.clock,
		systems:         make([]*System, len(specs)),
		regions:         make([]*chipRegions, len(specs)),
		coreNanos:       make([]atomic.Int64, len(specs)),
		curJobs:         make([]atomic.Int64, len(specs)),
		progs:           make(map[progKey]*progEntry),
		seen:            make(map[session.Key]uint8),
		capFreed:        make(chan struct{}, 1),
		defaultPriority: cc.defaultPriority,
		priorityCaps:    cc.priorityCaps,
	}
	for i := range c.regions {
		c.regions[i] = newChipRegions()
	}
	if c.defaultPriority == PriorityDefault {
		c.defaultPriority = PriorityNormal
	}
	c.shard = cc.shard
	c.reg = obs.NewRegistry()
	c.regionWait = c.reg.Histogram("vnpu_exec_region_wait_seconds",
		"Time each execution waited to claim its core region on the chip.",
		c.shardLabel())
	switch {
	case cc.recorder != nil:
		c.rec = cc.recorder
	case cc.tracing:
		c.rec = obs.NewRecorder(1, cc.traceBuf)
	}
	switch {
	case cc.sloShared != nil:
		c.slo = cc.sloShared
	case len(cc.slos) > 0:
		objs := make([]slo.Objective, len(cc.slos))
		for i, s := range cc.slos {
			objs[i] = s.objective()
		}
		c.slo = slo.NewTracker(cc.clock.Now, priorityClassNames(), objs...)
	}
	engineChips := make([]place.Chip, len(specs))
	for i, spec := range specs {
		sys, err := NewSystem(spec.Config)
		if err != nil {
			return nil, fmt.Errorf("vnpu: booting chip %d: %w", i, err)
		}
		c.systems[i] = sys
		if cc.timing != nil {
			sys.SetTimingBackend(cc.timing)
		}
		if n := spec.Config.Cores(); n > c.maxCores {
			c.maxCores = n
		}
		// The derived memory filter must match what the hypervisor can
		// actually hand out (its buddy pool), not the raw HBM capacity; an
		// explicit spec override is honored but capped at the pool.
		derived := place.FromConfig(spec.Config)
		derived.MemoryBytes = sys.hv.MemCapacity()
		profile := spec.Profile.WithDefaults(derived)
		if profile.MemoryBytes > sys.hv.MemCapacity() {
			profile.MemoryBytes = sys.hv.MemCapacity()
		}
		c.chipCaps = append(c.chipCaps, chipCap{cores: spec.Config.Cores(), mem: profile.MemoryBytes})
		engineChips[i] = place.Chip{
			Graph:   sys.dev.Graph(),
			Free:    sys.hv.FreeCores(),
			Profile: profile,
		}
	}
	var engineOpts []place.Option
	if cc.cacheSize != nil {
		engineOpts = append(engineOpts, place.WithCacheSize(*cc.cacheSize))
	}
	if cc.mapperWorkers > 0 {
		engineOpts = append(engineOpts, place.WithWorkers(cc.mapperWorkers))
	}
	engineOpts = append(engineOpts, place.WithClock(cc.clock))
	engine, err := place.New(engineChips, engineOpts...)
	if err != nil {
		return nil, err
	}
	c.engine = engine
	c.timing = cc.timing
	c.queueDepth = cc.queueDepth
	if c.queueDepth <= 0 {
		c.queueDepth = DefaultQueueDepth
	}
	c.tenantQuota = cc.tenantQuota
	slots := cc.chipSlots
	if slots <= 0 {
		slots = DefaultChipSlots
	}
	disp, err := sched.New[Job, *VirtualNPU, JobReport](
		(*clusterExec)(c),
		sched.Config{
			Chips:       len(specs),
			ChipSlots:   slots,
			QueueDepth:  cc.queueDepth,
			Classes:     NumPriorityClasses,
			AgingRounds: cc.agingRounds,
			TenantQuota: cc.tenantQuota,
			// The two serving paths share the chips: busy sessions keep an
			// unplaceable dispatcher job parked (their release Kicks)
			// instead of failing it on an "idle" cluster, and idle warm
			// sessions are evicted on demand when a dispatcher job cannot
			// place — including create-stage failures like memory
			// exhaustion that ranking cannot see.
			ExternalBusy: c.sessionBusy,
			Reclaim:      c.sessionReclaim,
			Clock:        cc.clock,
			StageHist:    c.stageHist,
		},
	)
	if err != nil {
		return nil, err
	}
	if c.rec != nil || c.slo != nil {
		disp.SetObserver(func(job Job, stage obs.Stage, detail string, chip int) {
			c.trace(&job, stage, detail, chip)
		})
	}
	c.disp = disp
	c.reg.AddCollector(c.collect)
	// A fleet-shared tracker is collected once at the fleet level;
	// registering it per shard would duplicate every vnpu_slo_* series in
	// the merged scrape.
	if c.slo != nil && cc.sloShared == nil {
		c.reg.AddCollector(c.slo.Collect)
	}
	if cc.sessionReuse {
		pool, err := session.New[*sessRes, *sessTask](session.Config[*sessRes]{
			Destroy:    func(chip int, r *sessRes) error { return c.destroy(chip, r.v) },
			Cores:      func(r *sessRes) int { return r.v.NumCores() },
			Priority:   func(r *sessRes) int { return r.class },
			IsCapacity: capacityCurable,
			MaxIdle:    cc.sessionIdle,
			TTL:        cc.sessionTTL,
			Clock:      cc.clock,
			OnFree: func() {
				disp.Kick()
				c.pokeSessions()
			},
		})
		if err != nil {
			return nil, err
		}
		c.pool = pool
	}
	return c, nil
}

// chipCap is one chip's admission-relevant limits.
type chipCap struct {
	cores int
	mem   uint64
}

// progKey identifies a compiled program: the model name plus a content
// fingerprint over the layer structure, so two different caller-built
// models sharing a name (or aggregate totals) do not alias; the pipeline
// width, which changes the per-core partition; and the chip's weight
// zone, which flips the compiler's streaming decision on heterogeneous
// fleets.
type progKey struct {
	name       string
	modelSig   uint64
	cores      int
	weightZone int64
}

// progEntry is one cached compiled program with its resource layout. The
// program addresses guest memory from the base every vNPU shares, so one
// compilation serves every create at the same shape as it stands
// (ROADMAP "compile-once execution").
type progEntry struct {
	prog        *isa.Program
	memBytes    uint64
	weightBytes int64
	streaming   bool
}

// modelSignature fingerprints the model content that determines its
// compiled footprint: per-layer shape, weights and activation sizes, and
// the skip edges. Per-layer resolution matters — two models with equal
// totals but different splits partition differently. Every field is
// length- or position-delimited so variable-length names cannot make two
// different models produce the same byte stream.
func modelSignature(m Model) uint64 {
	h := fnv.New64a()
	fold := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	fold(m.InputBytes, int64(len(m.Layers)))
	for _, l := range m.Layers {
		fold(int64(len(l.Name)))
		h.Write([]byte(l.Name))
		fold(l.WeightBytes, l.OutBytes, l.AddBytes, l.FLOPs())
	}
	for _, s := range m.Skips {
		fold(int64(s.From), int64(s.To))
	}
	return h.Sum64()
}

// compileCached compiles the model for the given shape on one chip —
// served from the program cache when the shape was compiled before
// (admission sizing or an earlier create), so one compilation covers the
// whole cluster's traffic at that shape. Every vNPU's guest memory starts
// at the same base, so the cached program runs unchanged on any vNPU of
// the shape: nothing is copied or rebased per job.
func (c *Cluster) compileCached(chip int, m Model, sig uint64, cores int) (*progEntry, error) {
	sys := c.systems[chip]
	key := progKey{name: m.Name, modelSig: sig, cores: cores, weightZone: sys.weightZone()}
	c.progMu.Lock()
	ent, ok := c.progs[key]
	c.progMu.Unlock()
	if !ok {
		prog, info, err := sys.compileAt(m, cores)
		if err != nil {
			return nil, err
		}
		ent = &progEntry{
			prog:        prog,
			memBytes:    info.MemBytes,
			weightBytes: info.WeightBytes,
			streaming:   info.Streaming,
		}
		c.progMu.Lock()
		// Bound the cache so distinct caller-built models cannot grow it
		// forever; evicting an arbitrary entry is fine for a recomputable
		// cache under steady traffic of few shapes. A racing compile of
		// the same key keeps whichever entry lands last — both are valid.
		if len(c.progs) >= progLimit {
			for k := range c.progs {
				delete(c.progs, k)
				break
			}
		}
		c.progs[key] = ent
		c.progMu.Unlock()
	}
	return ent, nil
}

// compileFor is the serving-path replacement for System.CompileFor: it
// resolves the job's program through the cluster's compile-once cache
// and checks that the target vNPU's memory holds its footprint, so cold
// session creates and repeat one-shot jobs skip the compiler entirely and
// share the cached program itself.
func (c *Cluster) compileFor(chip int, v *VirtualNPU, m Model, sig uint64) (*CompiledModel, error) {
	ent, err := c.compileCached(chip, m, sig, v.NumCores())
	if err != nil {
		return nil, err
	}
	if err := checkFootprint(m.Name, ent.memBytes, v); err != nil {
		return nil, err
	}
	return &CompiledModel{
		prog:        ent.prog,
		model:       m.Name,
		cores:       v.NumCores(),
		memBytes:    ent.memBytes,
		weightBytes: ent.weightBytes,
		streaming:   ent.streaming,
	}, nil
}

// modelMemoryBytes sizes a model's global-memory footprint for the given
// core count. The sizing compilation is not discarded: it lands in the
// program cache (keyed by model fingerprint, core count and weight
// zone), so the later cold create at the same shape reuses the program
// instead of recompiling. The caller supplies the fingerprint, which
// Submit computes once and shares with the session-key computation. The
// footprint (input + weights + output) is chip-invariant — per-chip
// scratchpad differences only flip the compiler's streaming decision —
// so chip 0 can size it.
func (c *Cluster) modelMemoryBytes(m Model, sig uint64, cores int) (uint64, error) {
	ent, err := c.compileCached(0, m, sig, cores)
	if err != nil {
		return 0, err
	}
	return ent.memBytes, nil
}

// progLimit bounds the program cache (distinct model/shape pairs).
const progLimit = 1024

// resolvePriority applies the cluster default, the tenant's class cap
// and range clamping, returning the job's effective class.
func (c *Cluster) resolvePriority(job Job) Priority {
	p := job.Priority
	if p == PriorityDefault {
		p = c.defaultPriority
	}
	if p < PriorityBestEffort {
		p = PriorityBestEffort
	}
	if p > PriorityCritical {
		p = PriorityCritical
	}
	if cap, ok := c.priorityCaps[job.tenant()]; ok && p > cap {
		if cap < PriorityBestEffort {
			cap = PriorityBestEffort
		}
		p = cap
	}
	return p
}

// Submit validates the job, applies admission control and enqueues it,
// returning immediately. Admission errors wrap ErrQueueFull,
// ErrQuotaExceeded, ErrDeadlineExceeded (Job.Deadline already passed) or
// ErrDestroyed (closed cluster); a malformed job (nil topology, invalid
// model) fails with a plain validation error. The context governs the
// job's whole lifetime: canceling it abandons the job whether queued or
// awaiting capacity.
//
// Admission order is owned by one scheduler core across both serving
// paths: higher Priority classes place first (with aging protecting
// lower classes from starvation), earlier Deadlines first within a
// class, admission order last — and session-eligible jobs cannot outrun
// older queued one-shot jobs of equal-or-higher class (they wait their
// turn on a shared sequence ticket).
func (c *Cluster) Submit(ctx context.Context, job Job) (*Handle, error) {
	if job.Topology == nil || job.Topology.NumNodes() == 0 {
		return nil, fmt.Errorf("vnpu: job needs a topology")
	}
	if err := job.Model.Validate(); err != nil {
		return nil, fmt.Errorf("vnpu: job model: %w", err)
	}
	// Resolve the scheduling class once; everything downstream (queue
	// order, session eviction weight, per-class stats, JobReport) reads
	// the resolved value.
	job.Priority = c.resolvePriority(job)
	// A topology larger than the largest chip can never be placed; reject
	// it here rather than letting it head-of-line-block the FIFO
	// dispatcher until the cluster drains.
	if n := job.Topology.NumNodes(); n > c.maxCores {
		return nil, fmt.Errorf("vnpu: job topology needs %d cores, largest chip has %d: %w",
			n, c.maxCores, ErrTopologyUnsatisfiable)
	}
	// The model fingerprint keys the program cache and the session
	// class; hash the model once per Submit and share it.
	modelSig := modelSignature(job.Model)
	job.modelSig = modelSig
	// Size the job's memory from its model once, up front on the caller's
	// goroutine — memoized across submissions, so steady-state admission
	// does not recompile the workload at all. Place must never compile on
	// the dispatch path.
	req := job.request()
	if req.MemoryBytes == 0 {
		bytes, err := c.modelMemoryBytes(job.Model, modelSig, job.Topology.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("vnpu: sizing job memory: %w", err)
		}
		req.MemoryBytes = bytes
		opts := job.Options
		job.Options = append(opts[:len(opts):len(opts)], WithMemory(bytes))
	}
	// Like the core-count guard, but joint: some single chip must satisfy
	// BOTH the core count and the memory bound, or no placement can ever
	// succeed — checking the two against independent cluster-wide maxima
	// would admit such a job on any heterogeneous fleet where one chip
	// has the cores and a different one has the memory.
	fits := false
	for _, cap := range c.chipCaps {
		if job.Topology.NumNodes() <= cap.cores && req.MemoryBytes <= cap.mem {
			fits = true
			break
		}
	}
	if !fits {
		return nil, fmt.Errorf("vnpu: no chip has both %d cores and %d bytes of memory: %w",
			job.Topology.NumNodes(), req.MemoryBytes, ErrMemoryExceeded)
	}
	// Validation passed: hand the job its trace identity and record the
	// submit edge (the fleet-shared recorder or SLO tracker keeps ids
	// unique across shards, so a forwarded job keeps one track).
	if c.rec != nil || c.slo != nil {
		if job.obsID == 0 {
			if c.rec != nil {
				job.obsID = c.rec.NextJob()
			} else {
				job.obsID = c.slo.NextJob()
			}
		}
		c.trace(&job, obs.StageSubmit, "", -1)
	}
	// Session-eligible jobs lease resident vNPUs instead of paying
	// create→map→run→destroy per job: explicit opt-in via Job.Reusable, or
	// auto-promotion once the same (tenant, model, topology, options)
	// fingerprint repeats. Everything else takes the dispatcher path.
	if c.pool != nil {
		if key, ok := sessionKeyOf(job, req, modelSig); ok && (job.Reusable || c.autoPromote(key)) {
			return c.submitSession(ctx, job, req, key)
		}
	}
	h, err := c.disp.Submit(ctx, job.tenant(), job.Priority.class(), job.Deadline, job)
	if err != nil {
		return nil, err
	}
	return &Handle{h: h}, nil
}

// Chips reports the number of chips in the cluster.
func (c *Cluster) Chips() int { return len(c.systems) }

// Chip returns the i-th chip's System for direct (synchronous) use or
// inspection. Mixing direct Create/RunModel calls with an active job
// stream on the same chip is not supported (direct creates bypass the
// placement engine's view of the chip's free cores).
func (c *Cluster) Chip(i int) *System { return c.systems[i] }

// Utilization reports the fraction of allocated cores per chip. Cores
// held by idle (warm) resident sessions count as allocated here — they
// are, from the hypervisor's point of view — but the scheduler's load
// tiebreak deliberately does not use this number: see CoreUsage for the
// split between actively executing and warm-idle cores.
func (c *Cluster) Utilization() []float64 {
	out := make([]float64, len(c.systems))
	for i, sys := range c.systems {
		out[i] = sys.Utilization()
	}
	return out
}

// Close stops intake on both serving paths, waits for every admitted job
// to finish, destroys the resident session vNPUs, and shuts down the
// dispatcher and chip workers. Submissions after Close fail with
// ErrDestroyed.
func (c *Cluster) Close() error {
	c.sessMu.Lock()
	already := c.sessClosed
	c.sessClosed = true
	c.sessMu.Unlock()
	if already {
		return fmt.Errorf("vnpu: cluster closed: %w", ErrDestroyed)
	}
	// Session jobs may still be draining micro-queues; they finish (or
	// fail on canceled contexts) on their own.
	c.sessWG.Wait()
	var poolErr error
	if c.pool != nil {
		poolErr = c.pool.Close()
	}
	if err := c.disp.Close(); err != nil {
		return err
	}
	// The dispatcher has drained every job (including map-parked ones),
	// so no one waits on an async mapping anymore; stop the workers last.
	c.engine.Close()
	return poolErr
}

// ClusterStats is a snapshot of serving counters.
type ClusterStats struct {
	// Submitted counts jobs admitted past quota and queue checks.
	Submitted uint64
	// RejectedQueueFull counts submissions refused with ErrQueueFull.
	RejectedQueueFull uint64
	// RejectedQuota counts submissions refused with ErrQuotaExceeded.
	RejectedQuota uint64
	// Completed counts jobs that finished successfully.
	Completed uint64
	// Failed counts jobs that finished with an error (including
	// cancellations).
	Failed uint64
	// ChipJobs counts executed jobs per chip.
	ChipJobs []int
	// ChipBusy is the per-chip occupancy integral: each execution's
	// duration weighted by the fraction of the chip's cores its vNPU
	// held. Unlike a wall-clock sum over possibly overlapping
	// executions, it never exceeds elapsed time, so busy/wall stays a
	// true per-chip utilization.
	ChipBusy []time.Duration
	// HitsFirst counts dispatcher jobs started through the hits-first
	// fast path (an exact cached fit).
	HitsFirst uint64
	// MapParked counts parks, not jobs: each time a dispatch parked on an
	// async mapping instead of blocking the dispatch loop on a mapper run.
	// A job whose free set moves under its mapping parks again.
	MapParked uint64
	// ExecOverlapAvg is the mean number of executions in flight on a
	// chip, sampled at each execution's start (1 = fully serialized).
	ExecOverlapAvg float64
	// ChipConcurrencyP99 is the 99th percentile of the same
	// concurrency-level samples.
	ChipConcurrencyP99 float64
}

// SchedStats is a per-class snapshot of the scheduler core: submissions,
// completions, deadline misses, queued-work displacements, aging
// promotions and p50/p99 queueing latency per priority class, covering
// BOTH serving paths. Index it with Priority.class-order (0 =
// PriorityBestEffort ... 3 = PriorityCritical).
type SchedStats = metrics.SchedStats

// SchedStats returns the per-class scheduler counters.
func (c *Cluster) SchedStats() SchedStats { return c.Snapshot().Sched }

// Stats returns a snapshot of the cluster's serving counters, covering
// both serving paths: one-shot and session jobs alike are admitted and
// finished by the scheduler core, which owns Submitted/Completed/Failed
// and the per-chip totals. It reads through Snapshot (see telemetry.go).
func (c *Cluster) Stats() ClusterStats { return c.Snapshot().Cluster }

// PlacementStats returns a snapshot of the placement engine's counters:
// mapping-cache hits, misses and evictions, plus cumulative and average
// placement-decision latency.
func (c *Cluster) PlacementStats() PlacementStats { return c.Snapshot().Placement }

// Pressure reports the cluster's serving load as a routing signal for a
// fleet's one-shot balancer: admitted-but-unfinished work on both
// serving paths normalized by the queue depth, plus the fraction of
// cores any vNPU holds (running jobs and resident sessions alike — the
// held-core term keeps traffic off shards whose capacity is pinned even
// when their queues are short). Higher means more loaded; the scale is
// comparable across shards of one fleet, not across differently-sized
// clusters.
func (c *Cluster) Pressure() float64 {
	p := float64(c.disp.Pending()) / float64(c.queueDepth)
	total, held := 0, 0
	for _, sys := range c.systems {
		cores := sys.Config().Cores()
		total += cores
		held += cores - sys.FreeCores()
	}
	if total > 0 {
		p += float64(held) / float64(total)
	}
	return p
}

// quiesced reports that the cluster owns no admitted-but-unfinished work
// on either serving path — the drain condition a fleet waits for.
func (c *Cluster) quiesced() bool { return c.disp.Pending() == 0 }

// flushSessions evicts every idle resident session, returning capacity
// to the chips — a drained shard must not keep warm leases whose keys
// now hash to another shard. Busy sessions cannot exist on a quiesced
// cluster, so this empties the pool.
func (c *Cluster) flushSessions() int {
	if c.pool == nil {
		return 0
	}
	const all = int(^uint(0) >> 1)
	return c.pool.EvictIdle(all)
}

// clusterExec adapts the Cluster to the dispatcher's Executor interface.
// Rank and Place run on the dispatcher goroutine, Execute and Release on
// one of the owning chip's execution slots — the hypervisor's and
// engine's own locks cover that concurrency, and execution itself is
// admitted by the chip's region lock: disjoint vNPUs overlap in their
// private timing domains, overlapping ones serialize.
type clusterExec Cluster

// placeRequest projects a job's Request onto the placement engine's.
func placeRequest(req Request) place.Request {
	return place.Request{
		Topology:    req.Topology,
		Strategy:    req.Strategy,
		MapOptions:  req.MapOptions,
		MemoryBytes: req.MemoryBytes,
	}
}

// Rank is the dispatcher's one placement question per attempt, put to the
// placement engine: the complete rank when every chip's mapping is cached,
// the exact cached fits when only some are (hits-first: edit distance 0 is
// a cold optimum, so a job started from one gives up nothing), else the
// edge the job parks on while the engine's workers map what is missing.
// Candidates are scored by topology edit distance then chip price. A load
// term — the chip's actively executing cores blended with its worker
// backlog — breaks exact ties, so equally-good placements spread across
// chips instead of piling onto the first one; it can never override a cost
// or price difference, however small. Cores held by idle warm sessions
// are excluded from the load term (they are reclaimable, not busy) and
// instead feed the Warm tiebreak, so a backlogged chip with a warm pool
// wins ties over one whose allocation is all hard.
//
// Rank evicts nothing: when warm sessions hold the capacity a job needs,
// the dispatcher's Reclaim hook frees it after the failed attempt.
func (e *clusterExec) Rank(job Job) ([]sched.Candidate, <-chan struct{}, error) {
	cands, pending, err := e.engine.Rank(placeRequest(job.request()))
	return e.scoreCandidates(cands), pending, err
}

// scoreCandidates folds the load and warm terms into the engine's
// cost/price candidates (see Rank for the semantics of each term).
func (e *clusterExec) scoreCandidates(cands []place.Candidate) []sched.Candidate {
	out := make([]sched.Candidate, len(cands))
	for i, c := range cands {
		backlog := float64(e.disp.Backlog(c.Chip))
		usage := (*Cluster)(e).coreUsage(c.Chip)
		out[i] = sched.Candidate{
			Chip: c.Chip,
			Score: sched.Score{
				Cost:  c.Cost,
				Price: c.Price,
				Load:  (usage.ActiveFraction() + backlog/(backlog+1)) / 2,
				Warm:  usage.WarmFraction(),
			},
		}
	}
	return out
}

// RankCached is the dispatcher's backfill rank: only chips whose mapping
// for the job is already cached (and valid under the current free sets)
// qualify, and no mapping is ever computed — an opportunistic
// out-of-order placement must be free to evaluate, or backfilling would
// serialize mapper work behind the head-of-line job it is meant to
// bypass.
func (e *clusterExec) RankCached(job Job) []sched.Candidate {
	return e.scoreCandidates(e.engine.PlaceCached(placeRequest(job.request())))
}

// createPlaced creates a vNPU for the request on the chip from the
// mapping the engine claims for it (the hypervisor never re-runs the
// topology mapper on the serving paths). The claimed cores left the
// engine's free set in the step that resolved them, so a concurrent
// create on the chip — the dispatcher's or a cold session's — can only be
// handed other cores; a create the hypervisor still refuses (memory, say)
// gives them back.
func (c *Cluster) createPlaced(chip int, req Request) (*VirtualNPU, error) {
	mapRes, err := c.engine.Claim(chip, placeRequest(req))
	if err != nil {
		return nil, err
	}
	v, err := c.systems[chip].hv.CreateVNPUPlaced(req, mapRes)
	if err != nil {
		if relErr := c.engine.Release(chip, mapRes.Nodes); relErr != nil {
			err = fmt.Errorf("%w (release: %v)", err, relErr)
		}
		return nil, err
	}
	return v, nil
}

// create is the one way a serving vNPU comes to exist — clusterExec.Place
// for a one-shot job, the session pool's cold path for a resident one:
// place it from the engine's mapping, its cores booked, and open its
// private timing domain, so every execution overlaps disjoint neighbors
// and none resets chip-global timing state. The hypervisor hands out
// disjoint core sets, so a domain overlap failure means the placement
// view is corrupt — undo the create rather than execute on shared timing.
func (c *Cluster) create(chip int, req Request) (*VirtualNPU, error) {
	v, err := c.createPlaced(chip, req)
	if err != nil {
		return nil, err
	}
	if err := v.OpenDomain(); err != nil {
		_ = c.destroy(chip, v)
		return nil, err
	}
	return v, nil
}

// destroy undoes create: the vNPU's cores and memory return to the chip,
// and the freed cores to the engine's free set.
func (c *Cluster) destroy(chip int, v *VirtualNPU) error {
	nodes := append([]topo.NodeID(nil), v.Nodes()...)
	if err := c.systems[chip].Destroy(v); err != nil {
		return err
	}
	return c.engine.Release(chip, nodes)
}

// execute is the one execution of a job on a vNPU the caller holds — the
// dispatcher's chip worker through clusterExec.Execute, the session run
// loop directly. A job canceled, or past its scheduling deadline, by the
// time it gets here fails without running. The program is *prog when the
// caller has one (a resident session keeps its own across jobs);
// otherwise it comes from the compile-once cache and is stored there —
// resolved before the region claim, so a compile never holds cores
// another job might be waiting on. The claim admits the run (normally at
// once: placed vNPUs hold disjoint cores) and the vNPU's private timing
// domain is reset, so each job gets a fresh cycle timeline without
// disturbing its neighbors. The simulator polls ctx between timeline
// events, so cancellation also lands mid-run.
//
// The returned duration is the claim-to-release time — what the
// occupancy integral and the "exec" stage histogram mean by execution on
// both paths. Waiting for a conflicting region is not part of it, or
// per-chip busy% could exceed 100%; it is read before the release, or
// post-release descheduling would bleed into it.
func (c *Cluster) execute(ctx context.Context, chip int, v *VirtualNPU, prog **CompiledModel, job *Job) (JobReport, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return JobReport{}, 0, fmt.Errorf("vnpu: job canceled before execution: %w", err)
	}
	if !job.Deadline.IsZero() && c.clk.Now().After(job.Deadline) {
		return JobReport{}, 0, fmt.Errorf("vnpu: deadline passed before execution: %w", ErrDeadlineExceeded)
	}
	if *prog == nil {
		cm, err := c.compileFor(chip, v, job.Model, job.modelSig)
		if err != nil {
			return JobReport{}, 0, err
		}
		*prog = cm
	}
	claim := c.acquireRegion(chip, v)
	start := c.clk.Now()
	if c.testExecHook != nil {
		c.testExecHook(chip)
	}
	v.ResetForRun()
	rep, err := c.systems[chip].RunCompiled(ctx, v, *prog, job.Iterations)
	busy := c.clk.Since(start)
	c.releaseRegion(chip, claim, v.NumCores(), busy)
	if err != nil {
		return JobReport{}, busy, err
	}
	return JobReport{
		Report:   rep,
		Chip:     chip,
		Tenant:   job.tenant(),
		Model:    job.Model.Name,
		MapCost:  v.MapCost(),
		Priority: job.Priority,
	}, busy, nil
}

// Place creates the job's vNPU on the chosen chip. The request's memory
// was already sized at Submit.
func (e *clusterExec) Place(chip int, job Job) (*VirtualNPU, error) {
	return (*Cluster)(e).create(chip, job.request())
}

// Execute runs the job on its placed vNPU. Admission sizing already
// compiled the shape, so repeat one-shot traffic runs the cached program
// instead of recompiling per job.
func (e *clusterExec) Execute(ctx context.Context, chip int, v *VirtualNPU, job Job) (JobReport, time.Duration, error) {
	var prog *CompiledModel
	return (*Cluster)(e).execute(ctx, chip, v, &prog, &job)
}

// Release destroys the job's vNPU.
func (e *clusterExec) Release(chip int, v *VirtualNPU) error {
	if err := (*Cluster)(e).destroy(chip, v); err != nil {
		return err
	}
	// Session jobs parked on capacity watch dispatcher releases too.
	(*Cluster)(e).pokeSessions()
	return nil
}
