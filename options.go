package vnpu

import (
	"time"

	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Clock abstracts time for the serving stack: WallClock() for
// production, NewVirtualClock for tests and trace replay (see
// VirtualClock). Inject one with WithClock.
type Clock = sim.Clock

// VirtualClock is a Clock whose time only moves when explicitly
// advanced, with a deterministic calendar of pending timers. The fleet's
// -virtual trace replay and clock-sensitive tests run on one.
type VirtualClock = sim.VirtualClock

// WallClock returns the process-wide wall clock (the default).
func WallClock() Clock { return sim.Wall() }

// NewVirtualClock returns a VirtualClock reading start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return sim.NewVirtualClock(start)
}

// Option configures the virtual NPU a tenant asks for. Options layer over
// the plain Request struct: NewRequest (and Job.Options) applies them in
// order, so later options win. The struct remains available for callers
// that prefer to fill fields directly.
type Option func(*Request)

// NewRequest builds a Request for the given topology with the options
// applied.
func NewRequest(t *Topology, opts ...Option) Request {
	req := Request{Topology: t}
	for _, opt := range opts {
		if opt != nil {
			opt(&req)
		}
	}
	return req
}

// WithStrategy selects the core-allocation policy (default
// StrategySimilar, the paper's best-effort edit-distance mapping).
func WithStrategy(s Strategy) Option {
	return func(r *Request) { r.Strategy = s }
}

// WithMemory preallocates the given bytes of global memory. Cluster jobs
// that omit it are sized automatically from the model's footprint.
func WithMemory(bytes uint64) Option {
	return func(r *Request) { r.MemoryBytes = bytes }
}

// WithConfinement requests NoC non-interference: the vNPU's packets never
// cross foreign cores (§4.1.2).
func WithConfinement(confined bool) Option {
	return func(r *Request) { r.Confined = confined }
}

// WithTranslation selects the memory-virtualization mode (default
// TranslationRange, the paper's vChunk).
func WithTranslation(m TranslationMode) Option {
	return func(r *Request) { r.Translation = m }
}

// WithPageTLBEntries sizes the IOTLB in TranslationPage mode.
func WithPageTLBEntries(n int) Option {
	return func(r *Request) { r.PageTLBEntries = n }
}

// WithMemChannels pins the number of HBM interfaces the vNPU spans
// (default: a share proportional to its core count).
func WithMemChannels(n int) Option {
	return func(r *Request) { r.MemChannels = n }
}

// WithBandwidthCap installs the vChunk access-counter bandwidth cap:
// at most maxBytes of global-memory traffic per window of windowCycles.
func WithBandwidthCap(maxBytes, windowCycles int64) Option {
	return func(r *Request) {
		r.BandwidthCapBytes = maxBytes
		r.BandwidthWindow = sim.Cycles(windowCycles)
	}
}

// WithKVBuffer reserves bytes of every core's scratchpad as a fixed KV
// cache buffer for decode-phase transformer workloads (§7); size it with
// KVBufferBytesPerCore.
func WithKVBuffer(bytes int64) Option {
	return func(r *Request) { r.KVBufferBytes = bytes }
}

// Scheduling options of the cluster's admission core. They are
// ClusterOptions (not per-Request options) because ordering policy is a
// property of the serving front-end, not of one vNPU.

// WithDefaultPriority sets the class a Job with PriorityDefault resolves
// to (default PriorityNormal). Explicit out-of-range priorities are
// clamped to [PriorityBestEffort, PriorityCritical].
func WithDefaultPriority(p Priority) ClusterOption {
	return func(c *clusterConfig) { c.defaultPriority = p }
}

// WithTenantPriorityCap caps one tenant's scheduling class: jobs the
// tenant submits above the cap are silently clamped down to it, on both
// serving paths. Use it to keep batch tenants out of the SLO classes
// without rejecting their traffic.
func WithTenantPriorityCap(tenant string, max Priority) ClusterOption {
	return func(c *clusterConfig) {
		if c.priorityCaps == nil {
			c.priorityCaps = make(map[string]Priority)
		}
		c.priorityCaps[tenant] = max
	}
}

// WithAgingRounds tunes starvation protection: a queued job is promoted
// one class after waiting this many scheduling rounds (pops) in its
// class, bounding any admitted job's wait to
// O(NumPriorityClasses x rounds) rounds regardless of higher-class
// pressure. The default is queue.DefaultAgingRounds; negative values
// disable aging (strict classes).
func WithAgingRounds(rounds int) ClusterOption {
	return func(c *clusterConfig) { c.agingRounds = rounds }
}

// WithMapperWorkers sizes the placement engine's mapper worker pool: n
// resident goroutines from cluster construction to Close (default
// place.DefaultWorkers; n <= 0 selects the default). Mapping misses —
// hits-first parked jobs and blocking placements alike — compute on
// these workers, so at most n topology mappings run concurrently on
// behalf of the serving paths.
// Size it to the cores you can spare beside the simulator: more workers
// drain mapping backlogs faster under shape churn, fewer keep the mapper
// from competing with job execution on small hosts.
func WithMapperWorkers(n int) ClusterOption {
	return func(c *clusterConfig) { c.mapperWorkers = n }
}

// WithClock injects the clock every serving-path timestamp and timer
// reads: the dispatcher's deadline checks and queue-wait accounting, the
// session pool's TTL janitor, the placement engine's latency stats.
// Default is the wall clock. Inject a VirtualClock
// to drive a cluster in simulated time — deadlines, TTL expiry and
// latency percentiles then move only when the clock is advanced.
func WithClock(clk Clock) ClusterOption {
	return func(c *clusterConfig) { c.clock = clk }
}

// WithTracing records every job's lifecycle transitions (submit →
// admitted → placed[hit|miss|map-parked] → session[warm|cold|batched] →
// executing → done/failed) into per-shard ring buffers stamped from the
// cluster's clock, so wall-clock and virtual-time runs produce
// identically shaped traces. Read the window with Cluster.TraceSnapshot
// or export it as Chrome trace_event JSON (obs.WriteChrome; vnpuserve
// -trace). Off by default: the hot paths then pay a single nil check
// per stage. See WithTraceBufferSize for the window bound.
func WithTracing() ClusterOption {
	return func(c *clusterConfig) { c.tracing = true }
}

// WithTraceBufferSize bounds the per-shard trace ring to n events
// (default obs.DefaultTraceBuffer). Once full, the oldest events are
// overwritten; the drop count is exported as vnpu_trace_dropped_total
// and stamped into Chrome exports as metadata.droppedEvents.
func WithTraceBufferSize(n int) ClusterOption {
	return func(c *clusterConfig) { c.traceBuf = n }
}

// SLO declares one service-level objective for the cluster's error-
// budget tracker (WithSLO): jobs matching Tenant and Priority must
// finish successfully within Target at the given Percentile, and at
// least Availability of them must be good, measured over a sliding
// Window.
type SLO struct {
	// Tenant scopes the objective to one tenant; empty covers every
	// tenant, with the tracker keeping an independent budget series per
	// tenant it sees.
	Tenant string
	// Priority scopes the objective to one class; PriorityDefault covers
	// all classes, with an independent series per class.
	Priority Priority
	// Target is the per-job end-to-end sojourn bound (submit to done). A
	// job is good when it completes without error within Target.
	Target time.Duration
	// Percentile is the latency quantile reported alongside the budget
	// (default 0.99). The budget itself counts per-job good/bad outcomes.
	Percentile float64
	// Availability is the good fraction the budget protects (default
	// 0.999, i.e. a 0.1% error budget).
	Availability float64
	// Window is the sliding budget window (default one minute).
	Window time.Duration
}

// objective lowers the public declaration onto the tracker's form.
func (s SLO) objective() slo.Objective {
	class := -1
	if s.Priority != PriorityDefault {
		class = s.Priority.class()
	}
	return slo.Objective{
		Tenant:       s.Tenant,
		Class:        class,
		Target:       s.Target,
		Percentile:   s.Percentile,
		Availability: s.Availability,
		Window:       s.Window,
	}
}

// WithSLO installs per-(tenant, class) error-budget tracking for the
// given objectives. The tracker watches both serving paths through the
// same lifecycle seam as tracing (but independently of it — tracing may
// stay off), maintains multi-window burn rates per matching series, and
// surfaces them at /debug/slo on Handler's mux plus the vnpu_slo_*
// metric families on /metrics. Read it programmatically with
// Cluster.SLOReport / Fleet.SLOReport.
func WithSLO(objectives ...SLO) ClusterOption {
	return func(c *clusterConfig) { c.slos = append(c.slos, objectives...) }
}

// withSharedSLO is the fleet's internal wiring: every shard scores jobs
// into one fleet-wide tracker, whose collector the fleet registers
// exactly once (a shard-level registration would duplicate the series).
func withSharedSLO(tr *slo.Tracker) ClusterOption {
	return func(c *clusterConfig) { c.sloShared = tr }
}

// withShardObs is the fleet's internal wiring: every shard writes trace
// events into one shared recorder under its own shard index, and labels
// its metric series with that index. Installed by NewFleet; not part of
// the public option surface.
func withShardObs(rec *obs.Recorder, shard int) ClusterOption {
	return func(c *clusterConfig) {
		c.recorder = rec
		c.shard = shard
	}
}
