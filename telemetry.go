package vnpu

import (
	"net/http"
	"strconv"
	"time"

	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
)

// This file is the cluster's observability plane (see internal/obs):
// the metrics registry every counter family reports into, the lifecycle
// trace hooks shared by both serving paths, and the unified snapshot
// that replaces the former per-family ad-hoc field copies.

// TraceEvent is one recorded job lifecycle transition; see
// Cluster.TraceSnapshot and obs.Event for field semantics.
type TraceEvent = obs.Event

// Registry exposes the cluster's metrics registry: every serving
// counter family (ClusterStats, SchedStats, PlacementStats,
// SessionStats) plus the per-stage latency histograms, scrapeable as
// Prometheus text via obs.Registry.WritePrometheus or programmatically
// via collectors. Fleet shards share their registries with the fleet's
// (see Fleet.Registry).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// TraceSnapshot copies the retained lifecycle trace events out of the
// cluster's ring buffers, in record order. It returns nil when tracing
// is off (see WithTracing).
func (c *Cluster) TraceSnapshot() []TraceEvent {
	if c.rec == nil {
		return nil
	}
	return c.rec.Snapshot()
}

// Handler returns the cluster's live telemetry surface — /metrics
// (Prometheus text exposition), /trace and /trace.json (the lifecycle
// trace window, raw and as Chrome trace_event JSON; 404 unless
// WithTracing is on), /debug/slo (the error-budget report; 404 unless
// WithSLO declared objectives), and /debug/pprof/. Serve it with
// http.Server; every endpoint reads through snapshot paths and is safe
// under load (vnpuserve -listen).
func (c *Cluster) Handler() http.Handler {
	return obs.NewMux(c.reg, c.rec, sloEndpoints(c.slo)...)
}

// sloEndpoints hangs the tracker's report handler off the telemetry mux
// (empty when no objectives are declared).
func sloEndpoints(tr *slo.Tracker) []obs.Endpoint {
	if tr == nil {
		return nil
	}
	return []obs.Endpoint{{Path: "/debug/slo", Handler: tr}}
}

// priorityClassNames is the class-index → label-name table shared by the
// SLO tracker and the metric families (index 0 = PriorityBestEffort).
func priorityClassNames() []string {
	names := make([]string, NumPriorityClasses)
	for i := range names {
		names[i] = Priority(i + 1).String()
	}
	return names
}

// SLOReport computes the current error-budget report — one Status per
// (objective, tenant, class) series with window counts, budget
// remaining, fast/slow burn rates and the ok/warn/page state. The
// boolean is false when WithSLO declared no objectives.
func (c *Cluster) SLOReport() (slo.Report, bool) {
	if c.slo == nil {
		return slo.Report{}, false
	}
	return c.slo.Report(c.clk.Now()), true
}

// Attribution folds the retained trace window into a critical-path
// report: per-segment sojourn totals (queue-wait, map-park, batching,
// execution, ...) with per-shard and per-tenant margins. It covers the
// ring window only — check TraceDropped for truncation — and returns
// false when tracing is off.
func (c *Cluster) Attribution() (slo.Attribution, bool) {
	if c.rec == nil {
		return slo.Attribution{}, false
	}
	a := slo.NewAnalyzer()
	a.Feed(c.rec.Snapshot())
	return a.Report(), true
}

// TraceDropped reports how many trace events the ring buffers have
// overwritten — the truncation of TraceSnapshot's window.
func (c *Cluster) TraceDropped() uint64 {
	if c.rec == nil {
		return 0
	}
	return c.rec.Dropped()
}

// shardLabel is the cluster's shard label value (its index in a fleet,
// "0" standalone).
func (c *Cluster) shardLabel() obs.Label {
	return obs.Label{Key: "shard", Value: strconv.Itoa(c.shard)}
}

// stageHist is the StageHist provider handed to the scheduler core: one
// histogram per (stage, priority class), registered in the cluster's
// registry under the shared vnpu_stage_latency_seconds family so every
// shard reports into mergeable series.
func (c *Cluster) stageHist(stage string, class int) *obs.Histogram {
	return c.reg.Histogram("vnpu_stage_latency_seconds",
		"Serving latency per lifecycle stage and priority class.",
		obs.Label{Key: "class", Value: Priority(class + 1).String()},
		c.shardLabel(),
		obs.Label{Key: "stage", Value: stage},
	)
}

// trace records one lifecycle event for a job. It is the single
// recording seam for both serving paths — the dispatcher calls it via
// SetObserver, the session path directly — feeding the trace recorder
// and the SLO tracker alike, and a no-op when both are off, so the hot
// paths pay two nil checks. The pointer spares the hot paths a Job copy
// per stage.
func (c *Cluster) trace(job *Job, stage obs.Stage, detail string, chip int) {
	if c.rec == nil && c.slo == nil {
		return
	}
	e := obs.Event{
		Job:    job.obsID,
		Stage:  stage,
		Detail: detail,
		Class:  job.Priority.class(),
		Shard:  c.shard,
		Chip:   chip,
		Tenant: job.tenant(),
		At:     c.clk.Now(),
	}
	if c.rec != nil {
		c.rec.Record(c.shard, e)
	}
	if c.slo != nil {
		c.slo.Observe(e)
	}
}

// ClusterSnapshot bundles every per-cluster counter family, captured in
// one pass: the scheduler core owns the job counters of both serving
// paths, so one dispatcher read feeds them all.
type ClusterSnapshot struct {
	Cluster   ClusterStats
	Sched     SchedStats
	Placement PlacementStats
	Sessions  SessionStats
	Timing    TimingStats
}

// Snapshot captures every counter family at once. Stats, SchedStats,
// SessionStats and PlacementStats read through it.
func (c *Cluster) Snapshot() ClusterSnapshot {
	ds := c.disp.Stats()
	// The dispatcher already returns defensive slice copies. ChipBusy
	// comes from the cluster's occupancy integral (releaseRegion).
	s := ClusterStats{
		Submitted:         ds.Submitted,
		RejectedQueueFull: ds.RejectedQueueFull,
		RejectedQuota:     ds.RejectedQuota,
		Completed:         ds.Completed,
		Failed:            ds.Failed,
		ChipJobs:          ds.ChipJobs,
		ChipBusy:          make([]time.Duration, len(c.systems)),
		HitsFirst:         ds.HitsFirst,
		MapParked:         ds.MapParked,
	}
	for i := range s.ChipBusy {
		if cores := c.chipCaps[i].cores; cores > 0 {
			s.ChipBusy[i] = time.Duration(c.coreNanos[i].Load() / int64(cores))
		}
	}
	var levels, samples uint64
	for lvl := 1; lvl <= overlapLevels; lvl++ {
		n := c.overlap[lvl-1].Load()
		samples += n
		levels += uint64(lvl) * n
	}
	if samples > 0 {
		s.ExecOverlapAvg = float64(levels) / float64(samples)
		var cum uint64
		for lvl := 1; lvl <= overlapLevels; lvl++ {
			cum += c.overlap[lvl-1].Load()
			if float64(cum) >= 0.99*float64(samples) {
				s.ChipConcurrencyP99 = float64(lvl)
				break
			}
		}
	}
	snap := ClusterSnapshot{
		Cluster:   s,
		Sched:     SchedStats{Classes: ds.PerClass},
		Placement: c.engine.Stats(),
		Timing:    c.TimingStats(),
	}
	if c.pool != nil {
		snap.Sessions = c.pool.Stats()
	}
	return snap
}

// collect is the cluster registry's scalar collector: one Snapshot
// feeds every exported counter and gauge, labeled by shard (and chip,
// class, reason where applicable).
func (c *Cluster) collect(emit func(obs.Sample)) {
	snap := c.Snapshot()
	shard := c.shardLabel()
	counter := func(name, help string, v float64, labels ...obs.Label) {
		emit(obs.Sample{Name: name, Help: help, Labels: append(labels, shard), Value: v})
	}

	cs := snap.Cluster
	counter("vnpu_jobs_submitted_total", "Jobs admitted past quota and queue checks.", float64(cs.Submitted))
	counter("vnpu_jobs_completed_total", "Jobs finished successfully.", float64(cs.Completed))
	counter("vnpu_jobs_failed_total", "Jobs finished with an error.", float64(cs.Failed))
	counter("vnpu_jobs_rejected_total", "Submissions refused at admission.", float64(cs.RejectedQueueFull),
		obs.Label{Key: "reason", Value: "queue_full"})
	counter("vnpu_jobs_rejected_total", "Submissions refused at admission.", float64(cs.RejectedQuota),
		obs.Label{Key: "reason", Value: "quota"})
	counter("vnpu_jobs_hits_first_total", "Dispatcher jobs started on an exact cached fit.", float64(cs.HitsFirst))
	counter("vnpu_jobs_map_parked_total", "Times a dispatch parked on an async mapping (a job may park more than once).", float64(cs.MapParked))
	for i := range cs.ChipJobs {
		chip := obs.Label{Key: "chip", Value: strconv.Itoa(i)}
		counter("vnpu_chip_jobs_total", "Jobs executed per chip.", float64(cs.ChipJobs[i]), chip)
		counter("vnpu_chip_busy_seconds_total", "Per-chip occupancy: execution time weighted by the core fraction held.", cs.ChipBusy[i].Seconds(), chip)
		counter("vnpu_chip_concurrent_jobs", "Jobs currently executing on the chip.", float64(c.curJobs[i].Load()), chip)
	}

	for i, cl := range snap.Sched.Classes {
		class := obs.Label{Key: "class", Value: Priority(i + 1).String()}
		counter("vnpu_class_submitted_total", "Jobs admitted per priority class (both serving paths).", float64(cl.Submitted), class)
		counter("vnpu_class_completed_total", "Jobs completed per priority class.", float64(cl.Completed), class)
		counter("vnpu_class_failed_total", "Jobs failed per priority class.", float64(cl.Failed), class)
		counter("vnpu_class_deadline_misses_total", "Jobs whose deadline passed before placement, per class.", float64(cl.DeadlineMisses), class)
		counter("vnpu_class_displaced_total", "Queued jobs displaced by higher-class arrivals, per class.", float64(cl.Displaced), class)
		counter("vnpu_class_backfilled_total", "Jobs placed out of strict order into capacity the head could not use, per class.", float64(cl.Backfilled), class)
		counter("vnpu_class_promotions_total", "Aging promotions out of the class.", float64(cl.Promotions), class)
	}

	ps := snap.Placement
	counter("vnpu_placement_decisions_total", "Placement decisions taken.", float64(ps.Placements))
	counter("vnpu_placement_cache_hits_total", "Mapping resolutions served from the placement cache.", float64(ps.CacheHits))
	counter("vnpu_placement_cache_misses_total", "Mapping resolutions that ran the topology mapper.", float64(ps.CacheMisses))
	counter("vnpu_placement_cache_evictions_total", "Placement cache entries evicted.", float64(ps.CacheEvictions))
	counter("vnpu_placement_cache_entries", "Placement cache entries resident.", float64(ps.CacheSize))
	counter("vnpu_placement_decision_seconds_total", "Cumulative time spent in placement decisions.", ps.PlaceTime.Seconds())
	counter("vnpu_placement_map_seconds_total", "Cumulative time spent inside the topology mapper.", ps.MapTime.Seconds())
	counter("vnpu_placement_async_maps_total", "Mapping computations scheduled on the async mapper workers.", float64(ps.AsyncMaps))

	ts := snap.Timing
	backend := obs.Label{Key: "backend", Value: ts.Backend}
	counter("vnpu_timing_memo_hits_total", "Job executions replayed from the timing memo instead of re-simulating.", float64(ts.Hits), backend)
	counter("vnpu_timing_memo_misses_total", "Memoable job executions that ran the simulator and stored their timing.", float64(ts.Misses), backend)
	counter("vnpu_timing_memo_evictions_total", "Timing memo entries evicted to honor the capacity bound.", float64(ts.Evictions), backend)

	ss := snap.Sessions
	counter("vnpu_session_warm_hits_total", "Jobs served by an idle resident session.", float64(ss.WarmHits))
	counter("vnpu_session_cold_creates_total", "Jobs that created a resident session.", float64(ss.ColdCreates))
	counter("vnpu_session_batched_total", "Jobs co-scheduled onto a busy session's micro-queue.", float64(ss.Batched))
	counter("vnpu_session_evictions_total", "Idle sessions destroyed, by cause.", float64(ss.EvictedTTL), obs.Label{Key: "cause", Value: "ttl"})
	counter("vnpu_session_evictions_total", "Idle sessions destroyed, by cause.", float64(ss.EvictedLRU), obs.Label{Key: "cause", Value: "lru"})
	counter("vnpu_session_evictions_total", "Idle sessions destroyed, by cause.", float64(ss.EvictedPressure), obs.Label{Key: "cause", Value: "pressure"})
	counter("vnpu_session_idle", "Idle resident sessions.", float64(ss.IdleSessions))
	counter("vnpu_session_busy", "Busy resident sessions.", float64(ss.BusySessions))
	counter("vnpu_session_idle_cores", "Chip cores held by idle sessions (warm, reclaimable).", float64(ss.IdleCores))

	if c.rec != nil {
		counter("vnpu_trace_dropped_total", "Lifecycle trace events overwritten in the ring buffers.", float64(c.TraceDropped()))
	}
}

// Registry exposes the fleet's metrics registry: the fleet's own
// counters (steals, re-homes, membership transitions) plus every
// shard's registry as a nested source, so one scrape covers the whole
// fleet with shard-labeled series.
func (f *Fleet) Registry() *obs.Registry { return f.reg }

// TraceSnapshot copies the retained lifecycle trace events of every
// shard, in record order; nil when tracing is off.
func (f *Fleet) TraceSnapshot() []TraceEvent {
	if f.rec == nil {
		return nil
	}
	return f.rec.Snapshot()
}

// TraceDropped reports how many trace events the fleet's ring buffers
// have overwritten; see Cluster.TraceDropped.
func (f *Fleet) TraceDropped() uint64 {
	if f.rec == nil {
		return 0
	}
	return f.rec.Dropped()
}

// Handler returns the fleet's live telemetry surface; see
// Cluster.Handler. The /metrics scrape covers every shard (shard-
// labeled series), the trace endpoints cover the fleet-wide recorder,
// and /debug/slo reports the fleet-wide error budgets.
func (f *Fleet) Handler() http.Handler {
	return obs.NewMux(f.reg, f.rec, sloEndpoints(f.slo)...)
}

// SLOReport computes the fleet-wide error-budget report; see
// Cluster.SLOReport. Every shard scores into one shared tracker, so the
// budgets cover jobs wherever they ran (including forwarded ones).
func (f *Fleet) SLOReport() (slo.Report, bool) {
	if f.slo == nil {
		return slo.Report{}, false
	}
	return f.slo.Report(f.clk.Now()), true
}

// Attribution folds the fleet's retained trace window into a critical-
// path report; see Cluster.Attribution. Forward hops (steals) appear as
// the "forward" segment attributed to the victim shard.
func (f *Fleet) Attribution() (slo.Attribution, bool) {
	if f.rec == nil {
		return slo.Attribution{}, false
	}
	a := slo.NewAnalyzer()
	a.Feed(f.rec.Snapshot())
	return a.Report(), true
}

// collect emits the fleet's own counters (shard counters come from the
// nested shard registries).
func (f *Fleet) collect(emit func(obs.Sample)) {
	f.mu.Lock()
	steals, rehomed, rerouted, drains, rejoins := f.steals, f.rehomed, f.rerouted, f.drains, f.rejoins
	f.mu.Unlock()
	emit(obs.Sample{Name: "vnpu_fleet_steals_total", Help: "Queued jobs moved off overloaded shards by the balancer.", Value: float64(steals)})
	emit(obs.Sample{Name: "vnpu_fleet_rehomed_total", Help: "Queued jobs moved off a draining shard.", Value: float64(rehomed)})
	emit(obs.Sample{Name: "vnpu_fleet_rerouted_total", Help: "Session-affine submissions diverted to a least-pressure shard.", Value: float64(rerouted)})
	emit(obs.Sample{Name: "vnpu_fleet_drains_total", Help: "Shard drain transitions.", Value: float64(drains)})
	emit(obs.Sample{Name: "vnpu_fleet_rejoins_total", Help: "Shard rejoin transitions.", Value: float64(rejoins)})
	emit(obs.Sample{Name: "vnpu_fleet_active_shards", Help: "Shards currently taking traffic.", Value: float64(f.router.ActiveCount())})
}
