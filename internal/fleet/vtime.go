package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// This file is the fleet's virtual-time mode: a deterministic
// discrete-event replay of a multi-tenant Poisson serving day against a
// behavioral model of the sharded fleet — the router, per-shard queues
// and capacity, warm sessions with TTL and micro-queue batching, work
// stealing, and drain/rejoin membership churn. Everything runs
// single-threaded on one sim.VirtualClock, so a million-job trace
// replays in seconds of wall time and, for a fixed seed, produces
// bit-identical orderings and latencies on every run (Result.OrderHash
// is the regression check). It deliberately models serving dynamics —
// queueing, affinity, capacity — not the cycle-level simulator; CI uses
// it to catch fleet-policy regressions that per-chip tests cannot see.

// TraceConfig parameterizes one virtual-time replay.
type TraceConfig struct {
	// Shards is the fleet size; each shard has ChipsPerShard chips of
	// CoresPerChip cores.
	Shards        int
	ChipsPerShard int
	CoresPerChip  int
	// Jobs is the trace length; arrivals are Poisson at RatePerSec jobs
	// per virtual second across the whole fleet.
	Jobs       int
	RatePerSec float64
	// Tenants and Models size the workload population; ReuseFraction of
	// jobs carry a session fingerprint (tenant x model) and route
	// affine.
	Tenants       int
	Models        int
	ReuseFraction float64
	// Seed fixes the trace; equal seeds replay identically.
	Seed int64
	// Start is the virtual epoch (zero selects the Unix epoch).
	Start time.Time
	// SessionTTL evicts idle warm sessions; QueueDepth bounds each
	// shard's admission queue; MicroQueueDepth bounds one session's
	// waiting line. Zero values select 5ms / 256 / 16.
	SessionTTL      time.Duration
	QueueDepth      int
	MicroQueueDepth int
	// DrainShard, when >= 0, drains that shard at DrainAtFrac of the
	// trace's expected span and rejoins it at RejoinAtFrac (0 disables
	// the rejoin).
	DrainShard   int
	DrainAtFrac  float64
	RejoinAtFrac float64
	// Replicas is the router's ring replication (0 = DefaultReplicas).
	Replicas int
	// Recorder, when non-nil, captures every job's lifecycle transitions
	// (submit → admitted → placed/session → executing → done/failed)
	// stamped from the virtual clock. The replay is single-threaded, so
	// for a fixed seed the recorded event stream — and any export of it —
	// is bit-identical across runs. Size it with at least Shards rings.
	Recorder *obs.Recorder
	// Sinks receive every lifecycle event inline, in record order — the
	// hook for online aggregators (SLO trackers, critical-path analyzers)
	// that must see a whole million-job day rather than the recorder's
	// ring window. Sinks run on the replay goroutine and must not touch
	// the replay's rng or clock; a deterministic sink fed a fixed seed
	// produces a bit-identical report.
	Sinks []EventSink
	// Observe, when non-nil, is updated atomically as the replay
	// progresses so a live scrape on another goroutine can watch a
	// virtual-time run. It never influences the replay.
	Observe *ReplayGauges
	// ServiceTime, when non-nil, replaces the built-in synthetic
	// service-time formula: it receives the job's tenant and model
	// indices plus the formula's own jitter draw (0..99, taken from the
	// trace rng in the same position either way, so installing a timer
	// never shifts the rng sequence) and returns the job's service
	// duration. This is how a caller grounds the behavioral replay in
	// measured cycle timings — vnpuserve builds one over a probe chip's
	// timing backend, so memoized timing replays feed virtual time. The
	// timer must be deterministic in its arguments or OrderHash loses
	// its meaning; nil reproduces the historical formula byte-for-byte.
	ServiceTime func(tenant, model, jitter int) time.Duration
}

// EventSink consumes lifecycle events inline during a replay.
type EventSink interface {
	Observe(obs.Event)
}

// ReplayGauges mirrors a running replay's headline counters behind
// atomics, for live scraping while Replay runs on its own goroutine.
type ReplayGauges struct {
	Generated atomic.Uint64
	Completed atomic.Uint64
	Rejected  atomic.Uint64
	WarmHits  atomic.Uint64
	Steals    atomic.Uint64
	ReHomed   atomic.Uint64
}

// Collect emits the gauges as registry samples (obs.Registry
// AddCollector-compatible).
func (g *ReplayGauges) Collect(emit func(obs.Sample)) {
	emit(obs.Sample{Name: "vnpu_replay_generated_total", Help: "Trace jobs generated so far.", Value: float64(g.Generated.Load())})
	emit(obs.Sample{Name: "vnpu_replay_completed_total", Help: "Trace jobs completed so far.", Value: float64(g.Completed.Load())})
	emit(obs.Sample{Name: "vnpu_replay_rejected_total", Help: "Trace jobs rejected so far.", Value: float64(g.Rejected.Load())})
	emit(obs.Sample{Name: "vnpu_replay_warm_hits_total", Help: "Trace jobs served on a resident session so far.", Value: float64(g.WarmHits.Load())})
	emit(obs.Sample{Name: "vnpu_replay_steals_total", Help: "Balancer moves so far.", Value: float64(g.Steals.Load())})
	emit(obs.Sample{Name: "vnpu_replay_rehomed_total", Help: "Queued jobs re-homed off a draining shard so far.", Value: float64(g.ReHomed.Load())})
}

// ShardTrace is one shard's replay counters.
type ShardTrace struct {
	// Jobs counts admissions routed here (including re-homed and stolen
	// arrivals); Completed and Rejected partition their outcomes.
	Jobs      int
	Completed int
	Rejected  int
	// WarmHits counts jobs served on an already-resident session.
	WarmHits int
	// StolenFrom / StolenInto count balancer moves out of / into the
	// shard.
	StolenFrom int
	StolenInto int
	// BusyCoreTime is the cumulative core-seconds of service run here;
	// Utilization normalizes it by the shard's capacity over the span.
	BusyCoreTime time.Duration
	Utilization  float64
}

// Result is the outcome of one replay.
type Result struct {
	Jobs      int
	Completed int
	Rejected  int
	// ReHomed counts queued jobs the drain moved to surviving shards;
	// Steals counts balancer moves. Lost is always zero by construction
	// and asserted by the tests: every admitted job completes or is
	// rejected typed.
	ReHomed int
	Steals  int
	// WarmHits and WarmRate report session affinity quality (warm hits
	// over completed session-eligible jobs).
	WarmHits int
	WarmRate float64
	// P50 and P99 are sojourn-latency percentiles (admission to
	// completion) over every completed job.
	P50 time.Duration
	P99 time.Duration
	// VirtualSpan is the virtual time the trace covered; OrderHash
	// digests (job, start, finish) in completion order — the
	// determinism fingerprint.
	VirtualSpan time.Duration
	OrderHash   uint64
	PerShard    []ShardTrace
}

// vJob is one trace job.
type vJob struct {
	id      int
	key     int // index into the session-key space, -1 for one-shot
	tenant  int
	cores   int
	service time.Duration
	class   int // 0 = best-effort (steal-eligible), 1 = normal
	submit  time.Time
	keyed   bool
}

// vSession is one resident warm session in the model. Like the real
// pool it continuous-batches: up to batchSlots jobs run on the resident
// vNPU concurrently, and its cores count as busy whenever at least one
// job is running.
type vSession struct {
	cores   int
	running int
	since   time.Time // when running last went 0 -> 1
	waiting []*vJob
	expire  sim.Timer
}

// vShard is the behavioral model of one shard.
type vShard struct {
	free     int
	total    int
	queue    []*vJob
	sessions map[int]*vSession
	draining bool
	stats    ShardTrace
}

// replay is the running simulation state.
type replay struct {
	cfg       TraceConfig
	clk       *sim.VirtualClock
	rng       *rand.Rand
	router    *Router
	shards    []*vShard
	keys      []string // session-key space, index = tenant*models + model
	generated int
	completed int
	rejected  int
	rehomed   int
	steals    int
	warmHits  int
	keyedDone int
	sojourns  []time.Duration
	hash      uint64 // FNV-1a running digest
	start     time.Time
	last      time.Time
	// rec/sinks/gauges/tenantNames are the observability taps (nil/empty
	// when off); they read replay state but never influence it — no rng
	// draws, no timers — so tracing cannot perturb the deterministic
	// ordering.
	rec         *obs.Recorder
	sinks       []EventSink
	gauges      *ReplayGauges
	tenantNames []string
}

// ev records one lifecycle event for a job on shard s, stamped from the
// virtual clock, into the recorder and every sink. No-op when both taps
// are off.
func (r *replay) ev(j *vJob, s int, stage obs.Stage, detail string) {
	if r.rec == nil && len(r.sinks) == 0 {
		return
	}
	e := obs.Event{
		Job:    uint64(j.id),
		Stage:  stage,
		Detail: detail,
		Class:  j.class,
		Shard:  s,
		Chip:   -1,
		Tenant: r.tenantNames[j.tenant],
		At:     r.clk.Now(),
	}
	if r.rec != nil {
		r.rec.Record(s, e)
	}
	for _, sink := range r.sinks {
		sink.Observe(e)
	}
}

const (
	defaultTTL        = 5 * time.Millisecond
	defaultQueueDepth = 256
	defaultMicroDepth = 16
	batchSlots        = 8
	coldOverhead      = 300 * time.Microsecond
)

// Replay runs the trace to completion and reports the outcome. It is
// deterministic: equal configs (including Seed) produce equal Results,
// OrderHash included.
func Replay(cfg TraceConfig) (Result, error) {
	if cfg.Shards < 1 || cfg.ChipsPerShard < 1 || cfg.CoresPerChip < 1 {
		return Result{}, fmt.Errorf("fleet: replay needs shards/chips/cores >= 1")
	}
	if cfg.Jobs < 1 || cfg.RatePerSec <= 0 {
		return Result{}, fmt.Errorf("fleet: replay needs jobs >= 1 and a positive rate")
	}
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.Models < 1 {
		cfg.Models = 1
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = defaultTTL
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MicroQueueDepth <= 0 {
		cfg.MicroQueueDepth = defaultMicroDepth
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Unix(0, 0)
	}
	if cfg.DrainShard >= cfg.Shards {
		return Result{}, fmt.Errorf("fleet: drain shard %d of %d", cfg.DrainShard, cfg.Shards)
	}

	r := &replay{
		cfg:      cfg,
		clk:      sim.NewVirtualClock(cfg.Start),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		router:   NewRouter(cfg.Shards, cfg.Replicas),
		start:    cfg.Start,
		last:     cfg.Start,
		sojourns: make([]time.Duration, 0, cfg.Jobs),
		hash:     14695981039346656037, // FNV-1a offset basis
		rec:      cfg.Recorder,
		sinks:    cfg.Sinks,
		gauges:   cfg.Observe,
	}
	if r.rec != nil || len(r.sinks) > 0 {
		r.tenantNames = make([]string, cfg.Tenants)
		for t := range r.tenantNames {
			r.tenantNames[t] = fmt.Sprintf("t%d", t)
		}
	}
	total := cfg.ChipsPerShard * cfg.CoresPerChip
	for i := 0; i < cfg.Shards; i++ {
		r.shards = append(r.shards, &vShard{
			free:     total,
			total:    total,
			sessions: make(map[int]*vSession),
		})
	}
	r.keys = make([]string, cfg.Tenants*cfg.Models)
	for t := 0; t < cfg.Tenants; t++ {
		for m := 0; m < cfg.Models; m++ {
			r.keys[t*cfg.Models+m] = fmt.Sprintf("t%d/m%d", t, m)
		}
	}

	// Membership churn, pinned to fractions of the expected span.
	span := time.Duration(float64(cfg.Jobs) / cfg.RatePerSec * float64(time.Second))
	if cfg.DrainShard >= 0 && cfg.DrainAtFrac > 0 {
		at := time.Duration(cfg.DrainAtFrac * float64(span))
		r.clk.AfterFunc(at, func() { r.drainShard(cfg.DrainShard) })
		if cfg.RejoinAtFrac > cfg.DrainAtFrac {
			back := time.Duration(cfg.RejoinAtFrac * float64(span))
			r.clk.AfterFunc(back, func() { r.rejoinShard(cfg.DrainShard) })
		}
	}

	r.scheduleArrival()
	for r.clk.Step() {
	}

	res := Result{
		Jobs:      cfg.Jobs,
		Completed: r.completed,
		Rejected:  r.rejected,
		ReHomed:   r.rehomed,
		Steals:    r.steals,
		WarmHits:  r.warmHits,
		OrderHash: r.hash,
		PerShard:  make([]ShardTrace, cfg.Shards),
	}
	if r.keyedDone > 0 {
		res.WarmRate = float64(r.warmHits) / float64(r.keyedDone)
	}
	res.VirtualSpan = r.last.Sub(r.start)
	for i, sh := range r.shards {
		sh.stats.Utilization = 0
		if res.VirtualSpan > 0 {
			sh.stats.Utilization = float64(sh.stats.BusyCoreTime) / (float64(sh.total) * float64(res.VirtualSpan))
		}
		res.PerShard[i] = sh.stats
	}
	if n := len(r.sojourns); n > 0 {
		sorted := append([]time.Duration(nil), r.sojourns...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		res.P50 = sorted[n/2]
		res.P99 = sorted[min(n-1, n*99/100)]
	}
	if res.Completed+res.Rejected != res.Jobs {
		return res, fmt.Errorf("fleet: %d jobs lost (%d completed + %d rejected of %d)",
			res.Jobs-res.Completed-res.Rejected, res.Completed, res.Rejected, res.Jobs)
	}
	return res, nil
}

// scheduleArrival arms the next Poisson arrival; each arrival schedules
// its successor, so exactly one arrival event is pending at a time and
// the rng draw order is independent of routing.
func (r *replay) scheduleArrival() {
	if r.generated >= r.cfg.Jobs {
		return
	}
	gap := time.Duration(r.rng.ExpFloat64() / r.cfg.RatePerSec * float64(time.Second))
	r.clk.AfterFunc(gap, func() {
		j := r.makeJob()
		r.generated++
		if r.gauges != nil {
			r.gauges.Generated.Add(1)
		}
		r.route(j)
		r.scheduleArrival()
	})
}

// makeJob draws one job. All randomness happens here, in arrival order,
// so the trace content is independent of fleet state.
func (r *replay) makeJob() *vJob {
	tenant := r.rng.Intn(r.cfg.Tenants)
	model := r.rng.Intn(r.cfg.Models)
	keyed := r.rng.Float64() < r.cfg.ReuseFraction
	class := 1
	if r.rng.Float64() < 0.3 {
		class = 0
	}
	jitter := r.rng.Intn(100)
	service := time.Duration(150+40*model+jitter) * time.Microsecond
	if r.cfg.ServiceTime != nil {
		service = r.cfg.ServiceTime(tenant, model, jitter)
	}
	j := &vJob{
		id:      r.generated,
		key:     -1,
		tenant:  tenant,
		keyed:   keyed,
		cores:   2 + model%3,
		service: service,
		class:   class,
		submit:  r.clk.Now(),
	}
	if keyed {
		j.key = tenant*r.cfg.Models + model
	}
	return j
}

// route picks the job's shard — affine by key, least pressure otherwise —
// and admits it there. With every shard draining the job is rejected
// (the real fleet's ErrNoActiveShards).
func (r *replay) route(j *vJob) {
	var shard int
	var ok bool
	if j.keyed {
		shard, ok = r.router.Owner(r.keys[j.key])
	} else {
		shard, ok = r.router.PickLeast(r.pressure)
	}
	if !ok {
		r.rejected++
		if r.gauges != nil {
			r.gauges.Rejected.Add(1)
		}
		// No active shard owns the job; file the terminal event on ring 0
		// so the rejection is still visible in the trace.
		r.ev(j, 0, obs.StageFailed, "no-active-shard")
		return
	}
	r.admit(j, shard)
}

// pressure mirrors the real Cluster.Pressure signal: queued fraction
// plus occupied-core fraction.
func (r *replay) pressure(s int) float64 {
	sh := r.shards[s]
	return float64(len(sh.queue))/float64(r.cfg.QueueDepth) +
		float64(sh.total-sh.free)/float64(sh.total)
}

// admit books the job on the shard: warm-serve, join a session's
// waiting line, start cold, queue, or reject.
func (r *replay) admit(j *vJob, s int) {
	sh := r.shards[s]
	sh.stats.Jobs++
	r.ev(j, s, obs.StageSubmit, "")
	if j.keyed {
		if sess := sh.sessions[j.key]; sess != nil {
			if sess.running < batchSlots {
				r.ev(j, s, obs.StageAdmitted, "")
				r.ev(j, s, obs.StageSession, "warm")
				r.startWarm(j, s, sess)
				return
			}
			if len(sess.waiting) < r.cfg.MicroQueueDepth {
				r.ev(j, s, obs.StageAdmitted, "")
				r.ev(j, s, obs.StageSession, "batched")
				sess.waiting = append(sess.waiting, j)
				return
			}
			// Session saturated: fall through to queue/capacity.
		}
	}
	if len(sh.queue) == 0 && r.canStartCold(sh, j) {
		r.ev(j, s, obs.StageAdmitted, "")
		r.startCold(j, s)
		return
	}
	if len(sh.queue) < r.cfg.QueueDepth {
		r.ev(j, s, obs.StageAdmitted, "")
		sh.queue = append(sh.queue, j)
		return
	}
	r.ev(j, s, obs.StageFailed, "rejected")
	sh.stats.Rejected++
	r.rejected++
	if r.gauges != nil {
		r.gauges.Rejected.Add(1)
	}
}

func (r *replay) canStartCold(sh *vShard, j *vJob) bool {
	return sh.free >= j.cores
}

// startWarm serves the job on a resident session with a free batch
// slot: no placement, no create.
func (r *replay) startWarm(j *vJob, s int, sess *vSession) {
	sh := r.shards[s]
	if sess.running == 0 {
		if sess.expire != nil {
			sess.expire.Stop()
			sess.expire = nil
		}
		sess.since = r.clk.Now()
	}
	sess.running++
	r.warmHits++
	sh.stats.WarmHits++
	if r.gauges != nil {
		r.gauges.WarmHits.Add(1)
	}
	r.run(j, s, sess, j.service)
}

// startCold claims cores; a keyed job additionally creates its resident
// session and pays the create overhead.
func (r *replay) startCold(j *vJob, s int) {
	sh := r.shards[s]
	sh.free -= j.cores
	r.ev(j, s, obs.StagePlaced, "miss")
	service := j.service
	if j.keyed {
		sh.sessions[j.key] = &vSession{cores: j.cores, running: 1, since: r.clk.Now()}
		service += coldOverhead
		r.ev(j, s, obs.StageSession, "cold")
	}
	r.run(j, s, sh.sessions[j.key], service)
}

// run schedules the finish event. One-shot core-time books here;
// session core-time books per busy interval when running returns to 0.
func (r *replay) run(j *vJob, s int, sess *vSession, service time.Duration) {
	sh := r.shards[s]
	startAt := r.clk.Now()
	r.ev(j, s, obs.StageExecuting, "")
	if sess == nil {
		sh.stats.BusyCoreTime += time.Duration(j.cores) * service
	}
	r.clk.AfterFunc(service, func() { r.finish(j, s, sess, startAt) })
}

// finish completes the job, recycles its session or cores, and keeps
// the shard busy: session waiting lines first (continuous batching),
// then the queue, then stealing.
func (r *replay) finish(j *vJob, s int, sess *vSession, startAt time.Time) {
	sh := r.shards[s]
	now := r.clk.Now()
	r.completed++
	sh.stats.Completed++
	if j.keyed {
		r.keyedDone++
	}
	r.sojourns = append(r.sojourns, now.Sub(j.submit))
	r.last = now
	r.fold(uint64(j.id), uint64(startAt.UnixNano()), uint64(now.UnixNano()))
	r.ev(j, s, obs.StageDone, "")
	if r.gauges != nil {
		r.gauges.Completed.Add(1)
	}

	if sess != nil {
		sess.running--
		if sess.running == 0 {
			// Close the busy interval before re-serving the waiting line:
			// a back-to-back start below reopens it at now.
			sh.stats.BusyCoreTime += time.Duration(sess.cores) * now.Sub(sess.since)
		}
		for len(sess.waiting) > 0 && sess.running < batchSlots {
			next := sess.waiting[0]
			sess.waiting = sess.waiting[1:]
			r.startWarm(next, s, sess)
		}
		if sess.running == 0 {
			if sh.draining {
				r.evict(sh, j.key, sess)
			} else {
				key := j.key
				sess.expire = r.clk.AfterFunc(r.cfg.SessionTTL, func() {
					r.evict(sh, key, sess)
				})
			}
		}
	} else {
		sh.free += j.cores
	}
	r.dispatch(s)
}

// evict drops a resident session and frees its cores.
func (r *replay) evict(sh *vShard, key int, sess *vSession) {
	if sess.running > 0 || len(sess.waiting) > 0 {
		return
	}
	delete(sh.sessions, key)
	sh.free += sess.cores
	r.dispatchShard(sh)
}

func (r *replay) dispatchShard(sh *vShard) {
	for i, cand := range r.shards {
		if cand == sh {
			r.dispatch(i)
			return
		}
	}
}

// dispatch starts queued work while capacity lasts, then — on an idle,
// active shard — steals one-shot best-effort work from the deepest
// queue in the fleet.
func (r *replay) dispatch(s int) {
	sh := r.shards[s]
	for len(sh.queue) > 0 {
		j := sh.queue[0]
		if j.keyed {
			if sess := sh.sessions[j.key]; sess != nil {
				sh.queue = sh.queue[1:]
				if sess.running < batchSlots {
					r.ev(j, s, obs.StageSession, "warm")
					r.startWarm(j, s, sess)
				} else if len(sess.waiting) < r.cfg.MicroQueueDepth {
					r.ev(j, s, obs.StageSession, "batched")
					sess.waiting = append(sess.waiting, j)
				} else {
					// Saturated micro-queue with a full shard: the real
					// cluster would park; model it by re-queueing at the
					// back and stopping this pass.
					sh.queue = append(sh.queue, j)
					return
				}
				continue
			}
		}
		if !r.canStartCold(sh, j) {
			return
		}
		sh.queue = sh.queue[1:]
		r.startCold(j, s)
	}
	if !sh.draining && len(sh.queue) == 0 && r.router.IsActive(s) {
		r.stealInto(s)
	}
}

// stealInto moves one-shot best-effort jobs from the deepest queue onto
// the idle shard s.
func (r *replay) stealInto(s int) {
	sh := r.shards[s]
	victim, deepest := -1, 1 // require at least 2 queued to bother
	for i, cand := range r.shards {
		if i == s {
			continue
		}
		if n := len(cand.queue); n > deepest {
			victim, deepest = i, n
		}
	}
	if victim < 0 {
		return
	}
	vq := r.shards[victim]
	for i := len(vq.queue) - 1; i >= 0 && sh.free > 0; i-- {
		j := vq.queue[i]
		if j.class != 0 || j.keyed || !r.canStartCold(sh, j) {
			continue
		}
		vq.queue = append(vq.queue[:i], vq.queue[i+1:]...)
		vq.stats.StolenFrom++
		sh.stats.StolenInto++
		sh.stats.Jobs++
		vq.stats.Jobs--
		r.steals++
		if r.gauges != nil {
			r.gauges.Steals.Add(1)
		}
		r.ev(j, victim, obs.StageForwarded, "steal")
		r.startCold(j, s)
		return // one per pass keeps the model simple and bounded
	}
}

// drainShard takes the shard out of the rotation, re-homes its queue,
// and evicts its idle sessions; busy sessions drain through finish.
func (r *replay) drainShard(s int) {
	if !r.router.Drain(s) {
		return
	}
	sh := r.shards[s]
	sh.draining = true
	moved := sh.queue
	sh.queue = nil
	for _, j := range moved {
		sh.stats.Jobs--
		r.rehomed++
		if r.gauges != nil {
			r.gauges.ReHomed.Add(1)
		}
		r.ev(j, s, obs.StageForwarded, "drain")
		r.route(j)
	}
	for key, sess := range sh.sessions {
		if sess.running == 0 && len(sess.waiting) == 0 {
			if sess.expire != nil {
				sess.expire.Stop()
				sess.expire = nil
			}
			r.evict(sh, key, sess)
		}
	}
}

// rejoinShard puts the shard back into the rotation.
func (r *replay) rejoinShard(s int) {
	if !r.router.Rejoin(s) {
		return
	}
	r.shards[s].draining = false
}

// fold mixes one completion record into the order hash (FNV-1a over the
// 24-byte record).
func (r *replay) fold(vs ...uint64) {
	h := r.hash
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	r.hash = h
}
