// Package sched implements the serving front-end of a multi-chip vNPU
// cluster: a bounded multi-class admission queue (priority classes,
// earliest-deadline-first within a class, aging against starvation — see
// internal/sched/queue), per-tenant in-flight quotas, executor-ranked
// placement across chips (the vnpu package backs Rank with the
// internal/place engine and its mapping cache), and a configurable number
// of execution slots per chip (Config.ChipSlots) whose workers execute
// placed jobs — one slot preserves strict per-chip order; more slots let
// an executor overlap spatially disjoint placements on one chip.
//
// The dispatcher is generic over the job, placement and result types so it
// stays independent of the virtualization layer; the public vnpu package
// instantiates it with its own Job/vNPU/Report types. Admission failures
// and lifecycle errors wrap the typed sentinels of internal/core
// (ErrQueueFull, ErrQuotaExceeded, ErrDeadlineExceeded, ErrDestroyed,
// ...), keeping the whole stack errors.Is-matchable.
//
// Lifecycle of a job:
//
//	Submit ──quota+queue check──▶ class queue ──dispatcher──▶ Rank ──▶ Place(best chip)
//	        ──worker[chip]──▶ Execute ──▶ Release ──▶ Handle resolves
//
// The dispatcher asks the executor where a popped job fits once per
// placement attempt (Executor.Rank) and claims the best candidate whose
// Place succeeds. Costs are non-negative, so a candidate of cost 0 is one
// no other chip can beat; an executor still computing some chip's answer
// may name such exact fits at once, and otherwise returns the edge the job
// parks on while the dispatch loop serves other work. Queued jobs are
// named to the executor only by backfill: one Rank for the best-ordered
// candidate, RankCached — which never computes or evicts — for the rest.
//
// Admission and completion are owned by one scheduler core for BOTH
// serving paths. Submit admits a job into the dispatcher's queue; Admit
// admits one that an external loop serves (the cluster's session pool)
// under the same checks, counters and sequence counter. The queue pops
// highest-class first (EDF inside a class, admission order last), and an
// externally served job blocks in WaitTurn until no older queued job of
// equal-or-higher class remains, so warm-hit traffic cannot outrun queued
// one-shot work. Either way the job ends in Finish, which books the
// outcome before it resolves the handle.
//
// Queued work is preemptible: a higher-class arrival displaces a job
// parked on backpressure back into the queue (it keeps its ticket, not
// its turn), and a job whose deadline passes before placement fails fast
// with ErrDeadlineExceeded instead of occupying a chip after its SLO is
// already lost.
//
// Placement claims chip resources immediately (Place), so several jobs
// can be resident on a chip while its workers execute them — one at a
// time with a single slot (the historical time-multiplexing model), or
// overlapped across ChipSlots workers when the executor isolates their
// timing (per-vNPU timing domains). When no chip
// can host the best queued job, the dispatcher parks until some worker
// releases a placement (retry-on-destroy backpressure) or the job's
// context is canceled; if nothing is in flight anywhere, the failure is
// terminal and the job fails with the placement error.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/sched/queue"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Score ranks a prospective placement lexicographically. Cost is the
// primary criterion (lower is better; the cluster uses topology edit
// distance); Price separates equal costs (the cluster uses the chip
// profile's resource price, so the cheapest adequate chip wins); Load
// breaks remaining ties, so a load term can never override even a
// fractional cost or price difference. Warm (higher is better) breaks
// exact Load ties toward chips hosting warm resident sessions: their
// held cores are reclaimable on demand, so routing traffic there keeps
// chips whose capacity is genuinely free intact for jobs that need
// fresh rectangles. For the Load term to be meaningful alongside Warm,
// executors must compute Load from actively executing cores, not from
// raw allocation — cores held by idle sessions would otherwise make a
// warm pool look busy (see the cluster's CoreUsage).
type Score struct {
	Cost  float64
	Price float64
	Load  float64
	Warm  float64
}

func (s Score) compare(o Score) int {
	if c := cmp.Compare(s.Cost, o.Cost); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Price, o.Price); c != 0 {
		return c
	}
	if c := cmp.Compare(s.Load, o.Load); c != 0 {
		return c
	}
	return cmp.Compare(o.Warm, s.Warm)
}

// Candidate is one chip a job could be placed on, with its score.
type Candidate struct {
	Chip  int
	Score Score
}

// Executor abstracts the chips the dispatcher schedules over. All methods
// may be called concurrently: Rank, RankCached and Place from the
// dispatcher goroutine, Execute and Release from per-chip workers.
type Executor[Job, Placement, Result any] interface {
	// Rank answers where the job fits right now, once per placement
	// attempt; the dispatcher orders the candidates itself. Score.Cost
	// must be non-negative: a candidate of cost 0 is one no other chip can
	// beat. With pending nil the answer is final for this attempt — every
	// chip that can host the job, or, from an executor that has not
	// answered every chip yet, only candidates of cost 0; when there are
	// none, err must explain why no chip qualifies. A non-nil pending
	// promises that the executor is computing what it lacks and closes the
	// channel once it has landed; it comes with no candidates, the job
	// parks on it, and the dispatcher ranks again when it closes.
	Rank(job Job) (cands []Candidate, pending <-chan struct{}, err error)
	// RankCached lists only the chips servable from placement state
	// already computed — backfill's look at a job still queued. It must
	// never compute a placement nor evict anything to make room, and may
	// return nil.
	RankCached(job Job) []Candidate
	// Place claims resources for job on chip (e.g. creates the vNPU).
	Place(chip int, job Job) (Placement, error)
	// Execute runs a placed job to completion on its chip, reporting how
	// long it held the chip's resources (the "exec" stage latency).
	Execute(ctx context.Context, chip int, pl Placement, job Job) (Result, time.Duration, error)
	// Release frees the placement's resources (e.g. destroys the vNPU).
	Release(chip int, pl Placement) error
}

// Config tunes the dispatcher.
type Config struct {
	// Chips is the number of chips (worker goroutines). Must be >= 1.
	Chips int
	// QueueDepth bounds the admission queue. <= 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// Classes is the number of priority classes (0 = lowest). <= 0
	// selects queue.DefaultClasses.
	Classes int
	// AgingRounds is how many scheduling rounds a queued job waits in
	// its class before being promoted one class (the starvation bound).
	// 0 selects queue.DefaultAgingRounds; < 0 disables aging.
	AgingRounds int
	// TenantQuota caps each tenant's in-flight jobs (queued + running),
	// whether admitted by Submit or by Admit. <= 0 means unlimited. A
	// canceled job's slot is reclaimed when the job drains from the queue,
	// not at cancellation time.
	TenantQuota int
	// ExternalBusy, when non-nil, reports whether work is in flight on an
	// external path sharing the chips (e.g. busy resident sessions). An
	// unplaceable job then parks for a Kick instead of failing terminally
	// on an "idle" cluster whose capacity is merely held elsewhere. The
	// external path MUST call Kick whenever it frees capacity, or parked
	// jobs would wait forever.
	ExternalBusy func() bool
	// Reclaim, when non-nil, asks the external path to give capacity
	// back (e.g. evict one idle resident session — lowest class first,
	// so high-priority cold jobs preempt low-priority warm residency),
	// returning whether it freed anything. The dispatcher calls it when a
	// head-of-line attempt claimed nothing — the rank named no chip, or
	// every ranked Place failed for a reason a score cannot see, like
	// memory exhaustion at create time — and ranks again on success, so
	// idle warm pools are reclaimed before a job parks or fails. It is
	// the one place dispatcher jobs evict; backfill never calls it.
	Reclaim func() bool
	// Clock supplies time to every dispatcher timestamp and timer —
	// deadline checks, queue-wait accounting, parked-deadline timers. Nil
	// selects the wall clock; tests and the fleet's virtual-time replay
	// inject a sim.VirtualClock.
	Clock sim.Clock
	// StageHist, when non-nil, supplies the latency histogram for one
	// (stage, class) pair, letting the embedder register the dispatcher's
	// stage timings ("queue", "exec", "e2e") in its own metrics registry.
	// Nil creates private histograms. Lifecycle trace callbacks are
	// installed separately with SetObserver (they reference the generic
	// job type, which Config cannot).
	StageHist func(stage string, class int) *obs.Histogram
	// ChipSlots is how many worker goroutines execute placed jobs per
	// chip. <= 0 selects 1 (strict per-chip execution order — the
	// historical time-multiplexing model). With more slots, an executor
	// that supports concurrent execution of spatially disjoint placements
	// (per-vNPU timing domains) overlaps jobs on one chip; per-chip
	// execution order is then no longer strict.
	ChipSlots int
}

// DefaultQueueDepth is the admission queue bound when none is given.
const DefaultQueueDepth = 64

// Stats is a snapshot of dispatcher counters.
type Stats struct {
	// Submitted counts jobs admitted past quota and queue checks.
	Submitted uint64
	// RejectedQueueFull counts submissions refused with ErrQueueFull.
	RejectedQueueFull uint64
	// RejectedQuota counts submissions refused with ErrQuotaExceeded.
	RejectedQuota uint64
	// Completed counts jobs that finished successfully.
	Completed uint64
	// Failed counts jobs that finished with an error (including
	// cancellation and deadline misses).
	Failed uint64
	// ChipJobs counts jobs executed per chip.
	ChipJobs []int
	// HitsFirst counts head-of-line jobs started on an exact fit — a
	// candidate of cost 0, the only kind an executor names before it has
	// answered every chip (hits-first).
	HitsFirst uint64
	// MapParked counts parks, not jobs: one tick each time a dispatch
	// parked on an async mapping (the mapReady edge) instead of blocking
	// the dispatch loop. A job whose free set moves under its mapping
	// parks again, so MapParked may exceed the job count.
	MapParked uint64
	// Stolen counts queued jobs removed by Steal — work another shard's
	// dispatcher took over. Stolen jobs are not counted in Submitted (the
	// steal re-books them on the destination), so per-shard accounting
	// still balances.
	Stolen uint64
	// PerClass breaks the serving counters down by priority class, with
	// p50/p99 queueing-latency percentiles over a bounded recent window.
	PerClass []metrics.SchedClassStats
}

// Handle tracks one admitted job. Submit returns handles the dispatcher
// drives end to end; Admit returns one whose serving loop calls
// MarkStarted when the job reaches its chip and Dispatcher.Finish exactly
// once when it completes, so both paths hand callers the same type.
type Handle[Result any] struct {
	tenant    string
	class     int
	clk       sim.Clock
	submitted time.Time
	// external marks a handle admitted by Admit: it counts against the
	// dispatcher's external in-flight bound until Finish.
	external bool

	started chan struct{} // closed when the job is placed on a chip
	done    chan struct{} // closed when the job finishes

	// Written once before the respective channel closes.
	chip     int
	placedAt time.Time
	finished time.Time
	res      Result
	err      error
}

func newHandle[Result any](clk sim.Clock, tenant string, class int) *Handle[Result] {
	return &Handle[Result]{
		tenant:    tenant,
		class:     class,
		clk:       clk,
		submitted: clk.Now(),
		started:   make(chan struct{}),
		done:      make(chan struct{}),
		chip:      -1,
	}
}

// MarkStarted records that the job reached its chip and closes Started.
// It must be called at most once, before Finish.
func (h *Handle[Result]) MarkStarted(chip int) {
	h.chip = chip
	h.placedAt = h.clk.Now()
	close(h.started)
}

// Finish resolves the handle with the job's outcome and nothing else. It
// must be called exactly once: by Dispatcher.Finish for an admitted job,
// directly only for a job Steal un-booked.
func (h *Handle[Result]) Finish(res Result, err error) {
	h.res = res
	h.err = err
	h.finished = h.clk.Now()
	close(h.done)
}

// Tenant reports the submitting tenant.
func (h *Handle[Result]) Tenant() string { return h.tenant }

// Class reports the job's resolved priority class (0 = lowest).
func (h *Handle[Result]) Class() int { return h.class }

// Started is closed once the job's resources have been claimed on a chip
// (the moment it leaves the queue). In the rare case that the job is
// canceled after placement but before its chip worker picks it up, the
// placement is rolled back and Wait returns the cancellation error even
// though Started closed.
func (h *Handle[Result]) Started() <-chan struct{} { return h.started }

// Done is closed once the job has finished (successfully or not).
func (h *Handle[Result]) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes or ctx is done, returning the result.
// A ctx expiry only abandons the wait — the job keeps running; cancel the
// submission context to cancel the job itself.
func (h *Handle[Result]) Wait(ctx context.Context) (Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		var zero Result
		return zero, ctx.Err()
	}
}

// Chip reports the chip the job was placed on (-1 before placement).
func (h *Handle[Result]) Chip() int {
	select {
	case <-h.started:
		return h.chip
	default:
		return -1
	}
}

// QueueWait reports how long the job sat in the admission queue before
// being placed on a chip. It is meaningful once Started is closed; for a
// job that failed before placement it covers submit to failure.
func (h *Handle[Result]) QueueWait() time.Duration {
	// Check placement first: for a finished job both channels are closed
	// and a combined select would pick a branch at random.
	select {
	case <-h.started:
		return h.placedAt.Sub(h.submitted)
	default:
	}
	select {
	case <-h.done:
		return h.finished.Sub(h.submitted)
	default:
		return h.clk.Since(h.submitted)
	}
}

type task[Job, Result any] struct {
	ctx      context.Context
	job      Job
	deadline time.Time
	h        *Handle[Result]
	// mapParked is set by the job's first park on a mapping edge, the one
	// the trace records; only the dispatcher goroutine touches it.
	mapParked bool
}

type placed[Job, Placement, Result any] struct {
	t  *task[Job, Result]
	pl Placement
}

// ticket is the admission-order identity of the job the dispatcher is
// currently trying to place (popped from the queue but not yet on a
// chip). External WaitTurn callers treat it as still queued — a job
// awaiting capacity has not had its turn.
type ticket struct {
	seq   uint64
	class int
}

// turnWaiter is one external job blocked in WaitTurn.
type turnWaiter struct {
	seq   uint64
	class int
	ch    chan struct{}
}

// classState is one priority class's counters and per-stage latency
// histograms: queue wait (submit → placed), execution, and end-to-end
// sojourn, all booked by Finish. Histograms come from Config.StageHist
// when set, so the embedder's registry holds one series per (stage,
// class).
type classState struct {
	stats metrics.SchedClassStats
	waits *obs.Histogram // stage "queue"
	exec  *obs.Histogram // stage "exec"
	e2e   *obs.Histogram // stage "e2e"
}

// Dispatcher schedules jobs across chips. Create one with New, feed it
// with Submit, and shut it down with Close.
type Dispatcher[Job, Placement, Result any] struct {
	exec Executor[Job, Placement, Result]
	cfg  Config

	work  []chan placed[Job, Placement, Result]
	freed chan struct{}
	// qWake pokes the dispatcher loop when work arrives or Close stops
	// intake; preempt pokes a parked placement attempt when a strictly
	// higher-class job arrives behind it.
	qWake   chan struct{}
	preempt chan struct{}

	mu       sync.Mutex
	closed   bool
	inflight int // placed but not yet released
	external int // admitted by Admit, not yet finished
	tenants  map[string]int
	stats    Stats
	q        *queue.Queue[*task[Job, Result]]
	seq      uint64
	parked   *ticket
	waiters  map[*turnWaiter]struct{}
	classes  []classState
	// mapWaits holds every job parked on an async mapping edge, from
	// parkForMapping until its re-dispatch claims the parked ticket. The
	// set keeps those jobs visible to the external fairness gate
	// (blockedLocked) — a session job must not overtake an older
	// equal-class job just because its mapping is computing — and keeps
	// the dispatch loop alive across Close until they drain. mapReady is
	// the subset whose mapping (or cancellation/deadline) has landed,
	// queued for re-dispatch ahead of the queue.
	mapWaits map[*queue.Item[*task[Job, Result]]]struct{}
	mapReady []*queue.Item[*task[Job, Result]]
	// observer, when set (SetObserver), receives one callback per job
	// lifecycle transition the dispatcher owns: admitted, placed (detail
	// "hit"/"miss", after "map-parked" once if the job parked on a mapping),
	// executing, done/failed. Chip is -1 for off-chip stages. Called
	// outside the dispatcher lock.
	observer func(job Job, stage obs.Stage, detail string, chip int)

	dispatcherDone chan struct{}
	workersDone    sync.WaitGroup
}

// New starts a dispatcher: one dispatcher goroutine plus one worker per
// chip. The caller must Close it to stop them.
func New[Job, Placement, Result any](exec Executor[Job, Placement, Result], cfg Config) (*Dispatcher[Job, Placement, Result], error) {
	if cfg.Chips < 1 {
		return nil, fmt.Errorf("sched: config needs at least one chip, got %d", cfg.Chips)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Classes <= 0 {
		cfg.Classes = queue.DefaultClasses
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.Wall()
	}
	d := &Dispatcher[Job, Placement, Result]{
		exec:           exec,
		cfg:            cfg,
		work:           make([]chan placed[Job, Placement, Result], cfg.Chips),
		freed:          make(chan struct{}, 1),
		qWake:          make(chan struct{}, 1),
		preempt:        make(chan struct{}, 1),
		tenants:        make(map[string]int),
		q:              queue.New[*task[Job, Result]](queue.Config{Classes: cfg.Classes, AgingRounds: cfg.AgingRounds}),
		waiters:        make(map[*turnWaiter]struct{}),
		mapWaits:       make(map[*queue.Item[*task[Job, Result]]]struct{}),
		classes:        make([]classState, cfg.Classes),
		dispatcherDone: make(chan struct{}),
	}
	hist := cfg.StageHist
	if hist == nil {
		hist = func(string, int) *obs.Histogram { return obs.NewHistogram() }
	}
	for i := range d.classes {
		d.classes[i].waits = hist("queue", i)
		d.classes[i].exec = hist("exec", i)
		d.classes[i].e2e = hist("e2e", i)
	}
	d.stats.ChipJobs = make([]int, cfg.Chips)
	slots := cfg.ChipSlots
	if slots <= 0 {
		slots = 1
	}
	for i := range d.work {
		// One queue's worth of buffered placements per chip; a chip that
		// accumulates more than that backpressures the dispatcher (the
		// send in place() blocks, but stays cancelable). ChipSlots workers
		// drain the same channel, so placed jobs overlap when the executor
		// allows it.
		d.work[i] = make(chan placed[Job, Placement, Result], cfg.QueueDepth)
		for s := 0; s < slots; s++ {
			d.workersDone.Add(1)
			go d.worker(i)
		}
	}
	go d.dispatch()
	return d, nil
}

// now reads the dispatcher's clock.
func (d *Dispatcher[Job, Placement, Result]) now() time.Time { return d.cfg.Clock.Now() }

// timerUntil arms a clock timer firing at t.
func (d *Dispatcher[Job, Placement, Result]) timerUntil(t time.Time) sim.Timer {
	return d.cfg.Clock.NewTimer(t.Sub(d.cfg.Clock.Now()))
}

// clampClass restricts a class to the configured range.
func (d *Dispatcher[Job, Placement, Result]) clampClass(class int) int {
	if class < 0 {
		return 0
	}
	if class >= d.cfg.Classes {
		return d.cfg.Classes - 1
	}
	return class
}

// admitLocked is the one admission: closed, deadline, quota and depth
// checks, then — under the same hold of d.mu — the tenant's quota slot,
// the global and per-class Submitted counts and the sequence ticket.
// held is the caller's current use of the QueueDepth bound.
func (d *Dispatcher[Job, Placement, Result]) admitLocked(tenant string, class int, deadline time.Time, held int) (*Handle[Result], uint64, error) {
	if d.closed {
		return nil, 0, fmt.Errorf("sched: dispatcher closed: %w", core.ErrDestroyed)
	}
	if !deadline.IsZero() && d.now().After(deadline) {
		d.classes[class].stats.DeadlineMisses++
		return nil, 0, fmt.Errorf("sched: job deadline already passed at submit: %w", core.ErrDeadlineExceeded)
	}
	if n := d.tenants[tenant]; d.cfg.TenantQuota > 0 && n >= d.cfg.TenantQuota {
		d.stats.RejectedQuota++
		return nil, 0, fmt.Errorf("sched: tenant %q has %d jobs in flight (quota %d): %w",
			tenant, n, d.cfg.TenantQuota, core.ErrQuotaExceeded)
	}
	if held >= d.cfg.QueueDepth {
		d.stats.RejectedQueueFull++
		return nil, 0, fmt.Errorf("sched: admission bound of %d jobs reached: %w", d.cfg.QueueDepth, core.ErrQueueFull)
	}
	d.tenants[tenant]++
	d.stats.Submitted++
	d.classes[class].stats.Submitted++
	seq := d.seq
	d.seq++
	return newHandle[Result](d.cfg.Clock, tenant, class), seq, nil
}

// Submit applies admission control and enqueues the job under the given
// priority class and optional scheduling deadline (zero = none). It
// returns immediately with a Handle, or with an error wrapping
// ErrQueueFull, ErrQuotaExceeded, ErrDeadlineExceeded (deadline already
// passed) or ErrDestroyed when the job was not admitted.
func (d *Dispatcher[Job, Placement, Result]) Submit(ctx context.Context, tenant string, class int, deadline time.Time, job Job) (*Handle[Result], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	class = d.clampClass(class)
	d.mu.Lock()
	h, seq, err := d.admitLocked(tenant, class, deadline, d.q.Len())
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	it := d.q.Push(&task[Job, Result]{ctx: ctx, job: job, deadline: deadline, h: h}, class, deadline, seq)
	// An arrival that may order before the job currently parked on
	// backpressure — higher class, or equal class with a better deadline
	// — pokes its placement loop; yield() re-checks under the full
	// ordering before actually displacing.
	if d.parked != nil && it.Bucket() >= d.parked.class {
		select {
		case d.preempt <- struct{}{}:
		default:
		}
	}
	select {
	case d.qWake <- struct{}{}:
	default:
	}
	d.mu.Unlock()
	if d.observer != nil {
		d.observer(job, obs.StageAdmitted, "", -1)
	}
	return h, nil
}

// Admit applies the same admission control to a job an external loop
// will serve (the session pool): no queue entry, but the same typed
// rejections, quota slot, Submitted counts and sequence counter as
// Submit, taken under one lock. QueueDepth bounds the externally served
// jobs in flight separately from the queue. The caller passes seq to
// WaitTurn before starting the job and must end it with Finish.
func (d *Dispatcher[Job, Placement, Result]) Admit(tenant string, class int, deadline time.Time) (*Handle[Result], uint64, error) {
	class = d.clampClass(class)
	d.mu.Lock()
	defer d.mu.Unlock()
	h, seq, err := d.admitLocked(tenant, class, deadline, d.external)
	if err != nil {
		return nil, 0, err
	}
	h.external = true
	d.external++
	return h, seq, nil
}

// Close stops intake, waits for every admitted job to finish, and shuts
// down the dispatcher and worker goroutines. It is safe to call once.
func (d *Dispatcher[Job, Placement, Result]) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("sched: dispatcher closed: %w", core.ErrDestroyed)
	}
	d.closed = true
	d.mu.Unlock()
	select {
	case d.qWake <- struct{}{}:
	default:
	}
	<-d.dispatcherDone
	for _, ch := range d.work {
		close(ch)
	}
	d.workersDone.Wait()
	return nil
}

// Backlog reports how many placed jobs are waiting in a chip worker's
// channel (not counting one currently executing). Executors can fold it
// into their placement score to spread load.
func (d *Dispatcher[Job, Placement, Result]) Backlog(chip int) int {
	return len(d.work[chip])
}

// InFlight reports placements currently claimed on chips (placed but
// not yet released). The session path uses it to decide between parking
// for capacity and failing terminally, the same judgment the dispatcher
// makes for its own queue.
func (d *Dispatcher[Job, Placement, Result]) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inflight
}

// QueueLen reports jobs currently sitting in the admission queue
// (admitted, not yet popped for placement).
func (d *Dispatcher[Job, Placement, Result]) QueueLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.q.Len()
}

// Pending reports every admitted job that has not finished: queued,
// parked on a mapping edge, parked on capacity, placed but not yet
// released, or served externally. A draining shard is quiescent when
// Pending reaches zero.
func (d *Dispatcher[Job, Placement, Result]) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.q.Len() + len(d.mapWaits) + d.inflight + d.external
	if d.parked != nil {
		n++
	}
	return n
}

// Stolen is one queued job removed by Steal: everything the thief needs
// to resubmit the work elsewhere, plus the original Handle so the
// caller's Wait still resolves. The thief owns the handle's lifecycle
// now — it must eventually call Finish (directly or by forwarding
// another handle's outcome) exactly once.
type Stolen[Job, Result any] struct {
	Job      Job
	Ctx      context.Context
	Tenant   string
	Class    int
	Deadline time.Time
	Handle   *Handle[Result]
}

// Steal removes up to max queued jobs whose effective class is at or
// below maxClass and hands them to the caller — the fleet's work-stealing
// hook. Victims are taken from the back of the pop order (the work that
// would wait longest here), never the head the dispatcher is placing,
// never map-parked jobs (their mapping is this shard's sunk cost). Each
// stolen job's quota slot is released and its admission is un-booked, so
// shard-level accounting balances when the destination re-books it.
func (d *Dispatcher[Job, Placement, Result]) Steal(maxClass, max int) []Stolen[Job, Result] {
	if max <= 0 {
		return nil
	}
	d.mu.Lock()
	items := d.q.InOrder(d.q.Len())
	var out []Stolen[Job, Result]
	for i := len(items) - 1; i >= 0 && len(out) < max; i-- {
		it := items[i]
		if it.Bucket() > maxClass {
			continue
		}
		t := it.Job
		// Leave canceled/expired jobs for the dispatcher's own sweeps:
		// they fail with the right typed error and counters here.
		if t.ctx.Err() != nil {
			continue
		}
		if !t.deadline.IsZero() && d.cfg.Clock.Now().After(t.deadline) {
			continue
		}
		if !d.q.Remove(it) {
			continue
		}
		if d.tenants[t.h.tenant]--; d.tenants[t.h.tenant] <= 0 {
			delete(d.tenants, t.h.tenant)
		}
		d.stats.Submitted--
		d.stats.Stolen++
		d.classes[t.h.class].stats.Submitted--
		out = append(out, Stolen[Job, Result]{
			Job:      t.job,
			Ctx:      t.ctx,
			Tenant:   t.h.tenant,
			Class:    t.h.class,
			Deadline: t.deadline,
			Handle:   t.h,
		})
	}
	if len(out) > 0 {
		d.checkTurnsLocked()
	}
	observer := d.observer
	d.mu.Unlock()
	// The observer contract is lock-free delivery; emit the forwarded
	// events only after the dispatcher lock is released.
	if observer != nil {
		for _, st := range out {
			observer(st.Job, obs.StageForwarded, "steal", -1)
		}
	}
	return out
}

// SetObserver installs the lifecycle trace hook: one callback per
// transition the dispatcher owns — admitted (Submit succeeded), placed
// (detail "hit"/"miss" for the claim; "map-parked" once before it, when
// the job first parks on a mapping), executing, and done/failed. Chip
// is -1 for off-chip stages. The hook is called outside the dispatcher
// lock and must be cheap and non-blocking (the obs.Recorder qualifies).
// Install it before the first Submit.
func (d *Dispatcher[Job, Placement, Result]) SetObserver(fn func(job Job, stage obs.Stage, detail string, chip int)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.observer = fn
}

// WaitTurn blocks an external job (holding the seq Admit issued) until the
// dispatcher's queue holds no older job of equal-or-higher effective
// class — including the job currently parked awaiting capacity. This is
// the admission-order fairness gate: a warm session hit must not overtake
// one-shot work that was admitted before it at the same or higher
// priority, while higher-class external jobs pass lower-class queued work
// freely. It returns early when ctx is canceled, or with
// ErrDeadlineExceeded when the job's scheduling deadline (zero = none)
// passes while waiting.
func (d *Dispatcher[Job, Placement, Result]) WaitTurn(ctx context.Context, seq uint64, class int, deadline time.Time) error {
	var deadlineC <-chan time.Time
	if !deadline.IsZero() {
		timer := d.timerUntil(deadline)
		defer timer.Stop()
		deadlineC = timer.C()
	}
	for {
		d.mu.Lock()
		class = d.clampClass(class)
		if !d.blockedLocked(seq, class) {
			d.mu.Unlock()
			return nil
		}
		w := &turnWaiter{seq: seq, class: class, ch: make(chan struct{})}
		d.waiters[w] = struct{}{}
		d.mu.Unlock()
		select {
		case <-w.ch:
			// Re-check: aging may have promoted another older job into a
			// blocking class since the wakeup was decided.
		case <-ctx.Done():
			d.dropWaiter(w)
			return fmt.Errorf("sched: job canceled awaiting its admission turn: %w", ctx.Err())
		case <-deadlineC:
			d.dropWaiter(w)
			return fmt.Errorf("sched: deadline passed awaiting admission turn: %w", core.ErrDeadlineExceeded)
		}
	}
}

func (d *Dispatcher[Job, Placement, Result]) dropWaiter(w *turnWaiter) {
	d.mu.Lock()
	delete(d.waiters, w)
	d.mu.Unlock()
}

// blockedLocked reports whether an external ticket must keep waiting:
// some older equal-or-higher-class job is still queued or parked.
// Caller holds d.mu.
func (d *Dispatcher[Job, Placement, Result]) blockedLocked(seq uint64, class int) bool {
	if d.parked != nil && d.parked.seq < seq && d.parked.class >= class {
		return true
	}
	for it := range d.mapWaits {
		if it.Seq < seq && it.Bucket() >= class {
			return true
		}
	}
	return d.q.HasOlderAtOrAbove(seq, class)
}

// checkTurnsLocked wakes every external waiter whose blockers have
// drained. Caller holds d.mu; it must be called whenever a job leaves
// the queue or the parked slot.
func (d *Dispatcher[Job, Placement, Result]) checkTurnsLocked() {
	for w := range d.waiters {
		if !d.blockedLocked(w.seq, w.class) {
			close(w.ch)
			delete(d.waiters, w)
		}
	}
}

// Kick signals the dispatcher that capacity was freed outside its own
// Release path — a resident session went idle or was evicted. A job
// parked on backpressure rescores its placement. Kick never blocks.
func (d *Dispatcher[Job, Placement, Result]) Kick() {
	select {
	case d.freed <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the counters.
func (d *Dispatcher[Job, Placement, Result]) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.ChipJobs = append([]int(nil), d.stats.ChipJobs...)
	s.PerClass = make([]metrics.SchedClassStats, len(d.classes))
	promos := d.q.Promotions()
	for i := range d.classes {
		cs := d.classes[i].stats
		cs.Promotions = promos[i]
		snap := d.classes[i].waits.Snapshot()
		cs.P50Wait = snap.Quantile(0.50)
		cs.P99Wait = snap.Quantile(0.99)
		s.PerClass[i] = cs
	}
	return s
}

// dispatch pops tasks in priority order — failing deadline-expired ones
// fast — and places each on the best-scoring chip, parking on
// backpressure until a worker frees capacity. Jobs whose async mapping
// completed (mapReady) re-enter ahead of the queue — unless a
// better-ordered job arrived while they mapped, in which case they are
// requeued with their original ticket and the better job goes first.
func (d *Dispatcher[Job, Placement, Result]) dispatch() {
	defer close(d.dispatcherDone)
	for {
		d.mu.Lock()
		expired := d.q.PopExpired(d.now())
		var it *queue.Item[*task[Job, Result]]
		ok := false
		if len(d.mapReady) > 0 {
			it = d.mapReady[0]
			// Shift down and nil the vacated slot: reslicing from the front
			// would keep the popped job (task, ctx, handle) reachable from
			// the backing array until its next reallocation.
			n := copy(d.mapReady, d.mapReady[1:])
			d.mapReady[n] = nil
			d.mapReady = d.mapReady[:n]
			delete(d.mapWaits, it)
			ok = true
			if d.q.Better(it) {
				d.q.Requeue(it)
				d.classes[it.Bucket()].stats.Displaced++
				it, ok = d.q.Pop()
			}
		} else {
			it, ok = d.q.Pop()
		}
		if ok {
			d.parked = &ticket{seq: it.Seq, class: it.Bucket()}
		}
		d.checkTurnsLocked()
		closed := d.closed
		mapsOutstanding := len(d.mapWaits)
		d.mu.Unlock()
		for _, e := range expired {
			d.finishMiss(e.Job)
		}
		if !ok {
			if closed && mapsOutstanding == 0 {
				return
			}
			<-d.qWake
			continue
		}
		t := it.Job
		if err := t.ctx.Err(); err != nil {
			d.unpark()
			d.fail(t, fmt.Errorf("sched: job canceled while queued: %w", err))
			continue
		}
		// Map-parked jobs bypass PopExpired; sweep their deadline here.
		if !t.deadline.IsZero() && d.now().After(t.deadline) {
			d.unpark()
			d.finishMiss(t)
			continue
		}
		d.place(t, it)
	}
}

// unpark clears the parked ticket and wakes external waiters it was
// blocking.
func (d *Dispatcher[Job, Placement, Result]) unpark() {
	d.mu.Lock()
	d.parked = nil
	d.checkTurnsLocked()
	d.mu.Unlock()
}

// finishMiss fails a job whose scheduling deadline passed before
// placement.
func (d *Dispatcher[Job, Placement, Result]) finishMiss(t *task[Job, Result]) {
	d.fail(t, fmt.Errorf("sched: deadline passed after %s queued: %w",
		d.cfg.Clock.Since(t.h.submitted).Round(time.Microsecond), core.ErrDeadlineExceeded))
}

// yield checks whether the parked job should give way to a queued job
// that orders strictly before it — higher class, or same class with an
// earlier deadline or older ticket; if so it requeues the job — keeping
// its sequence ticket, so it re-enters ahead of everything newer in its
// class — and reports true (the dispatch loop then pops the better job).
func (d *Dispatcher[Job, Placement, Result]) yield(it *queue.Item[*task[Job, Result]]) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.q.Better(it) {
		return false
	}
	d.q.Requeue(it)
	d.parked = nil
	d.classes[it.Bucket()].stats.Displaced++
	return true
}

// claimFrom tries the candidates in score order, claiming the first
// chip whose Place succeeds and handing the job to that chip's worker.
// head marks the dispatcher's head-of-line attempt, whose parked ticket
// must clear in the same critical section that claims the placement. The
// trace event of a successful claim is tagged "hit" for an exact fit
// (cost 0) and "miss" otherwise. It reports the last Place error when
// every candidate refused.
func (d *Dispatcher[Job, Placement, Result]) claimFrom(cands []Candidate, t *task[Job, Result], head bool) (bool, error) {
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		return a.Score.compare(b.Score)
	})
	// Try chips in ranked order: Place can fail for reasons a score
	// cannot see (e.g. memory exhaustion), so fall through to the
	// next-best chip instead of parking on the first failure.
	var lastErr error
	for _, c := range cands {
		chip := c.Chip
		pl, err := d.exec.Place(chip, t.job)
		if err != nil {
			lastErr = err
			continue
		}
		exact := c.Score.Cost == 0
		d.mu.Lock()
		d.inflight++
		if head {
			d.parked = nil
			if exact {
				d.stats.HitsFirst++
			}
			d.checkTurnsLocked()
		}
		d.mu.Unlock()
		detail := "miss"
		if exact {
			detail = "hit"
		}
		t.h.MarkStarted(chip)
		if d.observer != nil {
			d.observer(t.job, obs.StagePlaced, detail, chip)
		}
		d.deliver(chip, t, pl)
		return true, nil
	}
	return false, lastErr
}

// deliver hands a claimed placement to its chip worker. The send blocks
// when a chip has accumulated a full buffer of placements — acceptable
// backpressure on the dispatcher — but stays cancelable.
func (d *Dispatcher[Job, Placement, Result]) deliver(chip int, t *task[Job, Result], pl Placement) {
	select {
	case d.work[chip] <- placed[Job, Placement, Result]{t: t, pl: pl}:
	case <-t.ctx.Done():
		relErr := d.exec.Release(chip, pl)
		// The freed signal must be pending before any observer can
		// see inflight==0, so decrement and send under one lock.
		d.mu.Lock()
		d.inflight--
		select {
		case d.freed <- struct{}{}:
		default:
		}
		d.mu.Unlock()
		err := fmt.Errorf("sched: job canceled awaiting its chip worker: %w", t.ctx.Err())
		if relErr != nil {
			err = fmt.Errorf("%w (release: %v)", err, relErr)
		}
		d.fail(t, err)
	}
}

// backfillScan bounds how many queued jobs (in pop order) one backfill
// pass considers; maxBackfills bounds how many jobs may jump one parked
// head, so backfill cannot starve it indefinitely (aging and the head's
// first claim on every freed signal bound the rest).
const (
	backfillScan = 32
	maxBackfills = 64
)

// backfillOne places the best-ordered queued job that fits capacity the
// parked head cannot use. Strict priority order would idle chips
// whenever the head needs a bigger slot than any chip has free; bounded
// backfill keeps them busy without giving the jumped job the head's
// turn (external WaitTurn callers still see the parked head as the
// oldest blocker). A backfill placement is one scheduling round of the
// queue's aging, as the pop it stands in for.
func (d *Dispatcher[Job, Placement, Result]) backfillOne() bool {
	d.mu.Lock()
	queued := d.q.InOrder(backfillScan)
	d.mu.Unlock()
	// One Rank per pass: the best-ordered candidate is about to pop
	// anyway, so computing its placement is never wasted work (it lands
	// in the executor's cache), and the pass waits for it here on the
	// dispatch loop; every further candidate must be cache-served or it
	// is skipped — backfill is opportunistic and never stalls the
	// dispatcher on a second mapping.
	ranked := false
	for _, it := range queued {
		t := it.Job
		// Skip jobs the dispatch loop's own sweeps will fail.
		if t.ctx.Err() != nil {
			continue
		}
		if !t.deadline.IsZero() && d.now().After(t.deadline) {
			continue
		}
		var cands []Candidate
		if ranked {
			cands = d.exec.RankCached(t.job)
		} else {
			ranked = true
			var pending <-chan struct{}
			if cands, pending, _ = d.exec.Rank(t.job); pending != nil {
				<-pending
				cands, _, _ = d.exec.Rank(t.job)
			}
		}
		if ok, _ := d.claimFrom(cands, t, false); !ok {
			continue
		}
		d.mu.Lock()
		// Only the dispatcher goroutine pops or removes, so the claimed
		// item is necessarily still queued.
		d.q.Take(it)
		d.classes[it.Bucket()].stats.Backfilled++
		d.checkTurnsLocked()
		d.mu.Unlock()
		return true
	}
	return false
}

// parkForMapping hands a popped job to the async mappers: the dispatch
// loop is free to serve other work while the mapping computes, and a
// waiter goroutine re-injects the job (via mapReady) when the edge
// closes — or when the job's context or deadline fires first, which the
// dispatch loop's own sweeps then turn into the right failure.
func (d *Dispatcher[Job, Placement, Result]) parkForMapping(t *task[Job, Result], it *queue.Item[*task[Job, Result]], ready <-chan struct{}) {
	d.mu.Lock()
	d.mapWaits[it] = struct{}{}
	d.stats.MapParked++
	// The parked ticket clears, but the job stays visible to the external
	// fairness gate through mapWaits — younger session-path work cannot
	// overtake it while its mapping computes; only the dispatcher's own
	// queue keeps flowing.
	d.parked = nil
	d.checkTurnsLocked()
	d.mu.Unlock()
	// A job whose free set keeps moving under its mapping parks again and
	// again; the trace marks where the wait began, once, so a lifecycle
	// stays a bounded number of events (Stats.MapParked counts them all).
	if !t.mapParked && d.observer != nil {
		d.observer(t.job, obs.StagePlaced, "map-parked", -1)
	}
	t.mapParked = true
	go func() {
		var deadlineC <-chan time.Time
		if !t.deadline.IsZero() {
			timer := d.timerUntil(t.deadline)
			defer timer.Stop()
			deadlineC = timer.C()
		}
		select {
		case <-ready:
		case <-t.ctx.Done():
		case <-deadlineC:
		}
		d.mu.Lock()
		d.mapReady = append(d.mapReady, it)
		d.mu.Unlock()
		select {
		case d.qWake <- struct{}{}:
		default:
		}
	}()
}

// place claims a chip for the job the dispatcher popped, one Rank per
// attempt: candidates are claimed in score order; an executor still
// computing parks the job on its mapReady edge, and the dispatch loop
// moves on — younger queued jobs may place ahead of it until its mapping
// lands and it re-enters ahead of the queue. When no chip can host it,
// it reclaims external capacity, backfills smaller queued jobs into
// holes the head cannot use, and parks until a release — unless a
// better-ordered arrival displaces the job back into the queue, or its
// deadline passes first; with nothing in flight the failure is terminal.
func (d *Dispatcher[Job, Placement, Result]) place(t *task[Job, Result], it *queue.Item[*task[Job, Result]]) {
	var deadlineC <-chan time.Time
	if !t.deadline.IsZero() {
		timer := d.timerUntil(t.deadline)
		defer timer.Stop()
		deadlineC = timer.C()
	}
	backfills := 0
	for {
		cands, pending, rankErr := d.exec.Rank(t.job)
		if pending != nil {
			d.parkForMapping(t, it, pending)
			return
		}
		placedOK, lastErr := d.claimFrom(cands, t, true)
		if placedOK {
			return
		}
		if lastErr == nil {
			lastErr = rankErr
		}
		// No chip can host the job right now. Before parking (or failing),
		// ask the external path to give capacity back — whether the rank
		// named no chip or a Place failed on what a score cannot see, e.g.
		// the buddy allocator out of memory held by an idle warm session
		// (lowest class first; see the session pool's eviction order).
		if d.cfg.Reclaim != nil && d.cfg.Reclaim() {
			continue
		}
		// A release since this attempt began freed capacity the head has
		// first claim on: rank it again before backfill can take it.
		select {
		case <-d.freed:
			continue
		default:
		}
		// The head keeps its turn but must not idle chips it cannot use:
		// hand free capacity to the best queued job that fits it.
		if backfills < maxBackfills && d.backfillOne() {
			backfills++
			continue
		}
		// If nothing is in flight no future Release can change the
		// situation — fail fast instead of deadlocking.
		if lastErr == nil {
			// Defensive: Rank returned no candidates and no reason.
			lastErr = fmt.Errorf("no chip can host the job: %w", core.ErrNoCapacity)
		}
		d.mu.Lock()
		idle := d.inflight == 0
		// Queued jobs' deadlines must fire even while the head is parked
		// with no scheduling event in sight: arm a timer on the earliest
		// queued deadline for this wait.
		queueDl, queueDlArmed := d.q.NextDeadline()
		d.mu.Unlock()
		// Busy resident sessions hold capacity this dispatcher cannot see
		// in its own in-flight count; their release Kicks the freed
		// channel, so parking is safe and terminal failure would be
		// premature.
		if idle && d.cfg.ExternalBusy != nil && d.cfg.ExternalBusy() {
			idle = false
		}
		if idle {
			// A release may have landed between scoring and the idle
			// check; drain its pending signal and rescore once more
			// before declaring the failure terminal.
			select {
			case <-d.freed:
				continue
			default:
			}
			d.unpark()
			d.fail(t, fmt.Errorf("sched: unplaceable on an idle cluster: %w", lastErr))
			return
		}
		var queueDlC <-chan time.Time
		var queueTimer sim.Timer
		if queueDlArmed {
			queueTimer = d.timerUntil(queueDl)
			queueDlC = queueTimer.C()
		}
		stopQueueTimer := func() {
			if queueTimer != nil {
				queueTimer.Stop()
			}
		}
		select {
		case <-d.freed:
			// A placement was released; rescore — unless a higher-class
			// arrival should take this scheduling round instead.
			if d.yield(it) {
				stopQueueTimer()
				return
			}
		case <-d.preempt:
			if d.yield(it) {
				stopQueueTimer()
				return
			}
		case <-queueDlC:
			// A queued (non-head) job's deadline passed: fail it fast and
			// keep trying to place the head.
			d.mu.Lock()
			expired := d.q.PopExpired(d.now())
			d.checkTurnsLocked()
			d.mu.Unlock()
			for _, e := range expired {
				d.finishMiss(e.Job)
			}
		case <-deadlineC:
			stopQueueTimer()
			d.unpark()
			d.finishMiss(t)
			return
		case <-t.ctx.Done():
			stopQueueTimer()
			d.unpark()
			d.fail(t, fmt.Errorf("sched: job canceled awaiting capacity: %w", t.ctx.Err()))
			return
		}
		stopQueueTimer()
	}
}

// worker executes placed jobs for one chip. With a single slot per chip
// jobs run in placement order; with several slots the chip's workers
// drain one channel concurrently, so order across overlapped jobs is
// whatever the executor's region locking admits.
func (d *Dispatcher[Job, Placement, Result]) worker(chip int) {
	defer d.workersDone.Done()
	for p := range d.work[chip] {
		t := p.t
		var res Result
		var busy time.Duration
		ran := false
		err := t.ctx.Err()
		if err == nil {
			if d.observer != nil {
				d.observer(t.job, obs.StageExecuting, "", chip)
			}
			res, busy, err = d.exec.Execute(t.ctx, chip, p.pl, t.job)
			ran = true
		} else {
			err = fmt.Errorf("sched: job canceled before execution: %w", err)
		}
		// A Release failure means the chip leaked the placement — never
		// swallow it, even when Execute already failed.
		if relErr := d.exec.Release(chip, p.pl); relErr != nil {
			if err == nil {
				err = relErr
			} else {
				err = fmt.Errorf("%w (release: %v)", err, relErr)
			}
		}
		// Decrement and signal under one lock: the dispatcher's idle check
		// must never observe inflight==0 with an empty freed channel after
		// a release, or it would terminally fail a now-placeable job.
		d.mu.Lock()
		d.inflight--
		select {
		case d.freed <- struct{}{}:
		default:
		}
		d.mu.Unlock()
		d.Finish(t.h, t.job, ran, busy, res, err)
	}
}

// fail finishes a job that never reached execution.
func (d *Dispatcher[Job, Placement, Result]) fail(t *task[Job, Result], err error) {
	d.Finish(t.h, t.job, false, 0, *new(Result), err)
}

// Finish is the one completion of an admitted job, called exactly once
// by whichever loop served it — a chip worker or an external one. Under
// one hold of d.mu it returns the quota slot and books the outcome into
// the global and per-class counters (and, when the job ran — entered
// execution on the chip MarkStarted named — that chip's job count); it
// then observes the stage latencies — queue wait for a job that reached
// a chip, busy as the "exec" stage for one that ran, submit-to-now as
// "e2e" — notifies the observer, and only then resolves the handle, so
// a caller returning from Wait finds the job in Stats.
func (d *Dispatcher[Job, Placement, Result]) Finish(h *Handle[Result], job Job, ran bool, busy time.Duration, res Result, err error) {
	chip := h.Chip()
	d.mu.Lock()
	if d.tenants[h.tenant]--; d.tenants[h.tenant] <= 0 {
		delete(d.tenants, h.tenant)
	}
	if h.external {
		d.external--
	}
	cl := &d.classes[h.class]
	if err == nil {
		d.stats.Completed++
		cl.stats.Completed++
	} else {
		d.stats.Failed++
		cl.stats.Failed++
		if errors.Is(err, core.ErrDeadlineExceeded) {
			cl.stats.DeadlineMisses++
		}
	}
	if ran {
		d.stats.ChipJobs[chip]++
	}
	d.mu.Unlock()
	if chip >= 0 {
		cl.waits.Observe(h.placedAt.Sub(h.submitted))
	}
	if ran {
		cl.exec.Observe(busy)
	}
	cl.e2e.Observe(d.cfg.Clock.Since(h.submitted))
	if d.observer != nil {
		stage := obs.StageDone
		if err != nil {
			stage = obs.StageFailed
		}
		d.observer(job, stage, "", chip)
	}
	h.Finish(res, err)
}
