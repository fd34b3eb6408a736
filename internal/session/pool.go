// Package session implements the resident-vNPU lease pool behind the
// cluster's serving path: instead of paying create→map→run→destroy for
// every job, jobs of one (tenant, model fingerprint, topology class)
// lease a warm resident vNPU when one is idle, skipping placement and
// creation entirely — the reuse lever the paper's fast create/destroy
// makes cheap to build but does not give by itself (steady-state
// occupancy, not create speed, decides serving throughput).
//
// Three mechanisms shape the pool:
//
//   - Leases: Acquire returns a warm idle session for the key when one
//     exists, otherwise runs the caller's cold-create closure. Release
//     (via Lease.Next) returns the session to the idle pool with a TTL;
//     a janitor destroys sessions idle past it, and an LRU bound caps
//     how much capacity warm sessions may hold.
//   - Pressure eviction: when a cold create — or any placement outside
//     the pool — fails for lack of capacity, idle sessions are evicted
//     lowest-scheduling-class first (LRU within a class) to hand their
//     cores back, so warm pools never starve jobs that need fresh
//     rectangles and low-priority residency is preempted before
//     high-priority pools are touched.
//   - Continuous batching: each busy session carries a bounded
//     micro-queue. Attach appends a compatible job (same key — same
//     tenant, model and topology) to a busy session; the holder drains
//     the queue back-to-back on the resident vNPU before releasing, so
//     bursts of small decode-phase jobs share one placement, one create
//     and one compile.
//
// The pool is generic over the resource (R, the cluster's resident vNPU
// wrapper) and the micro-queue item (Q, the cluster's job task), keeping
// it independent of the virtualization layer like internal/sched. All
// methods are safe for concurrent use.
package session

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Key identifies a session class. Two jobs may share a resident vNPU
// only when every field matches: the tenant (sessions never cross tenant
// boundaries), the model fingerprint (the compiled program is cached on
// the session), the topology class (an exact encoding — isomorphic but
// relabeled topologies need distinct sessions, as their virtual-core
// wiring differs) and a fingerprint of the request options that shape
// the created vNPU (memory, confinement, translation mode, ...).
type Key struct {
	Tenant string
	Model  uint64
	Topo   string
	Opts   uint64
}

// Defaults for Config fields left zero.
const (
	// DefaultMaxIdle bounds resident idle sessions across the pool.
	DefaultMaxIdle = 64
	// DefaultTTL is the idle time after which a session is destroyed.
	DefaultTTL = time.Second
	// DefaultMicroQueueDepth bounds each busy session's micro-queue.
	DefaultMicroQueueDepth = 16
)

// Config tunes a Pool.
type Config[R any] struct {
	// Destroy tears a session's resource down (destroys the vNPU and
	// returns its cores to the placement engine's free set). Required.
	Destroy func(chip int, res R) error
	// Cores reports the resource's core count, for the warm-capacity
	// gauges (IdleCoresOn). Optional; nil reports 0.
	Cores func(res R) int
	// Priority reports the resource's scheduling class (higher = more
	// important). Eviction — pressure reclaim and the MaxIdle bound —
	// picks the lowest-class idle session first, least recently used
	// within a class, so a high-priority cold create preempts
	// low-priority warm residency before touching high-priority pools.
	// Optional; nil treats every session as class 0 (pure LRU).
	Priority func(res R) int
	// IsCapacity classifies cold-create errors that evicting idle
	// sessions may cure (the cluster uses ErrNoCapacity and
	// ErrTopologyUnsatisfiable). Nil means no error is curable.
	IsCapacity func(error) bool
	// MaxIdle bounds idle sessions pool-wide; beyond it the
	// least-recently-used idle session is destroyed. <= 0 selects
	// DefaultMaxIdle.
	MaxIdle int
	// TTL is how long a session may sit idle before the janitor destroys
	// it. <= 0 selects DefaultTTL.
	TTL time.Duration
	// MicroQueueDepth bounds each busy session's micro-queue. <= 0
	// selects DefaultMicroQueueDepth.
	MicroQueueDepth int
	// Clock supplies time to the TTL bookkeeping AND the janitor's tick
	// timer: with a sim.VirtualClock injected, idle sessions expire only
	// as virtual time advances. Nil uses the wall clock.
	Clock sim.Clock
	// Now overrides just the TTL timestamp reads (tests that want to
	// steer expiry without rewiring the janitor). It takes precedence
	// over Clock for timestamps; the janitor always ticks on Clock.
	// Tests that inject Now should call Sweep directly.
	Now func() time.Time
	// OnFree, when non-nil, runs after the pool returns capacity to the
	// system — a session went idle (reclaimable) or was destroyed. The
	// cluster wires it to the dispatcher's Kick so jobs parked on
	// backpressure rescore.
	OnFree func()
}

type sessState uint8

const (
	stateBusy sessState = iota
	stateIdle
)

// sess is one resident session.
type sess[R, Q any] struct {
	key   Key
	chip  int
	res   R
	cores int
	// prio is the session's scheduling class, fixed at create time (the
	// class of the job whose cold create built it); eviction prefers
	// lower classes.
	prio   int
	state  sessState
	microq []Q
	// expires and elem are meaningful while idle.
	expires time.Time
	elem    *list.Element
}

// Pool owns the resident sessions. Create one with New and Close it to
// destroy the idle residents and stop the janitor.
type Pool[R, Q any] struct {
	cfg Config[R]

	mu        sync.Mutex
	closed    bool
	byKey     map[Key][]*sess[R, Q]
	idleLRU   *list.List // front = most recently idle; evict from back
	idleCount int
	busyCount int
	// pending counts cold creates in flight: their resources are already
	// (partially) claimed from the system but the session is not yet
	// registered. Busy and Counts include them so capacity-wait logic
	// never mistakes a cluster mid-create for an idle one.
	pending   int
	idleCores map[int]int // per chip, warm reclaimable capacity
	stats     metrics.SessionStats
	destroyMu sync.Mutex
	firstErr  error // first Destroy failure, surfaced by Close

	stop        chan struct{}
	janitorDone chan struct{}
}

// New builds a pool and starts its TTL janitor.
func New[R, Q any](cfg Config[R]) (*Pool[R, Q], error) {
	if cfg.Destroy == nil {
		return nil, fmt.Errorf("session: config needs a Destroy hook")
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = DefaultMaxIdle
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MicroQueueDepth <= 0 {
		cfg.MicroQueueDepth = DefaultMicroQueueDepth
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.Wall()
	}
	p := &Pool[R, Q]{
		cfg:         cfg,
		byKey:       make(map[Key][]*sess[R, Q]),
		idleLRU:     list.New(),
		idleCores:   make(map[int]int),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go p.janitor()
	return p, nil
}

func (p *Pool[R, Q]) now() time.Time {
	if p.cfg.Now != nil {
		return p.cfg.Now()
	}
	return p.cfg.Clock.Now()
}

// janitor periodically sweeps idle sessions past their TTL. It ticks on
// the configured Clock: with a virtual clock the sweeps fire as the
// owner advances time, so trace replays expire sessions at the right
// simulated moments instead of wall-clock ones.
func (p *Pool[R, Q]) janitor() {
	defer close(p.janitorDone)
	tick := p.cfg.TTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	for {
		t := p.cfg.Clock.NewTimer(tick)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C():
			p.Sweep()
		}
	}
}

// Lease is a held session: exactly one goroutine owns it between Acquire
// and the Next call that releases it.
type Lease[R, Q any] struct {
	p *Pool[R, Q]
	s *sess[R, Q]
}

// Chip reports the chip hosting the leased session.
func (l *Lease[R, Q]) Chip() int { return l.s.chip }

// Resource returns the leased resource.
func (l *Lease[R, Q]) Resource() R { return l.s.res }

// AcquireWarm leases an idle warm session for the key when one exists,
// never falling through to the cold path. Serving loops try it before
// Attach: an idle warm session runs the job immediately, which beats
// queuing behind a busy one when concurrent cold creates left several
// sessions of one key.
func (p *Pool[R, Q]) AcquireWarm(key Key) (*Lease[R, Q], bool) {
	start := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false
	}
	l := p.acquireWarmLocked(key, start)
	return l, l != nil
}

// acquireWarmLocked promotes an idle session of the key to busy and
// books the warm-hit stats, or returns nil when none is idle. Caller
// holds p.mu. Both warm entry points share it so warm-hit selection
// cannot diverge between them.
func (p *Pool[R, Q]) acquireWarmLocked(key Key, start time.Time) *Lease[R, Q] {
	for _, s := range p.byKey[key] {
		if s.state == stateIdle {
			p.promoteLocked(s)
			p.stats.WarmHits++
			p.stats.WarmTime += p.cfg.Clock.Since(start)
			return &Lease[R, Q]{p: p, s: s}
		}
	}
	return nil
}

// Acquire leases a session for the key: an idle warm one when available
// (warm == true), otherwise whatever the create closure builds — with
// idle sessions evicted LRU-first and the create retried whenever it
// fails with an error IsCapacity classifies as curable. The closure runs
// without the pool lock held; two concurrent cold acquires of one key
// may therefore create two sessions, both of which pool on release.
func (p *Pool[R, Q]) Acquire(key Key, create func() (int, R, error)) (*Lease[R, Q], bool, error) {
	start := p.cfg.Clock.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("session: pool closed: %w", core.ErrDestroyed)
	}
	if l := p.acquireWarmLocked(key, start); l != nil {
		p.mu.Unlock()
		return l, true, nil
	}
	// The cold create is pending from here until the session registers
	// (or the create fails): its claimed resources must read as busy to
	// capacity-wait logic, never as an idle cluster.
	p.pending++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.pending--
		p.mu.Unlock()
	}()

	for {
		chip, res, err := create()
		if err == nil {
			s := &sess[R, Q]{key: key, chip: chip, res: res, state: stateBusy}
			if p.cfg.Cores != nil {
				s.cores = p.cfg.Cores(res)
			}
			if p.cfg.Priority != nil {
				s.prio = p.cfg.Priority(res)
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				p.destroy(s)
				return nil, false, fmt.Errorf("session: pool closed: %w", core.ErrDestroyed)
			}
			p.byKey[key] = append(p.byKey[key], s)
			p.busyCount++
			p.stats.ColdCreates++
			p.stats.ColdTime += p.cfg.Clock.Since(start)
			p.mu.Unlock()
			return &Lease[R, Q]{p: p, s: s}, false, nil
		}
		if p.cfg.IsCapacity == nil || !p.cfg.IsCapacity(err) {
			return nil, false, err
		}
		// Capacity pressure: reclaim the least-recently-used idle
		// session and retry. When nothing is left to evict, the failure
		// stands.
		if p.evict(1, &p.stats.EvictedPressure) == 0 {
			return nil, false, err
		}
	}
}

// Attach appends the item to the micro-queue of a busy session with the
// key, reporting whether one accepted it. The session's holder will run
// it back-to-back on the resident vNPU before releasing (continuous
// batching). It fails when no session with the key is busy, every busy
// session's micro-queue is full, or the pool is closed.
func (p *Pool[R, Q]) Attach(key Key, item Q) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	for _, s := range p.byKey[key] {
		if s.state == stateBusy && len(s.microq) < p.cfg.MicroQueueDepth {
			s.microq = append(s.microq, item)
			p.stats.Batched++
			return true
		}
	}
	return false
}

// Next either pops the next micro-queued item (ok == true; the lease
// stays held and the caller runs the item on the resident vNPU) or — with
// the micro-queue empty — releases the session back to the idle pool and
// invalidates the lease (ok == false). The two are one atomic step, so
// no Attach can slip in between the empty check and the release. On a
// closed pool the release destroys the session instead of pooling it.
func (l *Lease[R, Q]) Next() (Q, bool) {
	var zero Q
	p, s := l.p, l.s
	p.mu.Lock()
	if len(s.microq) > 0 {
		item := s.microq[0]
		s.microq = s.microq[1:]
		p.mu.Unlock()
		return item, true
	}
	if p.closed {
		p.removeBusyLocked(s)
		p.mu.Unlock()
		p.destroy(s)
		p.free()
		return zero, false
	}
	s.state = stateIdle
	s.expires = p.now().Add(p.cfg.TTL)
	s.elem = p.idleLRU.PushFront(s)
	p.idleCount++
	p.busyCount--
	p.idleCores[s.chip] += s.cores
	over := p.idleCount - p.cfg.MaxIdle
	var victims []*sess[R, Q]
	for ; over > 0; over-- {
		victims = append(victims, p.popIdleLocked(p.victimLocked()))
		p.stats.EvictedLRU++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	p.free()
	return zero, false
}

// Discard removes the leased session from the pool and destroys it
// instead of pooling it — the holder's escape hatch when execution left
// the resource suspect. It returns the drained micro-queue so the caller
// can re-dispatch (or fail) the jobs that were waiting on the session.
func (l *Lease[R, Q]) Discard() []Q {
	p, s := l.p, l.s
	p.mu.Lock()
	items := s.microq
	s.microq = nil
	// The returned jobs were counted Batched at Attach but will re-enter
	// the pool (attach or acquire) and be counted again; take the first
	// count back so HitRate stays a per-job rate.
	p.stats.Batched -= uint64(len(items))
	p.removeBusyLocked(s)
	p.mu.Unlock()
	p.destroy(s)
	p.free()
	return items
}

// EvictIdle destroys up to n idle sessions — lowest scheduling class
// first, least recently used within a class — returning how many it
// evicted. Serving paths outside the pool call it when a placement fails
// for lack of capacity, reclaiming warm cores for jobs that need fresh
// rectangles; the class-weighted order means low-priority warm residency
// is always cannibalized before high-priority pools.
func (p *Pool[R, Q]) EvictIdle(n int) int {
	return p.evict(n, &p.stats.EvictedPressure)
}

// victimLocked picks the eviction victim: the idle session with the
// lowest class; within a class, the least recently used (closest to the
// LRU back). Caller holds p.mu; returns nil with no idle sessions.
func (p *Pool[R, Q]) victimLocked() *list.Element {
	var best *list.Element
	bestPrio := 0
	// Walk from the LRU back so the first session seen in each class is
	// its least recently used; strict < keeps it.
	for e := p.idleLRU.Back(); e != nil; e = e.Prev() {
		s := e.Value.(*sess[R, Q])
		if best == nil || s.prio < bestPrio {
			best, bestPrio = e, s.prio
		}
	}
	return best
}

// evict pops up to n idle sessions in class-weighted LRU order, counts
// them in the given stat (which must be a field of p.stats, guarded by
// p.mu), and destroys them outside the lock.
func (p *Pool[R, Q]) evict(n int, counter *uint64) int {
	p.mu.Lock()
	var victims []*sess[R, Q]
	for len(victims) < n {
		e := p.victimLocked()
		if e == nil {
			break
		}
		victims = append(victims, p.popIdleLocked(e))
		*counter++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	if len(victims) > 0 {
		p.free()
	}
	return len(victims)
}

// Sweep destroys idle sessions whose TTL expired. The janitor calls it
// periodically; tests with an injected clock call it directly.
func (p *Pool[R, Q]) Sweep() int {
	now := p.now()
	p.mu.Lock()
	var victims []*sess[R, Q]
	// Idle order is monotonic in expiry (constant TTL), so the LRU back
	// always expires first.
	for e := p.idleLRU.Back(); e != nil; e = p.idleLRU.Back() {
		s := e.Value.(*sess[R, Q])
		if s.expires.After(now) {
			break
		}
		victims = append(victims, p.popIdleLocked(e))
		p.stats.EvictedTTL++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	if len(victims) > 0 {
		p.free()
	}
	return len(victims)
}

// Close stops the janitor and destroys every idle session. Sessions
// still busy are destroyed when their holders release them. It returns
// the first Destroy failure observed over the pool's lifetime.
func (p *Pool[R, Q]) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("session: pool closed: %w", core.ErrDestroyed)
	}
	p.closed = true
	var victims []*sess[R, Q]
	for e := p.idleLRU.Back(); e != nil; e = p.idleLRU.Back() {
		victims = append(victims, p.popIdleLocked(e))
	}
	p.mu.Unlock()
	close(p.stop)
	<-p.janitorDone
	for _, v := range victims {
		p.destroy(v)
	}
	p.destroyMu.Lock()
	defer p.destroyMu.Unlock()
	return p.firstErr
}

// Busy reports whether any session is currently executing (leased) or
// mid-cold-create. The dispatcher's ExternalBusy probe uses it: busy
// sessions (and failed creates) signal on release, so parking on them is
// safe.
func (p *Pool[R, Q]) Busy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busyCount+p.pending > 0
}

// Counts reports the resident-session gauges: idle (reclaimable) and
// busy (executing or mid-cold-create) sessions.
func (p *Pool[R, Q]) Counts() (idle, busy int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idleCount, p.busyCount + p.pending
}

// HeldBelow reports how many of a chip's cores are held by resident
// sessions (busy or idle) of scheduling class at or below the given one —
// the residency a job of that class may cannibalize under capacity
// pressure (eviction takes the lowest class first). Session placement
// consolidates onto chips with the most such cores, keeping higher-class
// pools and genuinely free chips intact.
func (p *Pool[R, Q]) HeldBelow(chip, class int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.byKey {
		for _, s := range list {
			if s.chip == chip && s.prio <= class {
				n += s.cores
			}
		}
	}
	return n
}

// IdleCoresOn reports how many of a chip's cores idle warm sessions
// hold — allocated but reclaimable capacity.
func (p *Pool[R, Q]) IdleCoresOn(chip int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idleCores[chip]
}

// Stats returns a snapshot of the pool's counters and gauges.
func (p *Pool[R, Q]) Stats() metrics.SessionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.IdleSessions = p.idleCount
	s.BusySessions = p.busyCount
	for _, n := range p.idleCores {
		s.IdleCores += n
	}
	return s
}

// promoteLocked moves an idle session to busy. Caller holds p.mu.
func (p *Pool[R, Q]) promoteLocked(s *sess[R, Q]) {
	p.idleLRU.Remove(s.elem)
	s.elem = nil
	s.state = stateBusy
	p.idleCount--
	p.busyCount++
	p.idleCores[s.chip] -= s.cores
}

// popIdleLocked removes the idle session at e from the LRU, the key
// index and the gauges, returning it for destruction. Caller holds p.mu.
func (p *Pool[R, Q]) popIdleLocked(e *list.Element) *sess[R, Q] {
	s := e.Value.(*sess[R, Q])
	p.idleLRU.Remove(e)
	s.elem = nil
	p.idleCount--
	p.idleCores[s.chip] -= s.cores
	p.removeKeyLocked(s)
	return s
}

// removeBusyLocked removes a busy session from the key index and the
// busy gauge. Caller holds p.mu.
func (p *Pool[R, Q]) removeBusyLocked(s *sess[R, Q]) {
	p.busyCount--
	p.removeKeyLocked(s)
}

// removeKeyLocked drops s from the byKey index. Caller holds p.mu.
func (p *Pool[R, Q]) removeKeyLocked(s *sess[R, Q]) {
	list := p.byKey[s.key]
	for i, o := range list {
		if o == s {
			list[i] = list[len(list)-1]
			p.byKey[s.key] = list[:len(list)-1]
			break
		}
	}
	if len(p.byKey[s.key]) == 0 {
		delete(p.byKey, s.key)
	}
}

// destroy tears the session's resource down, recording the first
// failure for Close. Never called with p.mu held.
func (p *Pool[R, Q]) destroy(s *sess[R, Q]) {
	if err := p.cfg.Destroy(s.chip, s.res); err != nil {
		p.destroyMu.Lock()
		if p.firstErr == nil {
			p.firstErr = err
		}
		p.destroyMu.Unlock()
	}
}

// free runs the OnFree hook, if any.
func (p *Pool[R, Q]) free() {
	if p.cfg.OnFree != nil {
		p.cfg.OnFree()
	}
}
