package vnpu

// The session serving path: resident vNPU leases with continuous
// batching, built on internal/session. A cluster with WithSessionReuse
// keeps the vNPU of a finished session-eligible job resident instead of
// destroying it; the next job of the same (tenant, model, topology,
// options) class leases it warm — no placement decision, no create, no
// compile — and bursts of identical jobs are co-scheduled back-to-back
// on one resident vNPU through a per-session micro-queue. Idle sessions
// expire on a TTL, are bounded LRU-wide, and are evicted on demand when
// any job (pooled or not) cannot otherwise be placed, so warm pools
// never starve jobs that need fresh rectangles.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/sched"
	"github.com/vnpu-sim/vnpu/internal/session"
)

// SessionStats is a snapshot of the session pool's counters: warm hits,
// cold creates, micro-queue batches, evictions by cause, resident-session
// gauges, and warm-vs-cold acquisition latency.
type SessionStats = metrics.SessionStats

// WithSessionReuse enables the session pool: session-eligible jobs (see
// Job.Reusable) lease resident vNPUs instead of paying the
// create→map→run→destroy path per job. SessionStats reports the warm-hit
// rate; tune the pool with WithSessionIdleTTL and WithSessionMaxIdle.
func WithSessionReuse() ClusterOption {
	return func(c *clusterConfig) { c.sessionReuse = true }
}

// WithSessionIdleTTL bounds how long a session may sit idle before its
// vNPU is destroyed (default session.DefaultTTL). Shorter TTLs return
// capacity sooner; longer ones raise the warm-hit rate on sparse
// traffic.
func WithSessionIdleTTL(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.sessionTTL = d }
}

// WithSessionMaxIdle bounds idle resident sessions cluster-wide (default
// session.DefaultMaxIdle); beyond it the least-recently-used idle
// session is destroyed.
func WithSessionMaxIdle(n int) ClusterOption {
	return func(c *clusterConfig) { c.sessionIdle = n }
}

// SessionStats returns a snapshot of the session pool's counters (zero
// when WithSessionReuse is off).
func (c *Cluster) SessionStats() SessionStats { return c.Snapshot().Sessions }

// CoreUsage splits one chip's cores by serving state: Allocated counts
// every core some vNPU holds, WarmIdle the subset held by idle resident
// sessions — allocated from the hypervisor's point of view but
// reclaimable on demand. The difference, Active, is what the scheduler's
// load tiebreak uses: a warm pool must not make a chip look busy.
type CoreUsage struct {
	// Cores is the chip's total core count.
	Cores int
	// Allocated counts cores held by any vNPU (running jobs, queued
	// placements, and resident sessions alike).
	Allocated int
	// WarmIdle counts cores held by idle (warm) resident sessions.
	WarmIdle int
}

// Active reports cores allocated to something other than an idle warm
// session.
func (u CoreUsage) Active() int { return u.Allocated - u.WarmIdle }

// ActiveFraction reports Active over the chip's core count.
func (u CoreUsage) ActiveFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.Active()) / float64(u.Cores)
}

// WarmFraction reports WarmIdle over the chip's core count.
func (u CoreUsage) WarmFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.WarmIdle) / float64(u.Cores)
}

// AllocatedFraction reports Allocated over the chip's core count — the
// same number Utilization reports.
func (u CoreUsage) AllocatedFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.Allocated) / float64(u.Cores)
}

// CoreUsage reports every chip's core usage split by serving state.
func (c *Cluster) CoreUsage() []CoreUsage {
	out := make([]CoreUsage, len(c.systems))
	for i := range c.systems {
		out[i] = c.coreUsage(i)
	}
	return out
}

func (c *Cluster) coreUsage(chip int) CoreUsage {
	sys := c.systems[chip]
	total := sys.Config().Cores()
	u := CoreUsage{Cores: total, Allocated: total - sys.FreeCores()}
	if c.pool != nil {
		u.WarmIdle = c.pool.IdleCoresOn(chip)
		if u.WarmIdle > u.Allocated {
			// An eviction's hypervisor destroy landed before the pool's
			// bookkeeping; clamp rather than report negative activity.
			u.WarmIdle = u.Allocated
		}
	}
	return u
}

// sessRes is the pooled resource: a resident vNPU plus the program
// compiled for it, cached so warm jobs skip compilation (the session key
// pins the model, so one slot suffices).
type sessRes struct {
	v  *VirtualNPU
	cm *CompiledModel
	// class is the session's scheduling class, fixed at create time (the
	// class of the job whose cold create built it). Eviction — pressure
	// reclaim and the MaxIdle bound — destroys lower classes first, and
	// the pool's HeldBelow files the session's cores under it. A later
	// higher-class job leasing the session does not promote it; its
	// residency was charged to its creator.
	class int
}

// sessLease names the pool lease instantiation.
type sessLease = session.Lease[*sessRes, *sessTask]

// sessTask is one job routed through the session path; it doubles as the
// micro-queue item.
type sessTask struct {
	ctx context.Context
	job Job
	req Request
	key session.Key
	h   *sched.Handle[JobReport]
	// seq is the admission sequence ticket Admit issued: the job may not
	// start until no older queued dispatcher job of equal-or-higher class
	// remains (WaitTurn).
	seq uint64
}

// sessionKeyOf computes the job's session class from the model
// fingerprint Submit already computed. ok is false when the job cannot
// be pooled: callback-based mapping options make the created vNPU a
// non-pure function of the key.
func sessionKeyOf(job Job, req Request, modelSig uint64) (session.Key, bool) {
	if !place.PureMapOptions(req.MapOptions) {
		return session.Key{}, false
	}
	return session.Key{
		Tenant: job.tenant(),
		Model:  modelSig,
		Topo:   place.CanonicalKey(job.Topology),
		Opts:   requestSignature(req),
	}, true
}

// requestSignature fingerprints every Request field that shapes the
// created vNPU; two jobs may share a resident session only when all of
// them match.
func requestSignature(req Request) uint64 {
	h := fnv.New64a()
	fold := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	confined := uint64(0)
	if req.Confined {
		confined = 1
	}
	fold(uint64(req.Strategy), confined, req.MemoryBytes, uint64(req.Translation),
		uint64(req.PageTLBEntries), uint64(req.MemChannels),
		uint64(req.BandwidthCapBytes), uint64(req.BandwidthWindow),
		uint64(req.KVBufferBytes), uint64(req.MapOptions.NodeInsDel))
	return h.Sum64()
}

// seenLimit bounds the auto-promotion memory.
const seenLimit = 4096

// autoPromote records the key and reports whether it was submitted
// before — repeated fingerprints are decode-phase-style traffic worth a
// resident session even without Job.Reusable.
func (c *Cluster) autoPromote(key session.Key) bool {
	c.seenMu.Lock()
	defer c.seenMu.Unlock()
	prev := c.seen[key]
	if prev == 0 && len(c.seen) >= seenLimit {
		// Evicting an arbitrary entry is fine for a promotion heuristic.
		for k := range c.seen {
			delete(c.seen, k)
			break
		}
	}
	if prev < 255 {
		c.seen[key] = prev + 1
	}
	return prev >= 1
}

// capacityCurable classifies placement errors that evicting idle
// sessions may cure: both "no free cores/memory" and "no region realizes
// the topology" can flip once held cores return to the free set.
func capacityCurable(err error) bool {
	return errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrTopologyUnsatisfiable)
}

// sessionBusy reports whether any resident session is executing, for the
// dispatcher's park-versus-terminal-failure decision.
func (c *Cluster) sessionBusy() bool {
	return c.pool != nil && c.pool.Busy()
}

// sessionReclaim evicts one idle warm session, reporting whether
// anything was freed — the dispatcher's last resort before parking or
// failing an unplaceable job.
func (c *Cluster) sessionReclaim() bool {
	return c.pool != nil && c.pool.EvictIdle(1) > 0
}

// pokeSessions wakes one session job parked on capacity. Non-blocking;
// the one-slot buffer makes it an edge signal like the dispatcher's
// freed channel.
func (c *Cluster) pokeSessions() {
	select {
	case c.capFreed <- struct{}{}:
	default:
	}
}

// pokeAll wakes a parked job on each serving path: session exits that
// consumed capacity-wait tokens (or whose pending create kept a
// dispatcher job parked) must wake both sides.
func (c *Cluster) pokeAll() {
	c.disp.Kick()
	c.pokeSessions()
}

// submitSession admits a session-eligible job and starts its serving
// goroutine. Admission is the scheduler core's (Admit): the same typed
// rejections, tenant quota counter, Submitted counts and sequence
// counter as a one-shot Submit, so racing Submits on the two paths cannot
// jointly oversubscribe a tenant and the core can order the job against
// queued one-shot work (WaitTurn in sessionRun).
func (c *Cluster) submitSession(ctx context.Context, job Job, req Request, key session.Key) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.sessMu.Lock()
	if c.sessClosed {
		c.sessMu.Unlock()
		return nil, fmt.Errorf("vnpu: cluster closed: %w", ErrDestroyed)
	}
	c.sessWG.Add(1)
	c.sessMu.Unlock()
	h, seq, err := c.disp.Admit(job.tenant(), job.Priority.class(), job.Deadline)
	if err != nil {
		c.sessWG.Done()
		return nil, err
	}
	t := &sessTask{ctx: ctx, job: job, req: req, key: key, h: h, seq: seq}
	c.trace(&job, obs.StageAdmitted, "", -1)
	go c.sessionRun(t)
	return &Handle{h: h}, nil
}

// finishSess ends a session job through the scheduler core's one
// completion and takes it out of the drain group.
func (c *Cluster) finishSess(t *sessTask, ran bool, busy time.Duration, rep JobReport, err error) {
	c.disp.Finish(t.h, t.job, ran, busy, rep, err)
	c.sessWG.Done()
}

// failSess ends a session job that never reached a vNPU.
func (c *Cluster) failSess(t *sessTask, err error) {
	c.finishSess(t, false, 0, JobReport{}, err)
}

// sessionRun serves one session job: attach to a busy compatible session
// (continuous batching — its holder runs the job), or lease a session
// (warm or cold) and drain its micro-queue before releasing. A cold
// acquire that fails for lack of capacity parks until capacity moves
// anywhere in the cluster and retries — mirroring the dispatcher's
// retry-on-release backpressure — and fails terminally only when nothing
// in flight could ever free what the job needs.
//
// Before touching the pool, the job waits its admission turn: the
// scheduler core blocks it while any older queued dispatcher job of
// equal-or-higher class remains, so warm-hit traffic cannot pass queued
// one-shot work (it can still pass *lower*-class queued work — that is
// what priority classes are for).
func (c *Cluster) sessionRun(t *sessTask) {
	if err := c.disp.WaitTurn(t.ctx, t.seq, t.job.Priority.class(), t.job.Deadline); err != nil {
		c.failSess(t, fmt.Errorf("vnpu: %w", err))
		return
	}
	var deadlineC <-chan time.Time
	if !t.job.Deadline.IsZero() {
		timer := c.clk.NewTimer(t.job.Deadline.Sub(c.clk.Now()))
		defer timer.Stop()
		deadlineC = timer.C()
	}
	var lease *sessLease
	var warm bool
	for {
		// An idle warm session of the key runs the job immediately —
		// preferable to micro-queuing behind a busy one when concurrent
		// cold creates left several sessions of the same key.
		if l, ok := c.pool.AcquireWarm(t.key); ok {
			lease, warm = l, true
			break
		}
		if c.pool.Attach(t.key, t) {
			c.trace(&t.job, obs.StageSession, "batched", -1)
			// The handoff consumed no capacity; any wakeup token this
			// goroutine ate while parked must pass to the next waiter.
			c.pokeAll()
			return
		}
		var err error
		lease, warm, err = c.pool.Acquire(t.key, func() (int, *sessRes, error) {
			return c.createSession(t.req, t.job.Priority.class())
		})
		if err == nil {
			break
		}
		if !capacityCurable(err) {
			// Exits from the parked loop that consume no capacity re-poke
			// both paths: a token eaten on a previous iteration must not
			// strand other parked session jobs, and a dispatcher job parked
			// on this goroutine's pending create needs its own wakeup.
			c.pokeAll()
			c.failSess(t, fmt.Errorf("vnpu: acquiring session: %w", err))
			return
		}
		// Anything currently holding capacity — dispatcher placements,
		// busy or idle sessions — will poke capFreed when it lets go. With
		// nothing in flight anywhere the failure is structural; drain a
		// pending poke and retry once before declaring it terminal.
		idleSess, busySess := c.pool.Counts()
		if c.disp.InFlight() == 0 && idleSess == 0 && busySess == 0 {
			select {
			case <-c.capFreed:
				continue
			default:
			}
			c.pokeAll()
			c.failSess(t, fmt.Errorf("vnpu: session unplaceable on an idle cluster: %w", err))
			return
		}
		select {
		case <-c.capFreed:
		case <-deadlineC:
			c.pokeAll()
			c.failSess(t, fmt.Errorf("vnpu: deadline passed awaiting session capacity: %w", ErrDeadlineExceeded))
			return
		case <-t.ctx.Done():
			c.pokeAll()
			c.failSess(t, fmt.Errorf("vnpu: job canceled awaiting session capacity: %w", t.ctx.Err()))
			return
		}
	}
	if c.rec != nil || c.slo != nil {
		detail := "cold"
		if warm {
			detail = "warm"
		}
		c.trace(&t.job, obs.StageSession, detail, lease.Chip())
	}
	// finishSess takes each job out of the drain group before this
	// goroutine gives the session back (Next or Discard below), so the
	// lease holds a count of its own: Close must not get to closing the
	// pool, nor return, between a session's last job and its release.
	// t's own count is still outstanding here, so the Add cannot race a
	// Wait that has already seen zero.
	c.sessWG.Add(1)
	defer c.sessWG.Done()
	r := lease.Resource()
	// Lease the vNPU only after Acquire: the session is busy (hence
	// unevictable) from here until Next releases it, so the guard lease
	// can safely bracket just the executions. Leasing inside the create
	// factory would hand the pool a vNPU it cannot destroy when Acquire
	// loses the close race.
	r.v.Lease()
	chip := lease.Chip()
	for {
		t.h.MarkStarted(chip)
		c.trace(&t.job, obs.StageExecuting, "", chip)
		// The session's program is resolved on its first job and reused
		// by every later one (the session key pins the model).
		rep, busy, err := c.execute(t.ctx, chip, r.v, &r.cm, &t.job)
		rep.Warm = warm
		c.finishSess(t, true, busy, rep, err)
		// The run loop holds the vNPU's lease only while a job executes;
		// it must drop before the session can go idle, or eviction of the
		// just-idled session would trip the lease-safe destroy guard.
		r.v.Unlease()
		if err != nil && t.ctx.Err() == nil && !errors.Is(err, ErrDeadlineExceeded) {
			// The job failed through no cancellation or missed deadline of
			// its own, so the resource is suspect: destroy it and
			// re-dispatch whatever was micro-queued — each job attaches
			// elsewhere or acquires a fresh session.
			for _, queued := range lease.Discard() {
				go c.sessionRun(queued)
			}
			return
		}
		next, ok := lease.Next()
		if !ok {
			return
		}
		r.v.Lease()
		t, warm = next, true
	}
}

// createSession is the pool's cold path: place and create a resident
// vNPU for the session class, filed under the creating job's scheduling
// class. Candidates keep the engine's cost-then-price order; among
// equals, the chip already holding the most session cores of
// equal-or-lower class wins — consolidating onto residency this class is
// allowed to cannibalize under pressure, while higher-class warm pools
// and genuinely free chips stay intact for topologies that need fresh
// rectangles.
func (c *Cluster) createSession(req Request, class int) (int, *sessRes, error) {
	cands, err := c.engine.Place(placeRequest(req))
	if err != nil {
		return 0, nil, err
	}
	// Snapshot held counts once (HeldBelow takes the pool lock), then
	// re-rank with the consolidation tiebreak as a proper lexicographic
	// order: cost, price, then most reclaimable session-held cores first.
	held := make(map[int]int, len(cands))
	for _, cand := range cands {
		held[cand.Chip] = c.pool.HeldBelow(cand.Chip, class)
	}
	slices.SortStableFunc(cands, func(a, b place.Candidate) int {
		if d := cmp.Compare(a.Cost, b.Cost); d != 0 {
			return d
		}
		if d := cmp.Compare(a.Price, b.Price); d != 0 {
			return d
		}
		return cmp.Compare(held[b.Chip], held[a.Chip])
	})
	var lastErr error
	for _, cand := range cands {
		v, err := c.create(cand.Chip, req)
		if err == nil {
			return cand.Chip, &sessRes{v: v, class: class}, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("vnpu: no chip can host the session: %w", ErrNoCapacity)
	}
	return 0, nil, lastErr
}
