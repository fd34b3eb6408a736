package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vnpu-sim/vnpu"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
	"github.com/vnpu-sim/vnpu/internal/place"
)

// sloTarget is the sojourn a job must beat to count as good in
// load.slo_miss_share — the vnpuserve -slotarget default.
const sloTarget = 2 * time.Millisecond

// stack is the serving object under test behind the calls the load
// drivers need: a Cluster, or a Fleet and its shard clusters.
type stack struct {
	submit      func(context.Context, vnpu.Job) (*vnpu.Handle, error)
	shards      []*vnpu.Cluster
	fleet       *vnpu.Fleet // nil for a single cluster
	attribution func() (slo.Attribution, bool)
	dropped     func() uint64
	close       func() error
}

func clusterStack(c *vnpu.Cluster) *stack {
	return &stack{
		submit:      c.Submit,
		shards:      []*vnpu.Cluster{c},
		attribution: c.Attribution,
		dropped:     c.TraceDropped,
		close:       c.Close,
	}
}

func fleetStack(f *vnpu.Fleet) *stack {
	s := &stack{
		submit: func(ctx context.Context, j vnpu.Job) (*vnpu.Handle, error) {
			h, err := f.Submit(ctx, j)
			if err != nil {
				return nil, err
			}
			return h.Handle, nil
		},
		fleet:       f,
		attribution: f.Attribution,
		dropped:     f.TraceDropped,
		close:       f.Close,
	}
	for i := 0; i < f.NumShards(); i++ {
		s.shards = append(s.shards, f.Shard(i))
	}
	return s
}

// counters is the sum of the shards' snapshots: every counter the
// per-layer metrics read, taken once before and once after the measured
// phase so that set-up's cold jobs are not counted.
type counters struct {
	cluster   vnpu.ClusterStats
	placement vnpu.PlacementStats
	sessions  vnpu.SessionStats
	timing    vnpu.TimingStats
	chips     int
	shardJobs []uint64
}

func (s *stack) counters() counters {
	var c counters
	seenTiming := false
	for _, sh := range s.shards {
		snap := sh.Snapshot()
		cs := snap.Cluster
		c.cluster.Submitted += cs.Submitted
		c.cluster.RejectedQueueFull += cs.RejectedQueueFull
		c.cluster.RejectedQuota += cs.RejectedQuota
		c.cluster.Completed += cs.Completed
		c.cluster.Failed += cs.Failed
		c.cluster.HitsFirst += cs.HitsFirst
		c.cluster.MapParked += cs.MapParked
		c.cluster.ChipBusy = append(c.cluster.ChipBusy, cs.ChipBusy...)
		c.cluster.ExecOverlapAvg += cs.ExecOverlapAvg / float64(len(s.shards))
		c.chips += len(cs.ChipBusy)
		c.shardJobs = append(c.shardJobs, cs.Completed+cs.Failed)
		ps := snap.Placement
		c.placement.Placements += ps.Placements
		c.placement.CacheHits += ps.CacheHits
		c.placement.CacheMisses += ps.CacheMisses
		c.placement.PlaceTime += ps.PlaceTime
		c.placement.MapTime += ps.MapTime
		ss := snap.Sessions
		c.sessions.WarmHits += ss.WarmHits
		c.sessions.ColdCreates += ss.ColdCreates
		c.sessions.Batched += ss.Batched
		c.sessions.EvictedPressure += ss.EvictedPressure
		c.sessions.WarmTime += ss.WarmTime
		c.sessions.ColdTime += ss.ColdTime
		// Fleet shards share one timing backend; count it once.
		if !seenTiming {
			c.timing = snap.Timing
			seenTiming = true
		}
	}
	return c
}

// jobSpec is one generated job and what the harness needs to remember
// about it.
type jobSpec struct {
	job    vnpu.Job
	key    int           // session key index, -1 for a one-shot
	due    time.Duration // open loop: offset from the schedule's start
	instrs int64         // instructions one execution simulates or replays
}

// hashJob folds the identity of one generated job into h.
func hashJob(h hash.Hash64, s *jobSpec) {
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%t;", s.job.Tenant, s.job.Model.Name,
		place.CanonicalKey(s.job.Topology), s.job.Priority, s.due, s.job.Reusable)
}

// recorder collects one client's observations. Waiter goroutines of one
// client share it, hence the lock; the closed single-window loop takes it
// uncontended.
type recorder struct {
	mu sync.Mutex
	// sojourn ns per time slice of the measured phase (by completion
	// time), split by JobReport.Warm
	warm, cold [timeSlices][]int64
	instrs     [timeSlices]int64 // instructions simulated or replayed
	sliceLen   time.Duration
	submit     []int64 // Submit call ns
	queueWait  []int64 // JobReport.QueueWait ns
	late       []int64 // open loop: generator lateness ns

	attempted, failed, refused int
	cycles                     int64 // sum of JobReport.Cycles
	mapCost                    float64
	sloMiss                    int
	keyCycles                  map[int]int64 // session key -> Cycles of its first job
	keyMismatch                []string
	firstErr                   error
}

// timeSlices is how many equal parts the measured phase is cut into.
// Throughput and the sojourn percentiles are taken per slice and the
// median slice is reported, so a burst of foreign load on a shared
// machine moves a slice or two and not the result.
const timeSlices = 5

func newRecorder(capacity int, phase time.Duration) *recorder {
	r := &recorder{
		sliceLen:  phase / timeSlices,
		submit:    make([]int64, 0, capacity),
		queueWait: make([]int64, 0, capacity),
		keyCycles: map[int]int64{},
	}
	if r.sliceLen <= 0 {
		r.sliceLen = 1
	}
	for i := range r.warm {
		r.warm[i] = make([]int64, 0, capacity/timeSlices)
	}
	return r
}

func (r *recorder) refuse(err error) {
	r.mu.Lock()
	r.attempted++
	r.refused++
	r.sloMiss++
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// done books one finished job; at is its completion time since the
// phase began.
func (r *recorder) done(s *jobSpec, at time.Duration, submitNs, sojournNs int64, rep vnpu.JobReport, err error) {
	slice := int(at / r.sliceLen)
	if slice >= timeSlices { // the drain after the last send
		slice = timeSlices - 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.submit = append(r.submit, submitNs)
	if err != nil {
		r.failed++
		r.sloMiss++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	if rep.Warm {
		r.warm[slice] = append(r.warm[slice], sojournNs)
	} else {
		r.cold[slice] = append(r.cold[slice], sojournNs)
	}
	if sojournNs > sloTarget.Nanoseconds() {
		r.sloMiss++
	}
	r.queueWait = append(r.queueWait, rep.QueueWait.Nanoseconds())
	r.cycles += rep.Cycles
	r.instrs[slice] += s.instrs
	r.mapCost += rep.MapCost
	if s.key >= 0 {
		if first, ok := r.keyCycles[s.key]; !ok {
			r.keyCycles[s.key] = rep.Cycles
		} else if first != rep.Cycles && len(r.keyMismatch) < 4 {
			r.keyMismatch = append(r.keyMismatch,
				fmt.Sprintf("session key %d: a job reported %d cycles, its first job %d", s.key, rep.Cycles, first))
		}
	}
}

// instrTable counts, once per (model, core count), the instructions one
// execution of a job simulates — the numerator of sim_kinstr_per_host_s.
// One goroutine (the one generating a stream) uses a table.
type instrTable struct {
	cfg vnpu.Config
	n   map[string]int64
}

func newInstrTable(cfg vnpu.Config) *instrTable {
	return &instrTable{cfg: cfg, n: map[string]int64{}}
}

func (t *instrTable) of(m vnpu.Model, topo *vnpu.Topology) int64 {
	cores := topo.NumNodes()
	key := fmt.Sprintf("%s/%d", m.Name, cores)
	n, ok := t.n[key]
	if !ok {
		var err error
		if n, err = instrCount(t.cfg, m, cores); err != nil {
			panic(fmt.Sprintf("bench: counting instructions of %s on %d cores: %v", m.Name, cores, err))
		}
		t.n[key] = n
	}
	return n
}

// load describes how jobs are offered to the stack.
type load struct {
	// closed loop: clients goroutines, each keeping window jobs
	// outstanding. window 1 waits inline (submit, then wait); a larger
	// window parks one waiter goroutine per in-flight job.
	clients, window int
	// streams[i] generates client i's jobs (closed loop).
	streams []func() jobSpec
	// maxJobs stops a closed loop after that many jobs in total (0 = run
	// until the time is up); the traced re-run uses it.
	maxJobs int
	// open loop: a pre-generated schedule, sent at its due times
	// whatever the stack does.
	schedule []jobSpec
}

// measured is what one measured phase produced.
type measured struct {
	recs          []*recorder
	elapsed       time.Duration
	sliceLen      time.Duration
	host          hostCost
	before, after counters
	// open loop: the schedule's planned length and how late it finished
	planned, lateEnd time.Duration
}

// drive offers the load to the stack for the given time and waits for
// every job to finish. spans is nil in untraced runs.
func drive(st *stack, ld load, seconds float64, spans *spanLog) *measured {
	ctx := context.Background()
	m := &measured{before: st.counters()}
	var waiters sync.WaitGroup
	var ids atomic.Int64
	var start time.Time // when the measured phase began

	// finish waits for one job and books it.
	finish := func(rec *recorder, s *jobSpec, h *vnpu.Handle, id int64, root int32, from, t0, t1 time.Time) {
		rep, err := h.Wait(ctx)
		t2 := time.Now()
		if spans != nil {
			spans.add("Handle.Wait", id, root, t1, t2)
			spans.finish(root, t2)
		}
		rec.done(s, t2.Sub(start), t1.Sub(t0).Nanoseconds(), t2.Sub(from).Nanoseconds(), rep, err)
	}
	// send submits one job; from is the instant its sojourn counts from.
	// With inline set it also waits for the job; otherwise a parked
	// goroutine does and calls release when the job is done.
	send := func(rec *recorder, s *jobSpec, from time.Time, inline bool, release func()) {
		var id int64
		var root int32 = -1
		t0 := time.Now()
		if spans != nil {
			id = ids.Add(1)
			root = spans.reserve("job", id, from)
		}
		h, err := st.submit(ctx, s.job)
		t1 := time.Now()
		if spans != nil {
			spans.add("Submit", id, root, t0, t1)
		}
		if err != nil {
			spans.finish(root, t1)
			if errors.Is(err, vnpu.ErrQueueFull) || errors.Is(err, vnpu.ErrQuotaExceeded) {
				rec.refuse(err)
			} else {
				rec.done(s, t1.Sub(start), t1.Sub(t0).Nanoseconds(), 0, vnpu.JobReport{}, err)
			}
			release()
			return
		}
		if inline {
			finish(rec, s, h, id, root, from, t0, t1)
			release()
			return
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			finish(rec, s, h, id, root, from, t0, t1)
			release()
		}()
	}

	phase := time.Duration(seconds * float64(time.Second))
	if ld.schedule != nil {
		phase = ld.schedule[len(ld.schedule)-1].due
	}
	m.sliceLen = phase / timeSlices
	host := readHost()
	start = time.Now()
	if ld.schedule != nil {
		rec := newRecorder(len(ld.schedule), phase)
		rec.late = make([]int64, 0, len(ld.schedule))
		m.recs = []*recorder{rec}
		// The schedule starts a little ahead so the first job is not
		// already late when the loop reaches it.
		epoch := start.Add(5 * time.Millisecond)
		for i := range ld.schedule {
			s := &ld.schedule[i]
			due := epoch.Add(s.due)
			// time.Sleep overshoots by about half a millisecond here, so
			// sleep only to 2 ms before the due time and yield through the
			// rest; the generator then runs a fraction of a microsecond late.
			if d := time.Until(due) - 2*time.Millisecond; d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			for now.Before(due) {
				runtime.Gosched()
				now = time.Now()
			}
			rec.late = append(rec.late, now.Sub(due).Nanoseconds())
			send(rec, s, due, false, func() {})
		}
		m.planned = ld.schedule[len(ld.schedule)-1].due
		m.lateEnd = time.Since(epoch) - m.planned
	} else {
		deadline := start.Add(phase)
		perClient := 0
		if ld.maxJobs > 0 {
			perClient = (ld.maxJobs + ld.clients - 1) / ld.clients
		}
		var clients sync.WaitGroup
		for c := 0; c < ld.clients; c++ {
			rec := newRecorder(1<<16, phase)
			m.recs = append(m.recs, rec)
			next := ld.streams[c]
			clients.Add(1)
			go func() {
				defer clients.Done()
				slots := make(chan struct{}, ld.window) // one token per job in flight
				release := func() { <-slots }
				for n := 0; perClient == 0 || n < perClient; n++ {
					slots <- struct{}{}
					now := time.Now()
					if !now.Before(deadline) {
						return
					}
					s := next()
					send(rec, &s, now, ld.window == 1, release)
				}
			}()
		}
		clients.Wait()
	}
	waiters.Wait()
	m.elapsed = time.Since(start)
	m.host = host.since()
	m.after = st.counters()
	return m
}

// awaitIdle waits until no core is held by anything but an idle warm
// session (a finished job's vNPU is destroyed just after its handle
// resolves) and reports what is still held when the wait runs out.
func awaitIdle(st *stack, reuse bool) string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := ""
		for si, sh := range st.shards {
			for ci, u := range sh.CoreUsage() {
				held := u.Allocated
				if reuse {
					held = u.Active()
				}
				if held != 0 {
					busy = fmt.Sprintf("shard %d chip %d still holds %d cores (%d warm-idle)", si, ci, held, u.WarmIdle)
				}
			}
		}
		if busy == "" || time.Now().After(deadline) {
			return busy
		}
		time.Sleep(time.Millisecond)
	}
}

// samples are the clients' observations merged and sorted.
type samples struct {
	// slices[i] is every sojourn of slice i; instrs[i] the instructions
	// its jobs simulated or replayed.
	slices                                   [timeSlices][]int64
	instrs                                   [timeSlices]int64
	all, warm, cold, submit, queueWait, late []int64
	cycles                                   int64
	mapCost                                  float64
	sloMiss, attempted                       int
	keyMismatch                              []string
	firstErr                                 error
}

// fold merges the recorders into the result's counts and one sample set.
func fold(res *result, recs []*recorder) samples {
	var s samples
	for _, r := range recs {
		res.attempted += r.attempted
		res.failed += r.failed
		res.refused += r.refused
		for i := range r.warm {
			s.warm = append(s.warm, r.warm[i]...)
			s.cold = append(s.cold, r.cold[i]...)
			s.slices[i] = append(append(s.slices[i], r.warm[i]...), r.cold[i]...)
			s.instrs[i] += r.instrs[i]
		}
		s.submit = append(s.submit, r.submit...)
		s.queueWait = append(s.queueWait, r.queueWait...)
		s.late = append(s.late, r.late...)
		s.cycles += r.cycles
		s.mapCost += r.mapCost
		s.sloMiss += r.sloMiss
		s.keyMismatch = append(s.keyMismatch, r.keyMismatch...)
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
	}
	res.completed = len(s.warm) + len(s.cold)
	s.attempted = res.attempted
	s.all = append(append(make([]int64, 0, res.completed), s.warm...), s.cold...)
	for _, v := range [][]int64{s.all, s.warm, s.cold, s.submit, s.queueWait, s.late} {
		sortInt64(v)
	}
	for i := range s.slices {
		sortInt64(s.slices[i])
	}
	return s
}

// endToEndMetrics are the six numbers of an untraced serving run. The
// rates and percentiles are the median over the phase's time slices;
// slices in which nothing finished (a run cut short) are left out.
func endToEndMetrics(setupS float64, setupReps int, m *measured, s samples) *metricSet {
	e := newMetricSet(endToEnd)
	n := len(s.all)
	var rate, kinstr, p50, p90 []float64
	for i, sl := range s.slices {
		if len(sl) == 0 {
			continue
		}
		// The last slice runs to the end of the drain.
		dur := m.sliceLen
		if i == timeSlices-1 && m.elapsed > time.Duration(timeSlices)*m.sliceLen {
			dur = m.elapsed - time.Duration(timeSlices-1)*m.sliceLen
		}
		rate = append(rate, float64(len(sl))/dur.Seconds())
		kinstr = append(kinstr, float64(s.instrs[i])/1e3/dur.Seconds())
		p50 = append(p50, quantile(sl, 0.50)/1e3)
		p90 = append(p90, quantile(sl, 0.90)/1e3)
	}
	e.set("setup_s", setupS, setupReps)
	e.set("jobs_per_s", median(rate), n)
	e.set("sojourn_us_p50", median(p50), n)
	e.set("sojourn_us_p90", median(p90), n)
	e.set("sim_kinstr_per_host_s", median(kinstr), n)
	e.set("sim_cycles_per_pass", ratio(float64(s.cycles), float64(n)), n)
	return e
}

// layerMetrics fills the per-layer numbers a serving run reads from the
// public snapshots and its own timers. Counters are differences over the
// measured phase.
func layerMetrics(l *metricSet, st *stack, m *measured, s samples) {
	n, attempted := len(s.all), s.attempted
	d := func(after, before uint64) float64 { return float64(after - before) }
	a, b := m.after, m.before
	l.set("vnpu.submit_call_us_p50", quantile(s.submit, 0.5)/1e3, len(s.submit))
	l.set("vnpu.exec_overlap_avg", a.cluster.ExecOverlapAvg, 0)
	var busy time.Duration
	for i := range a.cluster.ChipBusy {
		busy += a.cluster.ChipBusy[i] - b.cluster.ChipBusy[i]
	}
	l.set("vnpu.chip_busy_frac", ratio(busy.Seconds(), m.elapsed.Seconds()*float64(a.chips)), 0)
	l.set("sched.queue_wait_us_p50", quantile(s.queueWait, 0.5)/1e3, len(s.queueWait))
	done := d(a.cluster.Completed, b.cluster.Completed)
	l.set("sched.hits_first_share", ratio(d(a.cluster.HitsFirst, b.cluster.HitsFirst), done), n)
	l.set("sched.map_parked_share", ratio(d(a.cluster.MapParked, b.cluster.MapParked), done), n)
	rejected := d(a.cluster.RejectedQueueFull, b.cluster.RejectedQueueFull) + d(a.cluster.RejectedQuota, b.cluster.RejectedQuota)
	l.set("sched.rejected_share", ratio(rejected, float64(attempted)), attempted)
	hits, misses := d(a.placement.CacheHits, b.placement.CacheHits), d(a.placement.CacheMisses, b.placement.CacheMisses)
	l.set("place.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	mapTime := a.placement.MapTime - b.placement.MapTime
	l.set("place.map_ms_per_miss", ratio(mapTime.Seconds()*1e3, misses), int(misses))
	placements := d(a.placement.Placements, b.placement.Placements)
	l.set("place.place_us_per_call", ratio((a.placement.PlaceTime-b.placement.PlaceTime).Seconds()*1e6, placements), int(placements))
	l.set("place.map_cost_mean", ratio(s.mapCost, float64(n)), n)
	l.set("place.map_cpu_share", ratio(mapTime.Seconds(), m.host.cpu.Seconds()), 0)
	warm, cold, batched := d(a.sessions.WarmHits, b.sessions.WarmHits), d(a.sessions.ColdCreates, b.sessions.ColdCreates), d(a.sessions.Batched, b.sessions.Batched)
	l.set("session.warm_ratio", ratio(warm+batched, warm+cold+batched), int(warm+cold+batched))
	l.set("session.batched_share", ratio(batched, warm+cold+batched), int(warm+cold+batched))
	l.set("session.evicted_pressure", d(a.sessions.EvictedPressure, b.sessions.EvictedPressure), 0)
	l.set("session.cold_create_us_avg", ratio((a.sessions.ColdTime-b.sessions.ColdTime).Seconds()*1e6, cold), int(cold))
	l.set("session.warm_us_avg", ratio((a.sessions.WarmTime-b.sessions.WarmTime).Seconds()*1e6, warm), int(warm))
	mh, mm := d(a.timing.Hits, b.timing.Hits), d(a.timing.Misses, b.timing.Misses)
	l.set("timing.memo_hit_ratio", ratio(mh, mh+mm), int(mh+mm))
	l.set("timing.memo_bypassed", d(a.timing.Bypassed, b.timing.Bypassed), 0)
	if st.fleet != nil {
		fs := st.fleet.Stats()
		l.set("fleet.steals", float64(fs.Steals), 0)
		l.set("fleet.rerouted", float64(fs.Rerouted), 0)
		var max, sum float64
		for i := range a.shardJobs {
			j := float64(a.shardJobs[i] - b.shardJobs[i])
			sum += j
			if j > max {
				max = j
			}
		}
		// 0 = every shard ran the same number of jobs.
		l.set("fleet.shard_imbalance", ratio(max, sum/float64(len(a.shardJobs)))-1, int(sum))
	}
	l.set("load.sojourn_us_p99", quantile(s.all, 0.99)/1e3, n)
	l.set("load.warm_sojourn_us_p50", quantile(s.warm, 0.5)/1e3, len(s.warm))
	l.set("load.cold_sojourn_us_p50", quantile(s.cold, 0.5)/1e3, len(s.cold))
	l.set("load.gen_late_us_p99", quantile(s.late, 0.99)/1e3, len(s.late))
	l.set("load.slo_miss_share", ratio(float64(s.sloMiss), float64(attempted)), attempted)
	m.host.report(l, attempted)
}

// serveSpec is one serving workload: how to build and warm its stack,
// how to generate its load, and what must hold afterwards.
type serveSpec struct {
	name string
	// reuse says idle warm sessions may still hold cores after the run.
	reuse bool
	// closed makes a failed or refused job a violation, as the three
	// closed workloads promise; the open loop counts them as failed.
	closed bool
	// sameKeyCycles requires every job of one session key to report the
	// same simulated cycles (resident sessions that are never evicted).
	sameKeyCycles bool
	// build boots the stack (with the lifecycle trace on when traceBuf
	// > 0) and warms it; it is what setup_s times.
	build func(traceBuf int) (*stack, error)
	// load generates the seeded load for a run of the given length.
	load func(seed int64, seconds float64) load
	// maxTraced caps the traced re-run's job count (it bounds the trace
	// ring's memory).
	maxTraced int
	// warmJobs is how many jobs build runs beyond one per session key; the
	// trace ring has to hold their events too.
	warmJobs int
}

// eventsPerJob sizes the trace ring: a job records at most this many
// lifecycle events (submit, admitted, map-parked, placed, session,
// executing, done, plus a forward hop).
const eventsPerJob = 8

// check runs the correctness checks every serving phase must pass.
func (spec serveSpec) check(res *result, st *stack, s samples, phase string) {
	if busy := awaitIdle(st, spec.reuse); busy != "" {
		res.violate("%s: cores not returned before Close: %s", phase, busy)
	}
	if spec.closed && res.failed+res.refused > 0 {
		res.violate("%s: %d failed and %d refused jobs on a closed loop, first error: %v", phase, res.failed, res.refused, s.firstErr)
	}
	if spec.sameKeyCycles {
		for _, v := range s.keyMismatch {
			res.violate("%s: %s", phase, v)
		}
	}
	if res.attempted != res.completed+res.failed+res.refused {
		res.violate("%s: attempted %d != completed %d + failed %d + refused %d", phase, res.attempted, res.completed, res.failed, res.refused)
	}
}

// maxGenLate is the generator lateness (p99) beyond which an open-loop
// run is invalid. With the one-shots in the mix p99 sits at 130 to 160 us
// whatever the machine does — the generator waiting for one of the two
// processors while both run cold jobs of about 200 us — so the limit is
// half the mean gap between arrivals: it is there to catch a generator
// that cannot keep its schedule (milliseconds late), not that wait.
const maxGenLate = 500 * time.Microsecond

// validate applies the open loop's validity limits.
func validate(m *measured, s samples) error {
	if len(s.late) == 0 {
		return nil
	}
	if late := time.Duration(quantile(s.late, 0.99)); late > maxGenLate {
		return invalidRun{fmt.Sprintf("generator p99 lateness %v exceeds %v", late, maxGenLate)}
	}
	if m.lateEnd.Seconds() > 0.01*m.planned.Seconds() {
		return invalidRun{fmt.Sprintf("schedule finished %v late on a planned %v", m.lateEnd, m.planned)}
	}
	return nil
}

// phase drives one load on a freshly built stack and winds the stack
// down: correctness checks, then read (what only a live stack can tell),
// then Close, then the open loop's validity limits. The job counts go to
// counts, every violation to res.
func (spec serveSpec) phase(res, counts *result, opt runOpts, name string, st *stack, ld load, seconds float64, spans *spanLog,
	read func(m *measured, s samples)) (samples, error) {
	m := drive(st, ld, seconds, spans)
	s := fold(counts, m.recs)
	spec.check(counts, st, s, name)
	if counts != res {
		res.violations = append(res.violations, counts.violations...)
	}
	read(m, s)
	if err := st.close(); err != nil {
		res.violate("%s: Close: %v", name, err)
	}
	if err := validate(m, s); err != nil && !opt.shared {
		return s, err
	}
	return s, nil
}

func runServe(spec serveSpec, opt runOpts) (*result, error) {
	res := &result{workload: spec.name, seed: opt.seed, traced: opt.traced}
	res.jobHash = loadHash(spec.load(opt.seed, opt.seconds))
	if opt.dryRun {
		return res, nil
	}

	st, setupS, setupN, err := timeSetup(opt.setupReps,
		func() (*stack, error) { return spec.build(0) },
		func(s *stack) error { return s.close() })
	if err != nil {
		return nil, err
	}
	layer := newMetricSet(perLayer)
	s, err := spec.phase(res, res, opt, "untraced", st, spec.load(opt.seed, opt.seconds), opt.seconds, nil,
		func(m *measured, s samples) {
			if opt.traced {
				layerMetrics(layer, st, m, s)
			} else {
				res.metrics = endToEndMetrics(setupS, setupN, m, s)
			}
		})
	if err != nil || !opt.traced {
		return res, err
	}

	// Traced re-run: the same load at a tenth of the jobs, lifecycle trace
	// on with a ring that cannot wrap, harness spans around Submit and
	// Wait.
	n := max(1, min(res.completed/10, spec.maxTraced))
	tld := spec.load(opt.seed, opt.seconds/10)
	tld.maxJobs = n
	if len(tld.schedule) > n {
		tld.schedule = tld.schedule[:n]
	}
	tst, err := spec.build((n + spec.warmJobs + 64) * eventsPerJob)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	res.spans = newSpanLog(3 * (n + 64))
	var dropped uint64
	var att slo.Attribution
	var traced bool
	// A closed traced run ends at its job count; the time is a backstop.
	ts, err := spec.phase(res, &result{}, opt, "traced", tst, tld, opt.seconds/2, res.spans,
		func(*measured, samples) {
			dropped = tst.dropped()
			att, traced = tst.attribution()
		})
	switch {
	case err != nil:
		return nil, err
	case dropped > 0:
		return nil, invalidRun{fmt.Sprintf("trace ring dropped %d events", dropped)}
	case !traced:
		return nil, fmt.Errorf("traced run has no attribution")
	}
	if err := setStages(layer, att); err != nil {
		return nil, err
	}
	p50, tp50 := quantile(s.all, 0.5), quantile(ts.all, 0.5)
	layer.set("obs.trace_overhead_pct", 100*ratio(tp50-p50, p50), len(ts.all))
	res.metrics = layer
	return res, nil
}

// loadHash fingerprints the inputs a seed generates: the whole schedule
// of an open loop, the first thousand jobs of each closed client.
func loadHash(ld load) uint64 {
	h := fnv.New64a()
	for i := range ld.schedule {
		hashJob(h, &ld.schedule[i])
	}
	for _, next := range ld.streams {
		for i := 0; i < 1000; i++ {
			s := next()
			hashJob(h, &s)
		}
	}
	return h.Sum64()
}
