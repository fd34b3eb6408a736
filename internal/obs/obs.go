// Package obs is the serving stack's observability plane: per-job
// lifecycle trace events captured into per-shard ring buffers, fixed-
// bucket log-scale latency histograms cheap enough for the dispatch hot
// path, a metrics registry with Prometheus text exposition, and a Chrome
// trace_event exporter so a replayed serving day opens in Perfetto.
//
// Everything is clock-agnostic: events are stamped by the caller from
// its sim.Clock, so a wall-clock fleet and a virtual-time replay produce
// identically-shaped traces (and, for a deterministic replay, bit-
// identical exports per seed).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one step of a job's serving lifecycle. The transitions a
// healthy job records are
//
//	submit → admitted → placed[hit|miss|map-parked] →
//	session[warm|cold|batched] → executing → done
//
// with session only on the session serving path, and failed replacing
// done on any error. Detail strings (Event.Detail) qualify a stage:
// placed carries hit/miss/map-parked, session carries warm/cold/batched.
type Stage uint8

const (
	// StageSubmit marks the job entering Submit (validation passed).
	StageSubmit Stage = iota
	// StageAdmitted marks the job past admission control (queued or
	// handed to a session goroutine).
	StageAdmitted
	// StagePlaced marks a dispatcher placement claim. Detail: "hit" (an
	// exact fit, edit distance 0 — what hits-first starts on), "miss" (any
	// other ranked placement), or "map-parked" (the job's first park on
	// an async mapping, recorded once however often it parks again; a
	// later placed event records the eventual claim).
	StagePlaced
	// StageSession marks a session-path resolution. Detail: "warm"
	// (leased an idle resident vNPU), "cold" (created one), "batched"
	// (joined a busy session's micro-queue).
	StageSession
	// StageExecuting marks the job starting on its chip.
	StageExecuting
	// StageDone marks successful completion.
	StageDone
	// StageFailed marks completion with an error.
	StageFailed
	// StageForwarded marks the job leaving its shard for another —
	// stolen by the balancer (detail "steal") or re-homed off a draining
	// shard (detail "drain"). The job's next events record on the
	// receiving shard; the critical-path analyzer attributes the gap as a
	// forward hop.
	StageForwarded

	numStages
)

var stageNames = [numStages]string{
	"submit", "admitted", "placed", "session", "executing", "done", "failed",
	"forwarded",
}

// String returns the stage's lowercase name (stable; used in trace
// exports and metric labels).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Event is one recorded lifecycle transition.
type Event struct {
	// Seq is the recorder-global record order (a single-threaded replay
	// makes it deterministic; concurrent recorders use it only as a
	// stable sort key).
	Seq uint64
	// Job identifies the job across its events (unique per recorder
	// owner).
	Job uint64
	// Stage and Detail name the transition; see Stage.
	Stage  Stage
	Detail string
	// Class is the job's priority class (0 = lowest); Shard and Chip
	// locate where the event happened (Chip is -1 off-chip).
	Class int
	Shard int
	Chip  int
	// Tenant is the submitting tenant.
	Tenant string
	// At is the event timestamp, read from the caller's clock — wall or
	// virtual, never time.Now directly.
	At time.Time
}

// DefaultTraceBuffer is the per-shard ring capacity when none is given.
const DefaultTraceBuffer = 1 << 16

// ring is one shard's bounded event buffer. A short mutex per record
// keeps it race-free under concurrent writers while staying cheap; the
// fleet gives every shard its own ring so shards never contend.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	dropped uint64   // events overwritten after the ring wrapped
	_       [64]byte // keep adjacent shards' rings on separate cache lines
}

// Recorder captures lifecycle events into per-shard rings sharing one
// sequence counter. All methods are safe for concurrent use.
type Recorder struct {
	seq  atomic.Uint64
	jobs atomic.Uint64
	// The pad keeps the hot counters off the cache line holding the
	// read-only rings header: without it every seq.Add invalidates the
	// line every concurrent Record is reading the slice through.
	_     [48]byte
	rings []ring
}

// NextJob hands out the next trace identity for a job. Sharing the
// counter across every shard writing into this recorder keeps job ids
// unique fleet-wide, so a job forwarded between shards keeps one track
// in the exported trace.
func (r *Recorder) NextJob() uint64 { return r.jobs.Add(1) }

// NewRecorder builds a recorder with one ring of bufPerShard events per
// shard (bufPerShard <= 0 selects DefaultTraceBuffer).
func NewRecorder(shards, bufPerShard int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	if bufPerShard <= 0 {
		bufPerShard = DefaultTraceBuffer
	}
	r := &Recorder{rings: make([]ring, shards)}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, bufPerShard)
	}
	return r
}

// Shards reports the recorder's ring count.
func (r *Recorder) Shards() int { return len(r.rings) }

// Record stamps the event's Seq and Shard and appends it to the shard's
// ring, overwriting the oldest event once full.
func (r *Recorder) Record(shard int, ev Event) {
	if shard < 0 || shard >= len(r.rings) {
		shard = 0
	}
	ev.Seq = r.seq.Add(1)
	ev.Shard = shard
	rg := &r.rings[shard]
	rg.mu.Lock()
	if rg.wrapped {
		rg.dropped++
	}
	rg.buf[rg.next] = ev
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.wrapped = true
	}
	rg.mu.Unlock()
}

// Dropped reports how many events the rings have overwritten so far —
// the trace window's truncation, surfaced so exports are never mistaken
// for full coverage.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		n += rg.dropped
		rg.mu.Unlock()
	}
	return n
}

// Snapshot copies every retained event out of the rings, ordered by
// record sequence.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for i := range r.rings {
		rg := &r.rings[i]
		rg.mu.Lock()
		if rg.wrapped {
			out = append(out, rg.buf[rg.next:]...)
			out = append(out, rg.buf[:rg.next]...)
		} else {
			out = append(out, rg.buf[:rg.next]...)
		}
		rg.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
