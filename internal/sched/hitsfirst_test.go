package sched

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/obs"
)

// asyncJob drives the async-ranking executor: mapped is closed when the
// job's (fake) mapping computation lands — nil means it was cached all
// along; block parks Execute until closed.
type asyncJob struct {
	name   string
	mapped chan struct{}
	block  chan struct{}
}

// asyncExec is a single-chip executor whose Rank parks a job until its
// mapping landed, mirroring the placement engine's cache semantics.
type asyncExec struct {
	mu    sync.Mutex
	order []string
}

func (e *asyncExec) jobMapped(j *asyncJob) bool {
	if j.mapped == nil {
		return true
	}
	select {
	case <-j.mapped:
		return true
	default:
		return false
	}
}

func (e *asyncExec) Rank(j *asyncJob) ([]Candidate, <-chan struct{}, error) {
	if !e.jobMapped(j) {
		return nil, j.mapped, nil
	}
	return []Candidate{{Chip: 0}}, nil, nil
}

func (e *asyncExec) RankCached(j *asyncJob) []Candidate {
	if !e.jobMapped(j) {
		return nil
	}
	return []Candidate{{Chip: 0}}
}

func (e *asyncExec) Place(chip int, j *asyncJob) (int, error) { return chip, nil }

func (e *asyncExec) Execute(ctx context.Context, chip, pl int, j *asyncJob) (string, time.Duration, error) {
	if j.block != nil {
		<-j.block
	}
	e.mu.Lock()
	e.order = append(e.order, j.name)
	e.mu.Unlock()
	return j.name, 0, nil
}

func (e *asyncExec) Release(chip, pl int) error { return nil }

// TestHitsFirstDispatchDoesNotBlockOnMapping is the pipelining property:
// a job whose mapping is computing parks on the mapReady edge while the
// dispatch loop keeps placing cached jobs behind it — dispatch latency is
// decoupled from mapper latency.
func TestHitsFirstDispatchDoesNotBlockOnMapping(t *testing.T) {
	exec := &asyncExec{}
	d, err := New[*asyncJob, int, string](exec, Config{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	miss := &asyncJob{name: "miss", mapped: make(chan struct{})}
	hMiss, err := d.Submit(context.Background(), "t", 0, time.Time{}, miss)
	if err != nil {
		t.Fatal(err)
	}
	hit := &asyncJob{name: "hit"}
	hHit, err := d.Submit(context.Background(), "t", 0, time.Time{}, hit)
	if err != nil {
		t.Fatal(err)
	}

	// The cached job starts even though the older job's mapping is still
	// in flight — the old dispatcher would serialize behind it.
	select {
	case <-hHit.Started():
	case <-time.After(5 * time.Second):
		t.Fatal("cached job never started while the older job's mapping computed")
	}
	select {
	case <-hMiss.Started():
		t.Fatal("mapping-miss job started before its mapping landed")
	case <-time.After(20 * time.Millisecond):
	}

	// A session-path ticket younger than the map-parked job must still
	// wait its turn: hits-first does not let external work overtake it.
	seq := admitSeq(t, d, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if err := d.WaitTurn(ctx, seq, 0, time.Time{}); err == nil {
		t.Fatal("external ticket passed a map-parked older job")
	}
	cancel()

	close(miss.mapped)
	if _, err := hMiss.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := hHit.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With the map-parked job placed, the external ticket passes.
	if err := d.WaitTurn(context.Background(), admitSeq(t, d, 0), 0, time.Time{}); err != nil {
		t.Fatalf("WaitTurn after drain: %v", err)
	}

	// The popped mapReady slot was cleared: nothing in the backing array
	// still reaches the finished job.
	d.mu.Lock()
	ready := d.mapReady[:cap(d.mapReady)]
	d.mu.Unlock()
	if len(ready) == 0 {
		t.Fatal("mapReady never held the map-parked job")
	}
	for i, it := range ready {
		if it != nil {
			t.Fatalf("mapReady backing slot %d still holds popped job %q", i, it.Job.job.name)
		}
	}

	s := d.Stats()
	if s.MapParked == 0 {
		t.Fatalf("no job parked on mapping: %+v", s)
	}
	if s.HitsFirst == 0 {
		t.Fatalf("no hits-first placement: %+v", s)
	}
	if s.Completed != 2 {
		t.Fatalf("completed = %d, want 2", s.Completed)
	}
}

// TestHitsFirstMapParkedDeadline: a job whose deadline passes while its
// mapping computes fails fast with ErrDeadlineExceeded — the waiter wakes
// on the deadline, not only on the mapping edge.
func TestHitsFirstMapParkedDeadline(t *testing.T) {
	exec := &asyncExec{}
	d, err := New[*asyncJob, int, string](exec, Config{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	miss := &asyncJob{name: "miss", mapped: make(chan struct{})}
	h, err := d.Submit(context.Background(), "t", 0, time.Now().Add(30*time.Millisecond), miss)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("map-parked job outlived its deadline")
	}
	close(miss.mapped) // unblock the abandoned mapping edge
}

// recordingExec logs every executor call with the job it names. Rank
// announces itself on a job's inRank and parks until its rankGate
// closes; Execute parks on its block.
type recordingExec struct {
	mu    sync.Mutex
	calls []string // job names, one per executor call, in call order
}

type recordedJob struct {
	name     string
	inRank   chan struct{}
	rankGate chan struct{}
	block    chan struct{}
}

func (e *recordingExec) record(j *recordedJob) {
	e.mu.Lock()
	e.calls = append(e.calls, j.name)
	e.mu.Unlock()
}

func (e *recordingExec) named() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.calls...)
}

func (e *recordingExec) Rank(j *recordedJob) ([]Candidate, <-chan struct{}, error) {
	e.record(j)
	if j.rankGate != nil {
		j.inRank <- struct{}{}
		<-j.rankGate
	}
	return []Candidate{{Chip: 0}}, nil, nil
}

func (e *recordingExec) RankCached(j *recordedJob) []Candidate { e.record(j); return nil }

func (e *recordingExec) Place(chip int, j *recordedJob) (int, error) { e.record(j); return chip, nil }

func (e *recordingExec) Execute(ctx context.Context, chip, pl int, j *recordedJob) (string, time.Duration, error) {
	e.record(j)
	if j.block != nil {
		<-j.block
	}
	return j.name, 0, nil
}

func (e *recordingExec) Release(chip, pl int) error { return nil }

// TestDispatcherMapsOnlyWhatItPops: the executor hears about a job only
// once the dispatcher has popped it. With the head held in Execute and
// the next job held inside its own Rank, three more jobs sit queued and
// no executor call may name them — no look-ahead ranks, maps or warms a
// job that has not asked yet. (Backfill, the one sanctioned exception,
// needs a capacity-parked head and is not triggered here.)
func TestDispatcherMapsOnlyWhatItPops(t *testing.T) {
	exec := &recordingExec{}
	d, err := New[*recordedJob, int, string](exec, Config{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	jobs := []*recordedJob{
		{name: "head", block: make(chan struct{})},
		{name: "popped", inRank: make(chan struct{}, 1), rankGate: make(chan struct{})},
		{name: "q1"}, {name: "q2"}, {name: "q3"},
	}
	handles := make([]*Handle[string], len(jobs))
	for i, j := range jobs {
		if handles[i], err = d.Submit(context.Background(), "t", 0, time.Time{}, j); err != nil {
			t.Fatal(err)
		}
	}
	// The dispatcher is now inside Rank for the popped job, with q1..q3
	// queued behind it.
	<-jobs[1].inRank
	for _, name := range exec.named() {
		if name != "head" && name != "popped" {
			t.Fatalf("executor called with queued job %q before it was popped (calls so far: %v)", name, exec.named())
		}
	}

	close(jobs[1].rankGate)
	close(jobs[0].block)
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Every job was first heard of in pop order.
	var first []string
	seen := map[string]bool{}
	for _, name := range exec.named() {
		if !seen[name] {
			seen[name] = true
			first = append(first, name)
		}
	}
	want := []string{"head", "popped", "q1", "q2", "q3"}
	if len(first) != len(want) {
		t.Fatalf("first calls = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("first calls = %v, want %v", first, want)
		}
	}
}

// seamJob drives seamExec: mapped (non-nil) parks the job's Rank on it
// until closed; gate (non-nil) holds the job's first Rank, announced on
// the executor's inRank, until closed; block parks Execute.
type seamJob struct {
	name   string
	mapped chan struct{}
	gate   chan struct{}
	block  chan struct{}
}

// seamExec is a one-chip executor with unit capacity that logs every
// ranking and placing call as "Method job".
type seamExec struct {
	mu     sync.Mutex
	free   int
	calls  []string
	inRank chan string
}

func (e *seamExec) log(method string, j *seamJob) {
	e.mu.Lock()
	e.calls = append(e.calls, method+" "+j.name)
	e.mu.Unlock()
}

func (e *seamExec) logged() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.calls...)
}

// fits answers both ranks: nothing while the job's mapping is out or the
// chip is taken.
func (e *seamExec) fits(j *seamJob) []Candidate {
	if j.mapped != nil {
		select {
		case <-j.mapped:
		default:
			return nil
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.free < 1 {
		return nil
	}
	return []Candidate{{Chip: 0}}
}

func (e *seamExec) Rank(j *seamJob) ([]Candidate, <-chan struct{}, error) {
	e.log("Rank", j)
	if j.gate != nil {
		select {
		case <-j.gate:
		default:
			e.inRank <- j.name
			<-j.gate
		}
	}
	if j.mapped != nil {
		select {
		case <-j.mapped:
		default:
			return nil, j.mapped, nil
		}
	}
	if cands := e.fits(j); cands != nil {
		return cands, nil, nil
	}
	return nil, nil, fmt.Errorf("chip 0 is taken: %w", core.ErrNoCapacity)
}

func (e *seamExec) RankCached(j *seamJob) []Candidate {
	e.log("RankCached", j)
	return e.fits(j)
}

func (e *seamExec) Place(chip int, j *seamJob) (int, error) {
	e.log("Place", j)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.free < 1 {
		return 0, fmt.Errorf("chip 0 is taken: %w", core.ErrNoCapacity)
	}
	e.free--
	return 1, nil
}

func (e *seamExec) Execute(ctx context.Context, chip, pl int, j *seamJob) (string, time.Duration, error) {
	if j.block != nil {
		<-j.block
	}
	return j.name, 0, nil
}

func (e *seamExec) Release(chip, pl int) error {
	e.mu.Lock()
	e.free += pl
	e.mu.Unlock()
	return nil
}

// waitLogged polls until the executor's log satisfies done.
func waitLogged(t *testing.T, e *seamExec, what string, done func([]string) bool) []string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if calls := e.logged(); done(calls) {
			return calls
		}
	}
	t.Fatalf("never saw %s; calls: %v", what, e.logged())
	return nil
}

// TestDispatcherRanksOncePerAttempt pins the executor seam's traffic.
// A popped job is ranked exactly once per placement attempt: once before
// it parks on its mapping edge, nothing while the edge is open, once when
// it closes. A job still queued is named only by a backfill pass under a
// capacity-parked head — one Rank for the best-ordered candidate, then
// RankCached for every other — and never placed from there while the
// chip is taken.
func TestDispatcherRanksOncePerAttempt(t *testing.T) {
	exec := &seamExec{free: 1, inRank: make(chan string, 1)}
	d, err := New[*seamJob, int, string](exec, Config{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	submit := func(j *seamJob) *Handle[string] {
		t.Helper()
		h, err := d.Submit(context.Background(), "t", 0, time.Time{}, j)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	// A job whose mapping is out: one Rank, then silence until the edge.
	parker := &seamJob{name: "parker", mapped: make(chan struct{}), block: make(chan struct{})}
	hParker := submit(parker)
	waitLogged(t, exec, "the parker's first rank", func(c []string) bool { return len(c) > 0 })
	time.Sleep(20 * time.Millisecond)
	if calls := exec.logged(); len(calls) != 1 || calls[0] != "Rank parker" {
		t.Fatalf("calls while the mapping edge is open = %v, want one Rank", calls)
	}
	close(parker.mapped)
	<-hParker.Started()
	if calls, want := exec.logged(), []string{"Rank parker", "Rank parker", "Place parker"}; !slices.Equal(calls, want) {
		t.Fatalf("calls for a job that parked once = %v, want %v", calls, want)
	}

	// The parker holds the chip. The head is held inside its first Rank
	// until three more jobs are queued behind it, then parks on capacity.
	head := &seamJob{name: "head", gate: make(chan struct{})}
	handles := []*Handle[string]{hParker, submit(head)}
	<-exec.inRank
	for _, name := range []string{"q1", "q2", "q3"} {
		handles = append(handles, submit(&seamJob{name: name}))
	}
	close(head.gate)
	// Each arrival poked the parked head into another attempt; the last
	// one backfills over all three queued jobs.
	calls := waitLogged(t, exec, "a backfill pass over q1..q3", func(c []string) bool {
		return len(c) >= 3 && slices.Equal(c[len(c)-3:], []string{"Rank q1", "RankCached q2", "RankCached q3"})
	})
	time.Sleep(20 * time.Millisecond)
	calls = exec.logged()[3:]
	ranksThisAttempt := -1
	for i, call := range calls {
		method, job, _ := strings.Cut(call, " ")
		switch {
		case call == "Rank head":
			ranksThisAttempt = 0
		case job == "head" || job == "parker":
			t.Fatalf("call %d = %q names a popped job outside its attempt's Rank: %v", i, call, calls)
		case ranksThisAttempt < 0:
			t.Fatalf("call %d = %q names a queued job before any head attempt: %v", i, call, calls)
		case method == "Rank":
			if ranksThisAttempt++; ranksThisAttempt > 1 || job != "q1" || calls[i-1] != "Rank head" {
				t.Fatalf("call %d = %q: a backfill pass ranks only its best-ordered candidate, once, first: %v", i, call, calls)
			}
		case method != "RankCached":
			t.Fatalf("call %d = %q: a queued job is only ever ranked, and beyond the first only from cache: %v", i, call, calls)
		}
	}

	close(parker.block)
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Completed != uint64(len(handles)) || s.MapParked != 1 {
		t.Fatalf("completed %d of %d with %d map-parks, want all and 1: %+v", s.Completed, len(handles), s.MapParked, s)
	}
}

// reparkExec parks a job on each of its edges in turn before ranking it.
type reparkExec struct {
	asyncExec
	edges []chan struct{}
	next  int // only the dispatcher goroutine ranks
}

func (e *reparkExec) Rank(j *asyncJob) ([]Candidate, <-chan struct{}, error) {
	if e.next < len(e.edges) {
		e.next++
		return nil, e.edges[e.next-1], nil
	}
	return []Candidate{{Chip: 0}}, nil, nil
}

// TestMapParkedTracedOnce: a job whose free set moves under its mapping
// parks again, and every park counts in Stats.MapParked, but its trace
// marks where the wait began once — a lifecycle is a bounded number of
// events however long the mapper and the free set chase each other.
func TestMapParkedTracedOnce(t *testing.T) {
	exec := &reparkExec{edges: []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}}
	d, err := New[*asyncJob, int, string](exec, Config{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var mu sync.Mutex
	var placed []string
	d.SetObserver(func(_ *asyncJob, stage obs.Stage, detail string, _ int) {
		if stage == obs.StagePlaced {
			mu.Lock()
			placed = append(placed, detail)
			mu.Unlock()
		}
	})
	h, err := d.Submit(context.Background(), "t", 0, time.Time{}, &asyncJob{name: "chased"})
	if err != nil {
		t.Fatal(err)
	}
	for i, edge := range exec.edges {
		for deadline := time.Now().Add(5 * time.Second); d.Stats().MapParked != uint64(i+1); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("park %d never happened: %+v", i+1, d.Stats())
			}
		}
		close(edge)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"map-parked", "hit"}; !slices.Equal(placed, want) {
		t.Fatalf("placed events = %v, want %v for a job that parked %d times", placed, want, len(exec.edges))
	}
}
