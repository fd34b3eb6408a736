package sched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// asyncJob drives the async-ranking executor: mapped is closed when the
// job's (fake) mapping computation lands — nil means it was cached all
// along; block parks Execute until closed.
type asyncJob struct {
	name   string
	mapped chan struct{}
	block  chan struct{}
}

// asyncExec is a single-chip executor implementing AsyncRanker: a job
// ranks (hits-first or fully) only once its mapping landed, mirroring
// the placement engine's cache semantics.
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

func (e *asyncExec) Rank(j *asyncJob) ([]Candidate, error) {
	// The dispatcher only ranks fully once RankAsync reported nothing to
	// wait for; by then the mapping is cached.
	return []Candidate{{Chip: 0}}, nil
}

func (e *asyncExec) RankHit(j *asyncJob) []Candidate {
	if !e.jobMapped(j) {
		return nil
	}
	return []Candidate{{Chip: 0}}
}

func (e *asyncExec) RankAsync(j *asyncJob) <-chan struct{} {
	if e.jobMapped(j) {
		return nil
	}
	return j.mapped
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

// recordingExec logs every executor call with the job it names,
// implementing each optional ranking extension so none can be used
// unseen. Rank announces itself on a job's inRank and parks until its
// rankGate closes; Execute parks on its block.
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

func (e *recordingExec) Rank(j *recordedJob) ([]Candidate, error) {
	e.record(j)
	if j.rankGate != nil {
		j.inRank <- struct{}{}
		<-j.rankGate
	}
	return []Candidate{{Chip: 0}}, nil
}

func (e *recordingExec) RankCached(j *recordedJob) []Candidate { e.record(j); return nil }
func (e *recordingExec) RankHit(j *recordedJob) []Candidate    { e.record(j); return nil }

func (e *recordingExec) RankAsync(j *recordedJob) <-chan struct{} { e.record(j); return nil }

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
