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
