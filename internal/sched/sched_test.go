package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
)

// fakeJob drives the fake executor: size is the capacity it claims;
// costs, prices and loads (optional) fix the per-chip placement score;
// block (optional) parks Execute until closed; fail makes Execute return
// an error; name labels the job in the executor's order log.
type fakeJob struct {
	name   string
	size   int
	costs  []float64
	prices []float64
	loads  []float64
	block  chan struct{}
	fail   error
}

// fakeExec models chips as integer capacity pools. placeFail forces Place
// (but not Rank) to fail on specific chips. order logs job names in
// execution order.
type fakeExec struct {
	mu        sync.Mutex
	free      []int
	placeFail map[int]error
	order     []string
}

func (e *fakeExec) executionOrder() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.order...)
}

func (e *fakeExec) avail(chip, size int) error {
	if size > e.free[chip] {
		return fmt.Errorf("chip %d has %d free, job needs %d: %w", chip, e.free[chip], size, core.ErrNoCapacity)
	}
	return nil
}

// Rank is always complete: the fake computes nothing, so every chip is
// answered at once and RankCached sees the same candidates.
func (e *fakeExec) Rank(j *fakeJob) ([]Candidate, <-chan struct{}, error) {
	cands, err := e.rank(j)
	return cands, nil, err
}

func (e *fakeExec) RankCached(j *fakeJob) []Candidate {
	cands, _ := e.rank(j)
	return cands
}

func (e *fakeExec) rank(j *fakeJob) ([]Candidate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var cands []Candidate
	var lastErr error
	for chip := range e.free {
		if err := e.avail(chip, j.size); err != nil {
			lastErr = err
			continue
		}
		var s Score
		if j.costs != nil {
			s.Cost = j.costs[chip]
		}
		if j.prices != nil {
			s.Price = j.prices[chip]
		}
		if j.loads != nil {
			s.Load = j.loads[chip]
		}
		cands = append(cands, Candidate{Chip: chip, Score: s})
	}
	if len(cands) == 0 {
		return nil, lastErr
	}
	return cands, nil
}

func (e *fakeExec) Place(chip int, j *fakeJob) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err, ok := e.placeFail[chip]; ok {
		return 0, err
	}
	if err := e.avail(chip, j.size); err != nil {
		return 0, err
	}
	e.free[chip] -= j.size
	return j.size, nil
}

func (e *fakeExec) Execute(ctx context.Context, chip int, pl int, j *fakeJob) (string, time.Duration, error) {
	if j.name != "" {
		e.mu.Lock()
		e.order = append(e.order, j.name)
		e.mu.Unlock()
	}
	if j.block != nil {
		select {
		case <-j.block:
		case <-ctx.Done():
			return "", 0, ctx.Err()
		}
	}
	return "ok", 0, j.fail
}

func (e *fakeExec) Release(chip int, pl int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.free[chip] += pl
	return nil
}

func newTestDispatcher(t *testing.T, exec *fakeExec, cfg Config) *Dispatcher[*fakeJob, int, string] {
	t.Helper()
	d, err := New[*fakeJob, int, string](exec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// submit enqueues a job at the default class with no deadline — the
// shape most pre-priority tests want.
func submit(d *Dispatcher[*fakeJob, int, string], tenant string, j *fakeJob) (*Handle[string], error) {
	return d.Submit(context.Background(), tenant, 1, time.Time{}, j)
}

func TestPlacementPicksBestScore(t *testing.T) {
	exec := &fakeExec{free: []int{10, 10, 10}}
	d := newTestDispatcher(t, exec, Config{Chips: 3})
	defer d.Close()

	h, err := submit(d, "a", &fakeJob{size: 1, costs: []float64{2, 0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 1 {
		t.Fatalf("placed on chip %d, want best-scoring chip 1", h.Chip())
	}
}

// TestPlacementLoadBreaksTiesOnly: load decides between equal costs but
// can never override a cost difference, however small.
func TestPlacementLoadBreaksTiesOnly(t *testing.T) {
	exec := &fakeExec{free: []int{10, 10, 10}}
	d := newTestDispatcher(t, exec, Config{Chips: 3})
	defer d.Close()

	// Chips 0 and 2 tie on cost; chip 2 is less loaded.
	h, err := submit(d, "a",
		&fakeJob{size: 1, costs: []float64{1, 2, 1}, loads: []float64{0.9, 0, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 2 {
		t.Fatalf("placed on chip %d, want tie broken to chip 2", h.Chip())
	}
	// A fractionally better cost beats any load advantage.
	h, err = submit(d, "a",
		&fakeJob{size: 1, costs: []float64{0.5, 1, 0.6}, loads: []float64{0.99, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 0 {
		t.Fatalf("placed on chip %d, want lowest-cost chip 0 despite load", h.Chip())
	}
}

// TestPlacementPriceSeparatesEqualCosts: among equal-cost chips the
// cheapest wins (heterogeneous clusters: don't burn an expensive chip on
// a job a cheap one fits equally well), and price itself never overrides
// a cost difference.
func TestPlacementPriceSeparatesEqualCosts(t *testing.T) {
	exec := &fakeExec{free: []int{10, 10, 10}}
	d := newTestDispatcher(t, exec, Config{Chips: 3})
	defer d.Close()

	// Chips 0 and 2 tie on cost; chip 2 is cheaper, even though chip 0 is
	// less loaded — price outranks load.
	h, err := submit(d, "a", &fakeJob{
		size:   1,
		costs:  []float64{1, 2, 1},
		prices: []float64{16, 16, 0.5},
		loads:  []float64{0, 0.5, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 2 {
		t.Fatalf("placed on chip %d, want cheapest equal-cost chip 2", h.Chip())
	}
	// A better cost beats any price advantage.
	h, err = submit(d, "a", &fakeJob{
		size:   1,
		costs:  []float64{0.5, 1, 1},
		prices: []float64{16, 0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 0 {
		t.Fatalf("placed on chip %d, want lowest-cost chip 0 despite price", h.Chip())
	}
}

// TestPlaceFallsBackToNextChip: a Place failure on the best-scoring chip
// (e.g. memory a score cannot see) falls through to the runner-up instead
// of parking the dispatcher.
func TestPlaceFallsBackToNextChip(t *testing.T) {
	exec := &fakeExec{
		free:      []int{10, 10},
		placeFail: map[int]error{0: fmt.Errorf("chip 0 memory exhausted: %w", core.ErrNoCapacity)},
	}
	d := newTestDispatcher(t, exec, Config{Chips: 2})
	defer d.Close()

	h, err := submit(d, "a", &fakeJob{size: 1, costs: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h.Chip() != 1 {
		t.Fatalf("placed on chip %d, want fallback chip 1", h.Chip())
	}
}

func TestBackpressureRetriesAfterRelease(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	h1, err := submit(d, "a", &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	// h2 cannot be placed until h1 releases the chip's only capacity unit.
	h2, err := submit(d, "a", &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h2.Started():
		t.Fatal("h2 placed while chip was full")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatalf("h2 after release: %v", err)
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestUnplaceableJobFailsOnIdleCluster(t *testing.T) {
	exec := &fakeExec{free: []int{4, 4}}
	d := newTestDispatcher(t, exec, Config{Chips: 2})
	defer d.Close()

	h, err := submit(d, "a", &fakeJob{size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("got %v, want ErrNoCapacity", err)
	}
}

func TestQueueFullRejection(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1, QueueDepth: 1})
	defer d.Close()

	gate := make(chan struct{})
	defer close(gate)
	h1, err := submit(d, "a", &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	// h2 parks in the dispatcher awaiting capacity; everything beyond the
	// single queue slot must be rejected.
	if _, err := submit(d, "a", &fakeJob{size: 1}); err != nil {
		t.Fatal(err)
	}
	var rejected bool
	for i := 0; i < 2; i++ {
		if _, err := submit(d, "a", &fakeJob{size: 1}); errors.Is(err, core.ErrQueueFull) {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no submission was rejected with ErrQueueFull")
	}
	if s := d.Stats(); s.RejectedQueueFull == 0 {
		t.Fatal("stats did not count the queue-full rejection")
	}
}

func TestTenantQuota(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1, TenantQuota: 1})
	defer d.Close()

	gate := make(chan struct{})
	h1, err := submit(d, "a", &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(d, "a", &fakeJob{size: 1}); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("tenant a second submit: got %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected.
	hb, err := submit(d, "b", &fakeJob{size: 1})
	if err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	close(gate)
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Quota slot is returned after completion.
	h3, err := submit(d, "a", &fakeJob{size: 1})
	if err != nil {
		t.Fatalf("tenant a after drain: %v", err)
	}
	if _, err := h3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	defer close(gate)
	h1, err := submit(d, "a", &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-h1.Started()
	ctx, cancel := context.WithCancel(context.Background())
	h2, err := d.Submit(ctx, "a", 1, time.Time{}, &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := h2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	exec := &fakeExec{free: []int{2, 2}}
	d := newTestDispatcher(t, exec, Config{Chips: 2})

	var handles []*Handle[string]
	for i := 0; i < 8; i++ {
		h, err := submit(d, fmt.Sprintf("t%d", i%3), &fakeJob{size: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %d after Close: %v", i, err)
		}
	}
	s := d.Stats()
	if s.Completed != 8 || s.Failed != 0 {
		t.Fatalf("stats completed=%d failed=%d, want 8/0", s.Completed, s.Failed)
	}
	if s.ChipJobs[0]+s.ChipJobs[1] != 8 {
		t.Fatalf("chip jobs %v do not sum to 8", s.ChipJobs)
	}
	if _, err := submit(d, "a", &fakeJob{size: 1}); !errors.Is(err, core.ErrDestroyed) {
		t.Fatalf("submit after close: got %v, want ErrDestroyed", err)
	}
}

// TestPriorityOrdersQueuedJobs: with the chip held, a later high-class
// arrival runs before earlier lower-class queued work (displacing the
// parked job), and equal classes keep admission order.
func TestPriorityOrdersQueuedJobs(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{name: "blocker", size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	var handles []*Handle[string]
	for _, j := range []struct {
		name  string
		class int
	}{{"low", 0}, {"high1", 3}, {"high2", 3}, {"mid", 2}} {
		h, err := d.Submit(context.Background(), "a", j.class, time.Time{}, &fakeJob{name: j.name, size: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(gate)
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"blocker", "high1", "high2", "mid", "low"}
	got := exec.executionOrder()
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// TestEDFDisplacesParkedSameClass: within one class, a later arrival
// with an earlier deadline displaces the parked no-deadline job and runs
// first.
func TestEDFDisplacesParkedSameClass(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{name: "blocker", size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(time.Minute)
	var handles []*Handle[string]
	for _, j := range []struct {
		name     string
		deadline time.Time
	}{{"far", far}, {"near", near}, {"none", time.Time{}}} {
		h, err := d.Submit(context.Background(), "a", 1, j.deadline, &fakeJob{name: j.name, size: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(gate)
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"blocker", "near", "far", "none"}
	got := exec.executionOrder()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

// TestDeadlineFailsFast: a queued job whose deadline passes before
// placement fails with ErrDeadlineExceeded while the chip stays busy,
// and a submission whose deadline already passed is rejected
// synchronously.
func TestDeadlineFailsFast(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	if _, err := d.Submit(context.Background(), "a", 1, time.Now().Add(-time.Second), &fakeJob{size: 1}); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("past-deadline submit: got %v, want ErrDeadlineExceeded", err)
	}

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	// Two queued jobs with tight deadlines: one will be parked (its
	// deadline timer fires), the other expires inside the queue.
	h1, err := d.Submit(context.Background(), "a", 1, time.Now().Add(20*time.Millisecond), &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d.Submit(context.Background(), "a", 1, time.Now().Add(25*time.Millisecond), &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(context.Background()); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("h1: got %v, want ErrDeadlineExceeded", err)
	}
	if _, err := h2.Wait(context.Background()); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("h2: got %v, want ErrDeadlineExceeded", err)
	}
	close(gate)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	var misses uint64
	for _, cs := range s.PerClass {
		misses += cs.DeadlineMisses
	}
	if misses != 3 { // the synchronous rejection counts too
		t.Fatalf("deadline misses = %d, want 3 (%+v)", misses, s.PerClass)
	}
}

// admitSeq admits an externally served job of the class and returns its
// sequence ticket. The job is left unfinished: the WaitTurn tests only
// order it against queued work.
func admitSeq[J any](t *testing.T, d *Dispatcher[J, int, string], class int) uint64 {
	t.Helper()
	_, seq, err := d.Admit("external", class, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestWaitTurnBlocksBehindOlderQueuedWork: an external ticket holder may
// not proceed while an older equal-class dispatcher job is queued or
// parked, unblocks once it places, and passes lower-class queued work
// immediately.
func TestWaitTurnBlocksBehindOlderQueuedWork(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	queued, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Equal class, newer ticket: must wait for the queued job.
	seq := admitSeq(t, d, 1)
	turn := make(chan error, 1)
	go func() { turn <- d.WaitTurn(context.Background(), seq, 1, time.Time{}) }()
	select {
	case err := <-turn:
		t.Fatalf("WaitTurn returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Higher class passes queued lower-class work without waiting.
	if err := d.WaitTurn(context.Background(), admitSeq(t, d, 3), 3, time.Time{}); err != nil {
		t.Fatalf("high-class WaitTurn: %v", err)
	}

	close(gate)
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-turn:
		if err != nil {
			t.Fatalf("WaitTurn after drain: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitTurn never unblocked after the older job placed")
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Cancellation abandons the wait with the context error.
	gate2 := make(chan struct{})
	b2, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1, block: gate2})
	if err != nil {
		t.Fatal(err)
	}
	<-b2.Started()
	q2, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := d.WaitTurn(ctx, admitSeq(t, d, 1), 1, time.Time{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled WaitTurn: got %v, want context.Canceled", err)
	}
	close(gate2)
	if _, err := b2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAgingBoundsStarvation is the no-unbounded-starvation property at
// the dispatcher level: under a backlog of sustained top-class load, an
// admitted bottom-class job still executes within the aging bound's
// worth of scheduling rounds.
func TestAgingBoundsStarvation(t *testing.T) {
	const aging = 2
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1, QueueDepth: 64, AgingRounds: aging})
	defer d.Close()

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 3, time.Time{}, &fakeJob{name: "blocker", size: 1, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	low, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "low", size: 1})
	if err != nil {
		t.Fatal(err)
	}
	var highs []*Handle[string]
	for i := 0; i < 24; i++ {
		h, err := d.Submit(context.Background(), "a", 3, time.Time{}, &fakeJob{name: fmt.Sprintf("high%02d", i), size: 1})
		if err != nil {
			t.Fatal(err)
		}
		highs = append(highs, h)
	}
	close(gate)
	if _, err := low.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, h := range highs {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	order := exec.executionOrder()
	pos := -1
	for i, name := range order {
		if name == "low" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatalf("low job never executed: %v", order)
	}
	// Three promotions (class 0 -> 3) at `aging` rounds each, plus
	// scheduling slack: far below the 25 jobs ahead of it in strict
	// priority order.
	const bound = 3*aging + 6
	if pos > bound {
		t.Fatalf("low job executed at position %d, want <= %d (no unbounded starvation): %v", pos, bound, order)
	}
	s := d.Stats()
	var promos uint64
	for _, cs := range s.PerClass {
		promos += cs.Promotions
	}
	if promos == 0 {
		t.Fatalf("no aging promotions recorded: %+v", s.PerClass)
	}
}

// TestQueuedDeadlineFiresWhileHeadParked: a queued job's deadline must
// fail fast even when the dispatcher is parked on an unplaceable head
// with no scheduling events arriving.
func TestQueuedDeadlineFiresWhileHeadParked(t *testing.T) {
	exec := &fakeExec{free: []int{2}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	gate := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 2, block: gate})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	// The head parks without a deadline of its own...
	head, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ...while a queued job behind it expires.
	queued, err := d.Submit(context.Background(), "a", 1, time.Now().Add(30*time.Millisecond), &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := queued.Wait(waitCtx); !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("queued job behind parked head: got %v, want ErrDeadlineExceeded before the blocker finishes", err)
	}
	close(gate)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := head.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
