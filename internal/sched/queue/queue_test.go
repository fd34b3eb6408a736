package queue

import (
	"math/rand"
	"testing"
	"time"
)

func pop(t *testing.T, q *Queue[int]) int {
	t.Helper()
	it, ok := q.Pop()
	if !ok {
		t.Fatal("pop on empty queue")
	}
	return it.Job
}

func TestClassOrdering(t *testing.T) {
	q := New[int](Config{Classes: 4, AgingRounds: -1})
	q.Push(0, 0, time.Time{}, 0)
	q.Push(3, 3, time.Time{}, 1)
	q.Push(1, 1, time.Time{}, 2)
	q.Push(2, 2, time.Time{}, 3)
	for want := 3; want >= 0; want-- {
		if got := pop(t, q); got != want {
			t.Fatalf("pop %d, want class order %d", got, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestEDFWithinClassThenFIFO(t *testing.T) {
	q := New[int](Config{Classes: 2, AgingRounds: -1})
	base := time.Unix(1000, 0)
	// Same class: a later arrival with an earlier deadline pops first;
	// deadline-less items come after all deadlines, in admission order.
	q.Push(0, 1, time.Time{}, 0)
	q.Push(1, 1, base.Add(time.Hour), 1)
	q.Push(2, 1, base.Add(time.Minute), 2)
	q.Push(3, 1, time.Time{}, 3)
	want := []int{2, 1, 0, 3}
	for _, w := range want {
		if got := pop(t, q); got != w {
			t.Fatalf("pop %d, want %d (EDF then FIFO)", got, w)
		}
	}
}

func TestClampsClasses(t *testing.T) {
	q := New[int](Config{Classes: 2, AgingRounds: -1})
	q.Push(0, -5, time.Time{}, 0)
	q.Push(1, 99, time.Time{}, 1)
	if got := pop(t, q); got != 1 {
		t.Fatalf("pop %d, want over-class item clamped to top class", got)
	}
	if got := pop(t, q); got != 0 {
		t.Fatalf("pop %d, want under-class item clamped to class 0", got)
	}
}

func TestPopExpired(t *testing.T) {
	q := New[int](Config{Classes: 2, AgingRounds: -1})
	now := time.Unix(1000, 0)
	q.Push(0, 1, now.Add(-time.Second), 0) // already expired
	q.Push(1, 1, now.Add(time.Hour), 1)
	q.Push(2, 0, now.Add(-time.Minute), 2) // expired, lower class
	q.Push(3, 0, time.Time{}, 3)
	exp := q.PopExpired(now)
	if len(exp) != 2 {
		t.Fatalf("expired %d items, want 2", len(exp))
	}
	seen := map[int]bool{}
	for _, it := range exp {
		seen[it.Job] = true
	}
	if !seen[0] || !seen[2] {
		t.Fatalf("wrong items expired: %v", seen)
	}
	if q.Len() != 2 || q.Expired() != 2 {
		t.Fatalf("len %d expired %d, want 2/2", q.Len(), q.Expired())
	}
	if got := pop(t, q); got != 1 {
		t.Fatalf("pop %d after expiry, want 1", got)
	}
}

func TestRequeueKeepsPosition(t *testing.T) {
	q := New[int](Config{Classes: 2, AgingRounds: -1})
	it0 := q.Push(0, 1, time.Time{}, 0)
	q.Push(1, 1, time.Time{}, 1)
	got, ok := q.Pop()
	if !ok || got != it0 {
		t.Fatal("expected the older item first")
	}
	// Displaced: back into the queue ahead of its classmate.
	q.Requeue(it0)
	if got := pop(t, q); got != 0 {
		t.Fatalf("pop %d after requeue, want the requeued item to keep its seq order", got)
	}
}

// TestAgingPromotesStarvedItems: a class-0 item under a steady stream of
// class-2 arrivals is promoted step by step and pops within the bounded
// number of rounds — the no-unbounded-starvation property.
func TestAgingPromotesStarvedItems(t *testing.T) {
	const aging = 4
	const classes = 3
	q := New[int](Config{Classes: classes, AgingRounds: aging})
	q.Push(-1, 0, time.Time{}, 0)
	seq := uint64(1)
	// Strict upper bound: one promotion per aging window per class, plus
	// one final pop round.
	bound := classes*aging + 1
	for round := 1; ; round++ {
		if round > bound {
			t.Fatalf("low-priority item still queued after %d rounds (bound %d)", round, bound)
		}
		q.Push(int(seq), classes-1, time.Time{}, seq)
		seq++
		it, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if it.Job == -1 {
			if promos := q.Promotions(); promos[0] == 0 {
				t.Fatalf("item popped without recorded promotions: %v", promos)
			}
			return
		}
	}
}

// TestAgingPropertyRandomized: under random high-class arrival mixes,
// every admitted item pops within Classes*AgingRounds + backlog rounds.
func TestAgingPropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		const aging = 3
		const classes = 4
		q := New[int](Config{Classes: classes, AgingRounds: aging})
		seq := uint64(0)
		push := func(class int) {
			q.Push(int(seq), class, time.Time{}, seq)
			seq++
		}
		// Seed a backlog of mixed classes.
		backlog := 1 + rng.Intn(8)
		for i := 0; i < backlog; i++ {
			push(rng.Intn(classes))
		}
		victim := q.Push(-1, 0, time.Time{}, seq)
		seq++
		bound := classes*aging + backlog + 2
		for round := 1; ; round++ {
			if round > bound {
				t.Fatalf("trial %d: victim queued after %d rounds (bound %d)", trial, round, bound)
			}
			// Sustained top-class pressure, one arrival per round.
			push(classes - 1)
			it, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed")
			}
			if it == victim {
				break
			}
		}
	}
}

func TestHasOlderAtOrAbove(t *testing.T) {
	q := New[int](Config{Classes: 3, AgingRounds: -1})
	q.Push(0, 1, time.Time{}, 5)
	if !q.HasOlderAtOrAbove(9, 1) {
		t.Fatal("older same-class item must block")
	}
	if !q.HasOlderAtOrAbove(9, 0) {
		t.Fatal("older higher-class item must block a lower-class ticket")
	}
	if q.HasOlderAtOrAbove(9, 2) {
		t.Fatal("higher-class ticket must not be blocked by a lower class")
	}
	if q.HasOlderAtOrAbove(3, 1) {
		t.Fatal("a newer queued item must not block an older ticket")
	}
	// Promotion raises the effective class and can start blocking
	// tickets it previously did not.
	q2 := New[int](Config{Classes: 2, AgingRounds: 1})
	q2.Push(0, 0, time.Time{}, 0)
	if q2.HasOlderAtOrAbove(2, 1) {
		t.Fatal("class-0 item must not block a class-1 ticket yet")
	}
	q2.Push(1, 1, time.Time{}, 1)
	if _, ok := q2.Pop(); !ok { // pops seq 1; ages seq 0 into class 1
		t.Fatal("pop failed")
	}
	if !q2.HasOlderAtOrAbove(2, 1) {
		t.Fatal("aged item must now block the class-1 ticket")
	}
}

func TestBestClass(t *testing.T) {
	q := New[int](Config{Classes: 3, AgingRounds: -1})
	if _, ok := q.BestClass(); ok {
		t.Fatal("empty queue has no best class")
	}
	q.Push(0, 0, time.Time{}, 0)
	q.Push(1, 2, time.Time{}, 1)
	if c, ok := q.BestClass(); !ok || c != 2 {
		t.Fatalf("best class %d, want 2", c)
	}
}

// TestBoostBeatsDeadlineStream: a no-deadline item that aged into (or
// started in) the top class cannot be starved by a sustained stream of
// deadline-carrying top-class arrivals — after one more aging window it
// is boosted ahead of the EDF order.
func TestBoostBeatsDeadlineStream(t *testing.T) {
	const aging = 3
	q := New[int](Config{Classes: 2, AgingRounds: aging})
	base := time.Unix(1_000_000, 0)
	q.Push(-1, 1, time.Time{}, 0) // top class, no deadline
	seq := uint64(1)
	bound := 2*aging + 2
	for round := 1; ; round++ {
		if round > bound {
			t.Fatalf("no-deadline top-class item starved for %d rounds (bound %d)", round, bound)
		}
		// Every arrival carries a deadline, so plain EDF would rank the
		// victim last forever.
		q.Push(int(seq), 1, base.Add(time.Duration(seq)*time.Second), seq)
		seq++
		it, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if it.Job == -1 {
			return
		}
	}
}

func TestNextDeadline(t *testing.T) {
	q := New[int](Config{Classes: 2, AgingRounds: -1})
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("empty queue has no deadline")
	}
	base := time.Unix(1000, 0)
	q.Push(0, 1, time.Time{}, 0)
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("no-deadline items must not report a deadline")
	}
	q.Push(1, 0, base.Add(time.Hour), 1)
	q.Push(2, 1, base.Add(time.Minute), 2)
	if dl, ok := q.NextDeadline(); !ok || !dl.Equal(base.Add(time.Minute)) {
		t.Fatalf("next deadline %v ok=%v, want %v", dl, ok, base.Add(time.Minute))
	}
}

// TestTakeIsASchedulingRound: taking a placed item out of pop order ages
// what it leaves behind exactly as popping it would. Two queues hold the
// same low-class watcher behind a stream of top-class items; one serves
// the stream with Pop, the other with Take of the same item (what a
// backfill placement does). After every step the watcher's effective
// class, the round count and the promotion counters agree — while Remove,
// the steal path, advances nothing.
func TestTakeIsASchedulingRound(t *testing.T) {
	const aging, stream = 2, 7
	build := func() (*Queue[int], *Item[int], []*Item[int]) {
		q := New[int](Config{Classes: 4, AgingRounds: aging})
		items := make([]*Item[int], stream)
		for i := range items {
			items[i] = q.Push(i, 3, time.Time{}, uint64(i))
		}
		watcher := q.Push(-1, 0, time.Time{}, stream)
		return q, watcher, items
	}
	popped, popWatcher, _ := build()
	taken, takeWatcher, takeItems := build()
	removed, removeWatcher, removeItems := build()
	for i := 0; i < stream; i++ {
		if got := pop(t, popped); got != i {
			t.Fatalf("step %d: popped %d, want the stream in order", i, got)
		}
		if !taken.Take(takeItems[i]) {
			t.Fatalf("step %d: Take of a queued item reported false", i)
		}
		if !removed.Remove(removeItems[i]) {
			t.Fatalf("step %d: Remove of a queued item reported false", i)
		}
		if taken.Rounds() != popped.Rounds() || takeWatcher.Bucket() != popWatcher.Bucket() {
			t.Fatalf("step %d: after Take rounds=%d watcher class %d; after Pop rounds=%d watcher class %d",
				i, taken.Rounds(), takeWatcher.Bucket(), popped.Rounds(), popWatcher.Bucket())
		}
		for c, n := range popped.Promotions() {
			if got := taken.Promotions()[c]; got != n {
				t.Fatalf("step %d: %d promotions out of class %d after Take, %d after Pop", i, got, c, n)
			}
		}
		if taken.Len() != popped.Len() {
			t.Fatalf("step %d: %d left after Take, %d after Pop", i, taken.Len(), popped.Len())
		}
	}
	if popWatcher.Bucket() != 3 {
		t.Fatalf("watcher reached class %d after %d rounds at aging %d, want the top class", popWatcher.Bucket(), stream, aging)
	}
	if removed.Rounds() != 0 || removeWatcher.Bucket() != 0 {
		t.Fatalf("Remove advanced aging: rounds=%d watcher class %d", removed.Rounds(), removeWatcher.Bucket())
	}
	if taken.Take(takeItems[0]) {
		t.Fatal("Take of an item no longer queued reported true")
	}
}
