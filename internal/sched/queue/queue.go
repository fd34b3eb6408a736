// Package queue implements the admission-ordering core shared by both
// serving paths of the cluster: a multi-class priority queue with
// earliest-deadline-first ordering within a class, FIFO sequence tickets
// as the final tie-break, and round-based aging so sustained
// high-priority load can never starve admitted low-priority work.
//
// The queue replaces the dispatcher's strict-FIFO channel. Ordering is
// three-level lexicographic:
//
//  1. class — higher classes pop first; an item's *effective* class
//     rises over time (aging): after AgingRounds pops spent waiting, the
//     item is promoted one class, up to the top class. An item that
//     waits a further window at the top is boosted ahead of the class's
//     EDF order (FIFO among boosted items), so neither higher classes
//     nor deadline-carrying arrivals can starve it — starvation is
//     bounded by O((Classes+1) x AgingRounds) scheduling rounds plus the
//     backlog of equally-aged older items.
//  2. deadline — within a class, the item with the earliest deadline
//     pops first (EDF); items without a deadline order after every item
//     that has one.
//  3. sequence — admission order. Sequence tickets are issued by the
//     caller from one counter shared with the session serving path, so
//     "older" is well defined across both paths (see
//     Dispatcher.WaitTurn).
//
// The queue itself is not goroutine-safe; the dispatcher guards it with
// its own mutex.
package queue

import (
	"container/heap"
	"sort"
	"time"
)

// Defaults for Config fields left zero.
const (
	// DefaultClasses is the number of priority classes.
	DefaultClasses = 4
	// DefaultAgingRounds is how many pops an item waits through before
	// being promoted one class.
	DefaultAgingRounds = 32
)

// Config tunes a Queue.
type Config struct {
	// Classes is the number of priority classes (items are clamped to
	// [0, Classes)). <= 0 selects DefaultClasses.
	Classes int
	// AgingRounds is the number of pops an item may wait through before
	// it is promoted one class (starvation bound). 0 selects
	// DefaultAgingRounds; < 0 disables aging.
	AgingRounds int
}

// Item is one queued entry. The queue owns it between Push/Requeue and
// Pop/PopExpired; afterwards the popping caller does (e.g. to Requeue it
// when a higher-class arrival displaces a parked job).
type Item[T any] struct {
	// Job is the caller's payload.
	Job T
	// Class is the item's base priority class (clamped at Push).
	Class int
	// Deadline orders the item within its class (EDF); zero means none.
	Deadline time.Time
	// Seq is the admission sequence ticket (older = smaller).
	Seq uint64

	// bucket is the current effective class (Class plus aging).
	bucket int
	// aged is the round count at enqueue or last promotion; the item is
	// promoted again once rounds-aged exceeds AgingRounds.
	aged uint64
	// boosted marks an item that aged through a full window while
	// already in the top class: it orders before every non-boosted item
	// regardless of deadlines (FIFO among boosted), so a stream of
	// deadline-carrying arrivals cannot starve it — the last rung of the
	// starvation bound.
	boosted bool
	// idx is the heap index within the bucket, -1 while popped.
	idx int
}

// Bucket reports the item's current effective class — its base class
// plus any aging promotions earned while queued.
func (it *Item[T]) Bucket() int { return it.bucket }

// edfLess orders two same-class items: aging-boosted items first (FIFO
// among themselves — they already waited a full window at the top), then
// EDF, with no-deadline items after all deadlines and admission order as
// the final tie-break.
func edfLess[T any](x, y *Item[T]) bool {
	switch {
	case x.boosted != y.boosted:
		return x.boosted
	case x.boosted:
		return x.Seq < y.Seq
	case x.Deadline.IsZero() != y.Deadline.IsZero():
		return !x.Deadline.IsZero()
	case !x.Deadline.IsZero() && !x.Deadline.Equal(y.Deadline):
		return x.Deadline.Before(y.Deadline)
	}
	return x.Seq < y.Seq
}

// bucketHeap orders one class's items by edfLess.
type bucketHeap[T any] []*Item[T]

func (h bucketHeap[T]) Len() int { return len(h) }
func (h bucketHeap[T]) Less(a, b int) bool {
	return edfLess(h[a], h[b])
}
func (h bucketHeap[T]) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx = a
	h[b].idx = b
}
func (h *bucketHeap[T]) Push(x any) {
	it := x.(*Item[T])
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *bucketHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*h = old[:n-1]
	return it
}

// Queue is the multi-class admission queue. Create one with New.
type Queue[T any] struct {
	cfg     Config
	buckets []bucketHeap[T]
	size    int
	// rounds counts pops and takes; aging is measured against it, so
	// starvation bounds are expressed in scheduling rounds, not wall-clock
	// time.
	rounds     uint64
	promotions []uint64 // by source class
	expired    uint64
}

// New builds a queue.
func New[T any](cfg Config) *Queue[T] {
	if cfg.Classes <= 0 {
		cfg.Classes = DefaultClasses
	}
	if cfg.AgingRounds == 0 {
		cfg.AgingRounds = DefaultAgingRounds
	}
	return &Queue[T]{
		cfg:        cfg,
		buckets:    make([]bucketHeap[T], cfg.Classes),
		promotions: make([]uint64, cfg.Classes),
	}
}

// Classes reports the configured number of priority classes.
func (q *Queue[T]) Classes() int { return q.cfg.Classes }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// LenClass reports the number of items currently in the given effective
// class.
func (q *Queue[T]) LenClass(class int) int {
	if class < 0 || class >= q.cfg.Classes {
		return 0
	}
	return len(q.buckets[class])
}

// Rounds reports how many scheduling rounds (Pop, Take) the queue has
// served.
func (q *Queue[T]) Rounds() uint64 { return q.rounds }

// Promotions reports aging promotions by the class the item was promoted
// out of. The returned slice is a copy.
func (q *Queue[T]) Promotions() []uint64 {
	return append([]uint64(nil), q.promotions...)
}

// Expired reports how many items PopExpired removed.
func (q *Queue[T]) Expired() uint64 { return q.expired }

// clamp restricts a class to [0, Classes).
func (q *Queue[T]) clamp(class int) int {
	if class < 0 {
		return 0
	}
	if class >= q.cfg.Classes {
		return q.cfg.Classes - 1
	}
	return class
}

// Push enqueues a job with the given class, deadline and sequence
// ticket, returning the item (the caller keeps it to Requeue after a
// displacement).
func (q *Queue[T]) Push(job T, class int, deadline time.Time, seq uint64) *Item[T] {
	it := &Item[T]{Job: job, Class: q.clamp(class), Deadline: deadline, Seq: seq}
	it.bucket = it.Class
	it.aged = q.rounds
	heap.Push(&q.buckets[it.bucket], it)
	q.size++
	return it
}

// Requeue reinserts a previously popped item, preserving its sequence
// ticket, effective class and aging credit — a parked job displaced by a
// higher-class arrival goes back *ahead* of everything newer in its
// class, it does not rejoin at the tail.
func (q *Queue[T]) Requeue(it *Item[T]) {
	heap.Push(&q.buckets[it.bucket], it)
	q.size++
}

// Pop removes and returns the best item: highest effective class, then
// EDF, then admission order. Each Pop is one scheduling round — it first
// promotes every item that has waited AgingRounds rounds in its current
// class.
func (q *Queue[T]) Pop() (*Item[T], bool) {
	if q.size == 0 {
		return nil, false
	}
	q.round()
	for b := q.cfg.Classes - 1; b >= 0; b-- {
		if len(q.buckets[b]) == 0 {
			continue
		}
		it := heap.Pop(&q.buckets[b]).(*Item[T])
		q.size--
		return it, true
	}
	return nil, false
}

// round counts one scheduling round and promotes items that waited
// AgingRounds rounds in their current class one class up; items that
// wait a further window in the top class are boosted ahead of the
// class's EDF order (see Item.boosted), so deadline-carrying arrivals
// cannot starve them either.
func (q *Queue[T]) round() {
	q.rounds++
	if q.cfg.AgingRounds < 0 {
		return
	}
	step := uint64(q.cfg.AgingRounds)
	top := q.cfg.Classes - 1
	var stale []*Item[T]
	for _, it := range q.buckets[top] {
		if !it.boosted && q.rounds-it.aged >= step {
			stale = append(stale, it)
		}
	}
	for _, it := range stale {
		heap.Remove(&q.buckets[top], it.idx)
		it.boosted = true
		it.aged = q.rounds
		heap.Push(&q.buckets[top], it)
		q.promotions[top]++
	}
	for b := q.cfg.Classes - 2; b >= 0; b-- {
		// Collect first: promoting mutates the heap being scanned.
		var aged []*Item[T]
		for _, it := range q.buckets[b] {
			if q.rounds-it.aged >= step {
				aged = append(aged, it)
			}
		}
		for _, it := range aged {
			heap.Remove(&q.buckets[b], it.idx)
			it.bucket = b + 1
			it.aged = q.rounds
			heap.Push(&q.buckets[b+1], it)
			q.promotions[b]++
		}
	}
}

// PopExpired removes and returns every item whose deadline has passed,
// so the dispatcher can fail them fast with a typed error instead of
// placing work that already missed its SLO.
func (q *Queue[T]) PopExpired(now time.Time) []*Item[T] {
	var out []*Item[T]
	for b := range q.buckets {
		for i := 0; i < len(q.buckets[b]); {
			it := q.buckets[b][i]
			if !it.Deadline.IsZero() && now.After(it.Deadline) {
				heap.Remove(&q.buckets[b], i)
				q.size--
				q.expired++
				out = append(out, it)
				continue // the heap moved another item into slot i
			}
			i++
		}
	}
	return out
}

// BestClass reports the effective class of the item Pop would return
// (false when empty).
func (q *Queue[T]) BestClass() (int, bool) {
	for b := q.cfg.Classes - 1; b >= 0; b-- {
		if len(q.buckets[b]) > 0 {
			return b, true
		}
	}
	return 0, false
}

// Better reports whether the item Pop would return orders strictly
// before the given (popped) item — higher effective class, or same class
// with an earlier deadline (or older ticket). The dispatcher uses it to
// decide whether the job it parked on backpressure should be displaced
// back into the queue in favor of a better-ordered arrival.
func (q *Queue[T]) Better(it *Item[T]) bool {
	for b := q.cfg.Classes - 1; b >= 0; b-- {
		if len(q.buckets[b]) == 0 {
			continue
		}
		if b != it.bucket {
			return b > it.bucket
		}
		return edfLess(q.buckets[b][0], it)
	}
	return false
}

// NextDeadline reports the earliest deadline among queued items (false
// when none carries one). The dispatcher arms a timer on it while
// parked, so queued jobs fail fast on expiry even when no scheduling
// event would otherwise wake the loop.
func (q *Queue[T]) NextDeadline() (time.Time, bool) {
	var best time.Time
	for _, b := range q.buckets {
		for _, it := range b {
			if it.Deadline.IsZero() {
				continue
			}
			if best.IsZero() || it.Deadline.Before(best) {
				best = it.Deadline
			}
		}
	}
	return best, !best.IsZero()
}

// InOrder returns up to max queued items in pop order (best first)
// without removing them. The dispatcher's backfill pass scans it for a
// job that fits capacity the parked head cannot use.
func (q *Queue[T]) InOrder(max int) []*Item[T] {
	var out []*Item[T]
	for b := q.cfg.Classes - 1; b >= 0 && len(out) < max; b-- {
		if len(q.buckets[b]) == 0 {
			continue
		}
		bucket := append([]*Item[T](nil), q.buckets[b]...)
		sort.Slice(bucket, func(i, j int) bool { return edfLess(bucket[i], bucket[j]) })
		for _, it := range bucket {
			if len(out) >= max {
				break
			}
			out = append(out, it)
		}
	}
	return out
}

// Take extracts a specific queued item the caller placed out of pop order
// (a backfill placement), reporting false when the item is no longer
// queued. Like the Pop it stands in for, it is one scheduling round:
// everything left behind ages exactly as if the item had been popped.
func (q *Queue[T]) Take(it *Item[T]) bool {
	if it.idx < 0 {
		return false
	}
	q.round()
	return q.Remove(it)
}

// Remove extracts a specific queued item without a scheduling round (a
// steal: the job leaves for another queue, nothing here was served),
// reporting false when the item is no longer queued.
func (q *Queue[T]) Remove(it *Item[T]) bool {
	if it.idx < 0 {
		return false
	}
	heap.Remove(&q.buckets[it.bucket], it.idx)
	q.size--
	return true
}

// HasOlderAtOrAbove reports whether any queued item is both older than
// the given sequence ticket and of equal-or-higher effective class —
// the condition under which an external (session-path) job holding that
// ticket must wait its turn instead of outrunning queued work.
func (q *Queue[T]) HasOlderAtOrAbove(seq uint64, class int) bool {
	class = q.clamp(class)
	for b := q.cfg.Classes - 1; b >= class; b-- {
		for _, it := range q.buckets[b] {
			if it.Seq < seq {
				return true
			}
		}
	}
	return false
}
