package sim

import "slices"

// Calendar is a serially-reusable resource with gap-filling reservations:
// unlike Resource (FIFO by reservation order), a Calendar keeps the actual
// schedule and places each reservation in the earliest idle gap at or
// after the requested time. Use it where requesters' clocks can run far
// apart — e.g. HBM channels shared by differently-paced tenants — so a
// future-time reservation never blocks an earlier-time one.
//
// Most requests land at or past the end of the schedule (a core's DMA
// bursts arrive in rising time order), so Probe and Commit both look at
// the last interval before they search: a tail reservation is O(1) and,
// once the slice has grown, allocation-free. The rest land a short way
// back from the end (another core's bursts, a few hundred cycles behind),
// so the search gallops back from the tail before it bisects. Reset keeps
// the slice's capacity, so a calendar that is reset between jobs grows
// once.
type Calendar struct {
	busy      []ival // sorted, disjoint, coalesced
	busyTotal Cycles
	grants    uint64
}

type ival struct{ start, end Cycles }

// Probe returns the start of the earliest gap of length dur at or after
// `at`, without reserving it.
func (c *Calendar) Probe(at, dur Cycles) Cycles {
	n := len(c.busy)
	if n == 0 || c.busy[n-1].end <= at {
		return at
	}
	if dur < 0 {
		dur = 0
	}
	start := at
	// Skip intervals ending at or before the requested time, then walk
	// forward until a gap fits. The intervals are disjoint and sorted by
	// start, hence also by end, so the skip is a search for the first
	// interval with end > at: busy[n-1] is one, gallop back from it until
	// one is not, then bisect between the two.
	lo, hi := 0, n-1
	for step := 1; step <= hi; step <<= 1 {
		if c.busy[hi-step].end <= at {
			lo = hi - step + 1
			break
		}
		hi -= step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.busy[mid].end > at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for _, iv := range c.busy[lo:] {
		if iv.start >= start+dur {
			break // the gap before iv fits
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

// Reserve books dur cycles in the earliest gap at or after `at` and
// returns the actual start time.
func (c *Calendar) Reserve(at, dur Cycles) Cycles {
	start := c.Probe(at, dur)
	c.Commit(start, dur)
	return start
}

// Commit books [start, start+dur), where start is what Probe(at, dur)
// returned on this calendar with no reservation made since. It is the
// second half of Reserve, for a caller that probes several calendars and
// books only the winner: the probe is not run again.
func (c *Calendar) Commit(start, dur Cycles) {
	if dur < 0 {
		dur = 0
	}
	c.grants++
	c.busyTotal += dur
	if dur == 0 {
		return
	}
	end := start + dur
	n := len(c.busy)
	if n == 0 || start > c.busy[n-1].end {
		c.busy = append(c.busy, ival{start, end})
		return
	}
	if start == c.busy[n-1].end {
		c.busy[n-1].end = end
		return
	}
	// A gap in the middle of the schedule. idx is the first interval
	// starting after start: the new one goes in front of it, merging with
	// either neighbour it touches. Position n stands for "none"; the search
	// gallops back from it as Probe's does.
	idx, hi := 0, n
	for step := 1; step <= hi; step <<= 1 {
		if c.busy[hi-step].start <= start {
			idx = hi - step + 1
			break
		}
		hi -= step
	}
	for idx < hi {
		mid := int(uint(idx+hi) >> 1)
		if c.busy[mid].start > start {
			hi = mid
		} else {
			idx = mid + 1
		}
	}
	left := idx > 0 && c.busy[idx-1].end == start
	right := idx < n && c.busy[idx].start == end
	switch {
	case left && right:
		c.busy[idx-1].end = c.busy[idx].end
		c.busy = append(c.busy[:idx], c.busy[idx+1:]...)
	case left:
		c.busy[idx-1].end = end
	case right:
		c.busy[idx].start = start
	default:
		c.busy = append(c.busy, ival{})
		copy(c.busy[idx+1:], c.busy[idx:])
		c.busy[idx] = ival{start, end}
	}
}

// AppendTrain books count reservations of dur cycles each, the k-th at
// at + k*stride, provided the schedule's last interval ends at or before
// `at`; otherwise it books nothing and reports false. A stride shorter
// than dur is taken as dur, so the train never overlaps itself. The
// outcome is what count calls of Reserve at those times give — every one
// of them is a tail reservation that starts when asked — in one step:
// the first interval extends the tail if it touches it, the rest are
// appended (or, back to back, all merge into one).
func (c *Calendar) AppendTrain(at, dur, stride Cycles, count int) bool {
	n := len(c.busy)
	if n > 0 && c.busy[n-1].end > at {
		return false
	}
	if count <= 0 {
		return true
	}
	c.grants += uint64(count)
	if dur <= 0 {
		return true
	}
	c.busyTotal += dur * Cycles(count)
	if stride <= dur {
		dur, count = dur*Cycles(count), 1 // back to back: one interval
	}
	if n > 0 && c.busy[n-1].end == at {
		c.busy[n-1].end = at + dur
		at += stride
		count--
	}
	c.busy = slices.Grow(c.busy, count)[:n+count]
	for i := range c.busy[n:] {
		c.busy[n+i] = ival{at, at + dur}
		at += stride
	}
	return true
}

// BusyTotal reports cumulative reserved cycles.
func (c *Calendar) BusyTotal() Cycles { return c.busyTotal }

// Grants reports how many reservations have been made.
func (c *Calendar) Grants() uint64 { return c.grants }

// Spans reports how many disjoint busy intervals the schedule holds
// (diagnostic; coalescing keeps this small for streaming workloads).
func (c *Calendar) Spans() int { return len(c.busy) }

// Reset clears the schedule and the counters. The interval storage is
// kept for the next schedule to grow into.
func (c *Calendar) Reset() {
	c.busy = c.busy[:0]
	c.busyTotal = 0
	c.grants = 0
}
