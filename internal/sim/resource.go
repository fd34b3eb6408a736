package sim

// Resource models a serially-reusable hardware unit (a NoC link, an HBM
// channel, a systolic array): at most one occupant at a time, FIFO order of
// reservation. It uses reservation semantics rather than events so callers
// can compute completion times analytically while still folding the result
// back into an Engine timeline.
type Resource struct {
	busyUntil Cycles
	busyTotal Cycles
	grants    uint64
}

// Reserve books the resource for dur cycles starting no earlier than at.
// It returns the actual start time: max(at, previous occupant's finish).
func (r *Resource) Reserve(at, dur Cycles) (start Cycles) {
	if dur < 0 {
		dur = 0
	}
	start = at
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	r.busyTotal += dur
	r.grants++
	return start
}

// ReserveTrain books k reservations back to back in one step: the first
// as Reserve(at, dur), each next one gap cycles after the one before it
// ends, the k-th lasting last in place of dur. Only the first can wait —
// every later one asks for a time at or after the release the one before
// it left (a negative gap asks for an earlier one and is granted that
// release, as gap 0 is) — so the state after is exactly what k Reserve
// calls leave, and the start returned is the first one's.
func (r *Resource) ReserveTrain(at Cycles, k int, dur, gap, last Cycles) (start Cycles) {
	if k < 1 {
		return at
	}
	if k == 1 {
		return r.Reserve(at, last)
	}
	dur, gap, last = max(dur, 0), max(gap, 0), max(last, 0)
	start = r.Reserve(at, dur)
	r.busyUntil = start + Cycles(k-1)*(dur+gap) + last
	r.busyTotal += Cycles(k-2)*dur + last
	r.grants += uint64(k - 1)
	return start
}

// FreeAt reports when the resource next becomes free.
func (r *Resource) FreeAt() Cycles { return r.busyUntil }

// BusyTotal reports the cumulative cycles the resource has been reserved,
// used for utilization accounting.
func (r *Resource) BusyTotal() Cycles { return r.busyTotal }

// Grants reports how many reservations have been made.
func (r *Resource) Grants() uint64 { return r.grants }

// Reset clears all state so the resource can be reused for a fresh run.
func (r *Resource) Reset() { *r = Resource{} }

// Channels models a pool of identical parallel resources (e.g. HBM
// channels). A reservation is placed on the channel that frees earliest,
// which approximates a fair hardware arbiter.
type Channels struct {
	ch []Resource
}

// NewChannels returns a pool of n parallel channels. n must be >= 1.
func NewChannels(n int) *Channels {
	if n < 1 {
		n = 1
	}
	return &Channels{ch: make([]Resource, n)}
}

// Reserve books dur cycles on the earliest-free channel, starting no
// earlier than at, and returns the actual start time.
func (c *Channels) Reserve(at, dur Cycles) (start Cycles) {
	best := 0
	for i := 1; i < len(c.ch); i++ {
		if c.ch[i].FreeAt() < c.ch[best].FreeAt() {
			best = i
		}
	}
	return c.ch[best].Reserve(at, dur)
}

// Len reports the number of channels in the pool.
func (c *Channels) Len() int { return len(c.ch) }

// BusyTotal sums reserved cycles across all channels.
func (c *Channels) BusyTotal() Cycles {
	var total Cycles
	for i := range c.ch {
		total += c.ch[i].BusyTotal()
	}
	return total
}

// Reset clears all channels.
func (c *Channels) Reset() {
	for i := range c.ch {
		c.ch[i].Reset()
	}
}
