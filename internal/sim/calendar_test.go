package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCalendarBasicReserve(t *testing.T) {
	var c Calendar
	if s := c.Reserve(0, 10); s != 0 {
		t.Fatalf("first reserve = %v", s)
	}
	if s := c.Reserve(0, 10); s != 10 {
		t.Fatalf("second reserve = %v, want 10 (queued)", s)
	}
	if s := c.Reserve(25, 5); s != 25 {
		t.Fatalf("future reserve = %v, want 25", s)
	}
	if c.BusyTotal() != 25 || c.Grants() != 3 {
		t.Fatalf("totals: %v busy, %v grants", c.BusyTotal(), c.Grants())
	}
}

func TestCalendarBackfillsGaps(t *testing.T) {
	var c Calendar
	c.Reserve(100, 50) // a future tenant books [100,150)
	// An earlier-time request must use the idle gap before it, not queue
	// behind it — the property Resource lacks.
	if s := c.Reserve(0, 30); s != 0 {
		t.Fatalf("backfill start = %v, want 0", s)
	}
	// A request too big for the remaining gap goes after the booking.
	if s := c.Reserve(40, 80); s != 150 {
		t.Fatalf("oversized gap request = %v, want 150", s)
	}
}

func TestCalendarCoalesces(t *testing.T) {
	var c Calendar
	c.Reserve(0, 10)
	c.Reserve(10, 10)
	c.Reserve(20, 10)
	if c.Spans() != 1 {
		t.Fatalf("adjacent reservations must coalesce: %d spans", c.Spans())
	}
	c.Reserve(100, 10)
	if c.Spans() != 2 {
		t.Fatalf("spans = %d, want 2", c.Spans())
	}
	// Filling the hole merges everything.
	c.Reserve(30, 70)
	if c.Spans() != 1 {
		t.Fatalf("hole fill must coalesce to 1, got %d", c.Spans())
	}
}

func TestCalendarProbeDoesNotCommit(t *testing.T) {
	var c Calendar
	c.Reserve(0, 10)
	if p := c.Probe(0, 5); p != 10 {
		t.Fatalf("probe = %v, want 10", p)
	}
	if c.Grants() != 1 {
		t.Fatal("probe must not reserve")
	}
	c.Reset()
	if c.Spans() != 0 || c.BusyTotal() != 0 {
		t.Fatal("reset must clear")
	}
}

// Property: reservations never overlap, regardless of request order.
func TestCalendarNoOverlapProperty(t *testing.T) {
	type req struct{ at, dur Cycles }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Calendar
		var placed []req
		for i := 0; i < 120; i++ {
			at := Cycles(rng.Intn(2000))
			dur := Cycles(1 + rng.Intn(40))
			start := c.Reserve(at, dur)
			if start < at {
				return false
			}
			for _, p := range placed {
				if start < p.at+p.dur && p.at < start+dur {
					return false // overlap
				}
			}
			placed = append(placed, req{start, dur})
		}
		// Conservation: busyTotal equals the sum of durations.
		var sum Cycles
		for _, p := range placed {
			sum += p.dur
		}
		return c.BusyTotal() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a calendar never schedules a request later than a FIFO
// resource would (gap-filling only helps).
func TestCalendarNoWorseThanResourceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Calendar
		var r Resource
		for i := 0; i < 80; i++ {
			at := Cycles(rng.Intn(1000))
			dur := Cycles(1 + rng.Intn(30))
			if c.Reserve(at, dur) > r.Reserve(at, dur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// refCalendar is the straightforward implementation Calendar replaced:
// search with sort.Search, insert, then coalesce; Reserve re-probes. The
// differential and fuzz tests below hold Calendar to it.
type refCalendar struct {
	busy      []ival
	busyTotal Cycles
	grants    uint64
}

func (c *refCalendar) Probe(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	start := at
	i := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > start })
	for ; i < len(c.busy); i++ {
		iv := c.busy[i]
		if iv.start >= start+dur {
			break
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

func (c *refCalendar) Reserve(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	start := c.Probe(at, dur)
	c.grants++
	c.busyTotal += dur
	if dur == 0 {
		return start
	}
	idx := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].start > start })
	c.busy = append(c.busy, ival{})
	copy(c.busy[idx+1:], c.busy[idx:])
	c.busy[idx] = ival{start: start, end: start + dur}
	if idx > 0 && c.busy[idx-1].end == c.busy[idx].start {
		c.busy[idx-1].end = c.busy[idx].end
		c.busy = append(c.busy[:idx], c.busy[idx+1:]...)
		idx--
	}
	if idx+1 < len(c.busy) && c.busy[idx].end == c.busy[idx+1].start {
		c.busy[idx].end = c.busy[idx+1].end
		c.busy = append(c.busy[:idx+1], c.busy[idx+2:]...)
	}
	return start
}

func (c *refCalendar) Reset() { *c = refCalendar{} }

// calPair drives a Calendar and the reference through the same operations
// and compares everything observable after each one.
type calPair struct {
	t   testing.TB
	cal Calendar
	ref refCalendar
	ops int
}

func (p *calPair) probe(at, dur Cycles) {
	p.t.Helper()
	p.ops++
	if got, want := p.cal.Probe(at, dur), p.ref.Probe(at, dur); got != want {
		p.t.Fatalf("op %d: Probe(%d, %d) = %d, reference %d", p.ops, at, dur, got, want)
	}
	p.check()
}

func (p *calPair) reserve(at, dur Cycles) {
	p.t.Helper()
	p.ops++
	if got, want := p.cal.Reserve(at, dur), p.ref.Reserve(at, dur); got != want {
		p.t.Fatalf("op %d: Reserve(%d, %d) = %d, reference %d", p.ops, at, dur, got, want)
	}
	p.check()
}

// commit books the way mem.Port.Transfer does: probe, then commit the
// probed start.
func (p *calPair) commit(at, dur Cycles) {
	p.t.Helper()
	p.ops++
	start := p.cal.Probe(at, dur)
	p.cal.Commit(start, dur)
	if want := p.ref.Reserve(at, dur); start != want {
		p.t.Fatalf("op %d: Probe+Commit(%d, %d) = %d, reference %d", p.ops, at, dur, start, want)
	}
	p.check()
}

// train appends a burst train the way mem.Port.TransferTrain does. The
// reference is count reservations, the k-th at at + k*stride with a stride
// below dur read as dur; a train the schedule's tail is in the way of must
// be refused and leave everything as it was.
func (p *calPair) train(at, dur, stride Cycles, count int) {
	p.t.Helper()
	p.ops++
	tailClear := len(p.ref.busy) == 0 || p.ref.busy[len(p.ref.busy)-1].end <= at
	if got := p.cal.AppendTrain(at, dur, stride, count); got != tailClear {
		p.t.Fatalf("op %d: AppendTrain(%d, %d, %d, %d) = %v with the reference's tail clear of it: %v",
			p.ops, at, dur, stride, count, got, tailClear)
	}
	if tailClear {
		if stride < dur {
			stride = dur
		}
		for k := 0; k < count; k++ {
			// An empty reservation only counts; where it lands says nothing.
			want := at + Cycles(k)*stride
			if got := p.ref.Reserve(want, dur); got != want && dur > 0 {
				p.t.Fatalf("op %d: burst %d of the train asks for %d, the reference starts it at %d", p.ops, k, want, got)
			}
		}
	}
	p.check()
}

func (p *calPair) reset() {
	p.t.Helper()
	p.ops++
	p.cal.Reset()
	p.ref.Reset()
	p.check()
}

// check compares the two schedules and asserts the invariants on the
// shipping one: sorted, disjoint, coalesced, sum(end-start)==BusyTotal.
func (p *calPair) check() {
	p.t.Helper()
	c, r := &p.cal, &p.ref
	if c.BusyTotal() != r.busyTotal || c.Grants() != r.grants || c.Spans() != len(r.busy) {
		p.t.Fatalf("op %d: busy/grants/spans = %d/%d/%d, reference %d/%d/%d",
			p.ops, c.BusyTotal(), c.Grants(), c.Spans(), r.busyTotal, r.grants, len(r.busy))
	}
	var sum Cycles
	for i, iv := range c.busy {
		if iv != r.busy[i] {
			p.t.Fatalf("op %d: interval %d = %v, reference %v", p.ops, i, iv, r.busy[i])
		}
		if iv.end <= iv.start {
			p.t.Fatalf("op %d: interval %d = %v is empty", p.ops, i, iv)
		}
		if i > 0 && c.busy[i-1].end >= iv.start {
			p.t.Fatalf("op %d: intervals %v, %v overlap, touch or are out of order", p.ops, c.busy[i-1], iv)
		}
		sum += iv.end - iv.start
	}
	if sum != c.BusyTotal() {
		p.t.Fatalf("op %d: intervals cover %d cycles, BusyTotal %d", p.ops, sum, c.BusyTotal())
	}
}

// TestCalendarBranchesMatchReference forces one reservation through each
// branch of Commit and Probe, by both entries, and checks the outcome
// against the reference.
func TestCalendarBranchesMatchReference(t *testing.T) {
	for _, entry := range []string{"reserve", "commit"} {
		t.Run(entry, func(t *testing.T) {
			p := &calPair{t: t}
			book := p.reserve
			if entry == "commit" {
				book = p.commit
			}
			spans := func(want int) {
				t.Helper()
				if p.cal.Spans() != want {
					t.Fatalf("op %d: %d spans, want %d", p.ops, p.cal.Spans(), want)
				}
			}
			book(100, 10) // tail append on an empty schedule: [100,110)
			book(200, 10) // tail append past the end: [200,210)
			spans(2)
			book(210, 5) // tail extend: [200,215)
			book(205, 5) // queued behind the tail, extends it: [200,220)
			spans(2)
			book(150, 10) // mid insert, touching neither neighbour
			spans(3)
			book(110, 10) // coalesce left: [100,120)
			spans(3)
			book(140, 10) // coalesce right: [140,160)
			spans(3)
			book(120, 20) // coalesce both: [100,160)
			spans(2)
			book(0, 100) // coalesce right at index 0: [0,160)
			book(0, 40)  // walks [0,160), fills the gap exactly: [0,220)
			spans(1)
			book(50, 0)    // dur == 0 inside an interval: pushed to its end, nothing stored
			book(300, 0)   // dur == 0 past the end
			book(10, -7)   // dur < 0 counts as 0
			book(400, 10)  // [400,410)
			book(230, 200) // too long for the gap [220,400): goes after the tail
			spans(2)
			p.probe(0, 1)
			p.probe(220, 180) // fits the gap exactly
			p.probe(220, 181)
			p.probe(610, 5) // at the tail's end
			p.probe(50, 0)
			p.probe(50, -1)

			// Trains: the tail is [400,610).
			p.train(609, 8, 20, 3) // tail in the way: refused
			p.train(610, 8, 20, 3) // touches the tail: extends it, appends two
			spans(4)
			p.train(700, 8, 20, 1) // past the tail
			p.train(800, 8, 8, 5)  // back to back: one interval
			p.train(840, 8, 3, 5)  // stride < dur reads as dur, touching the tail
			spans(6)
			p.train(900, 0, 20, 4)  // dur == 0: grants only
			p.train(900, -3, -9, 4) // dur < 0 counts as 0
			p.train(900, 8, 20, 0)  // nothing to book
			p.train(900, 8, 20, -2)
			spans(6)
			book(640, 4) // a mid insert between a train's intervals
			spans(7)

			// Reuse after Reset: empty again, on the old storage.
			grown := cap(p.cal.busy)
			p.reset()
			if cap(p.cal.busy) != grown {
				t.Fatalf("Reset dropped the interval storage: cap %d, was %d", cap(p.cal.busy), grown)
			}
			p.probe(0, 10)
			p.train(5, 4, 6, 3) // on an empty schedule
			spans(3)
			book(0, 5)
			book(0, 4)
			spans(3)
		})
	}
}

// calOp decodes one operation of a random or fuzzed sequence. Times stay
// in a window that slides forward slowly, as cores at different cycle
// counts issue bursts: most requests land near the end of the schedule,
// some in the middle of it.
func (p *calPair) calOp(kind byte, a, b uint16, base *Cycles) {
	p.t.Helper()
	at := *base + Cycles(a%512)
	dur := Cycles(b%24) - 2 // -2..21: zero and negative durations included
	switch kind % 16 {
	case 0:
		p.reset()
		*base = 0
	case 1, 2, 3:
		p.probe(at, dur)
	case 4, 5, 6, 7, 8:
		p.reserve(at, dur)
	case 9:
		p.reserve(Cycles(a), dur) // anywhere in the first 65536 cycles
	case 10, 11:
		// A train at, just past or (one time in four) inside the tail,
		// with a stride around dur and up to 34 bursts.
		tail := Cycles(0)
		if n := len(p.ref.busy); n > 0 {
			tail = p.ref.busy[n-1].end
		}
		p.train(tail+Cycles(a%4)-1, dur, dur+Cycles(a>>2%8)-2, int(b>>5%36)-1)
		*base = tail
	default:
		p.commit(at, dur)
	}
	*base += Cycles(b % 7)
}

func TestCalendarMatchesReferenceRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &calPair{t: t}
		var base Cycles
		for i := 0; i < 600; i++ {
			kind := byte(rng.Intn(256))
			if kind%16 == 0 && rng.Intn(8) != 0 {
				kind = 4 // keep resets rare enough for schedules to build up
			}
			p.calOp(kind, uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), &base)
		}
	}
}

// FuzzCalendar reads the input as a stream of 5-byte operations and holds
// Calendar to the reference and to its invariants after every one.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 10, 4, 0, 0, 0, 10, 10, 0, 200, 0, 5, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 4, 0, 5, 0, 9})
	f.Add([]byte{9, 1, 0, 0, 12, 9, 0, 0, 0, 12, 9, 0, 128, 0, 14, 12, 0, 140, 0, 12, 4, 0, 0, 0, 2, 4, 0, 0, 0, 1})
	f.Add([]byte{4, 0, 0, 0, 10, 10, 0, 1, 1, 10, 10, 0, 18, 2, 33, 12, 0, 3, 0, 7, 11, 0, 0, 3, 200, 0, 0, 0, 0, 0, 10, 0, 2, 0, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 5*2000 {
			data = data[:5*2000]
		}
		p := &calPair{t: t}
		var base Cycles
		for ; len(data) >= 5; data = data[5:] {
			a := uint16(data[1])<<8 | uint16(data[2])
			b := uint16(data[3])<<8 | uint16(data[4])
			p.calOp(data[0], a, b, &base)
		}
	})
}
