package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("Run() on empty engine = %v, want 0", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same time as first: FIFO
	end := e.Run()
	if end != 10 {
		t.Fatalf("Run() = %v, want 10", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(7, func() {
		e.Schedule(-100, func() {
			if e.Now() != 7 {
				t.Errorf("negative delay fired at %v, want 7", e.Now())
			}
		})
	})
	e.Run()
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Cycles
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(4, func() { hits = append(hits, e.Now()) })
	})
	e.Schedule(3, func() { hits = append(hits, e.Now()) })
	e.Run()
	want := []Cycles{1, 3, 5}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestAtPastRunsNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past At fired at %v, want 10", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Schedule(15, func() { fired++ })
	now := e.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if now != 10 {
		t.Fatalf("RunUntil = %v, want 10", now)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Halt() })
	e.Schedule(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (halted)", fired)
	}
	e.Run() // resume
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestCyclesString(t *testing.T) {
	if got := Cycles(42).String(); got != "42 clk" {
		t.Fatalf("String() = %q", got)
	}
}

func TestResourceSerialization(t *testing.T) {
	var r Resource
	s1 := r.Reserve(0, 10)
	s2 := r.Reserve(0, 10)
	s3 := r.Reserve(25, 5)
	if s1 != 0 || s2 != 10 || s3 != 25 {
		t.Fatalf("starts = %v,%v,%v; want 0,10,25", s1, s2, s3)
	}
	if r.FreeAt() != 30 {
		t.Fatalf("FreeAt = %v, want 30", r.FreeAt())
	}
	if r.BusyTotal() != 25 {
		t.Fatalf("BusyTotal = %v, want 25", r.BusyTotal())
	}
	if r.Grants() != 3 {
		t.Fatalf("Grants = %v, want 3", r.Grants())
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	var r Resource
	s := r.Reserve(5, -3)
	if s != 5 || r.FreeAt() != 5 {
		t.Fatalf("negative duration: start=%v free=%v, want 5,5", s, r.FreeAt())
	}
}

func TestChannelsSpreadLoad(t *testing.T) {
	c := NewChannels(2)
	s1 := c.Reserve(0, 10)
	s2 := c.Reserve(0, 10) // second channel, starts immediately
	s3 := c.Reserve(0, 10) // back to first channel, queued
	if s1 != 0 || s2 != 0 || s3 != 10 {
		t.Fatalf("starts = %v,%v,%v; want 0,0,10", s1, s2, s3)
	}
	if c.BusyTotal() != 30 {
		t.Fatalf("BusyTotal = %v, want 30", c.BusyTotal())
	}
}

func TestChannelsMinimumOne(t *testing.T) {
	c := NewChannels(0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want clamp to 1", c.Len())
	}
}

func TestChannelsReset(t *testing.T) {
	c := NewChannels(3)
	c.Reserve(0, 100)
	c.Reset()
	if c.BusyTotal() != 0 {
		t.Fatalf("BusyTotal after Reset = %v, want 0", c.BusyTotal())
	}
}

// Property: a resource never overlaps reservations — each grant starts at or
// after the previous grant's end when requests arrive in order.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		var r Resource
		var prevEnd Cycles
		for _, d := range durs {
			start := r.Reserve(0, Cycles(d))
			if start < prevEnd {
				return false
			}
			prevEnd = start + Cycles(d)
		}
		return r.FreeAt() == prevEnd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a train leaves the resource exactly where the k Reserve
// calls it stands for leave it, whatever was booked before it and
// whatever the signs of its durations and gap.
func TestReserveTrainEqualsReserves(t *testing.T) {
	f := func(busy uint8, at uint8, k uint8, dur, gap, last int8) bool {
		var train, loop Resource
		train.Reserve(0, Cycles(busy))
		loop.Reserve(0, Cycles(busy))
		n := int(k % 6)
		got := train.ReserveTrain(Cycles(at), n, Cycles(dur), Cycles(gap), Cycles(last))
		want, next := Cycles(at), Cycles(at)
		for j := 0; j < n; j++ {
			d := Cycles(dur)
			if j == n-1 {
				d = Cycles(last)
			}
			start := loop.Reserve(next, d)
			if j == 0 {
				want = start
			}
			next = start + max(d, 0) + Cycles(gap)
		}
		return got == want && train == loop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: engine executes events in nondecreasing time order regardless of
// scheduling order.
func TestEngineMonotonicTimeProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Cycles = -1
		ok := true
		for _, d := range delays {
			e.Schedule(Cycles(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
