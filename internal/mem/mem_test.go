package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/sim"
)

func TestHBMPortBandwidth(t *testing.T) {
	h := NewHBM(2, 16, 10)
	p, err := h.Port()
	if err != nil {
		t.Fatal(err)
	}
	// 1600 bytes at 16 B/cycle = 100 cycles + 10 latency.
	done := p.Transfer(0, 1600)
	if done != 110 {
		t.Fatalf("done = %v, want 110", done)
	}
	if p.BytesMoved() != 1600 {
		t.Fatalf("BytesMoved = %d", p.BytesMoved())
	}
}

func TestHBMChannelsParallel(t *testing.T) {
	h := NewHBM(2, 16, 0)
	p, _ := h.Port()
	d1 := p.Transfer(0, 160) // channel 0: 0..10
	d2 := p.Transfer(0, 160) // channel 1: 0..10
	d3 := p.Transfer(0, 160) // back to channel 0: 10..20
	if d1 != 10 || d2 != 10 || d3 != 20 {
		t.Fatalf("done = %v,%v,%v; want 10,10,20", d1, d2, d3)
	}
}

func TestHBMPortSubset(t *testing.T) {
	h := NewHBM(4, 16, 0)
	p1, err := h.Port(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := h.Port(1, 2, 3)
	if p1.NumChannels() != 1 || p2.NumChannels() != 3 {
		t.Fatalf("channels = %d,%d", p1.NumChannels(), p2.NumChannels())
	}
	if p1.Bandwidth() != 16 || p2.Bandwidth() != 48 {
		t.Fatalf("bandwidth = %d,%d", p1.Bandwidth(), p2.Bandwidth())
	}
	// Ports on disjoint channels do not contend.
	d1 := p1.Transfer(0, 160)
	d2 := p1.Transfer(0, 160)
	d3 := p2.Transfer(0, 160)
	if d1 != 10 || d2 != 20 || d3 != 10 {
		t.Fatalf("done = %v,%v,%v", d1, d2, d3)
	}
}

func TestHBMPortContention(t *testing.T) {
	h := NewHBM(1, 16, 0)
	a, _ := h.Port()
	b, _ := h.Port()
	d1 := a.Transfer(0, 160)
	d2 := b.Transfer(0, 160) // same channel: serialized
	if d1 != 10 || d2 != 20 {
		t.Fatalf("done = %v,%v; want 10,20", d1, d2)
	}
}

func TestHBMPortRangeError(t *testing.T) {
	h := NewHBM(2, 16, 0)
	if _, err := h.Port(5); err == nil {
		t.Fatal("expected out-of-range channel error")
	}
}

func TestAccessCounterPacesToRate(t *testing.T) {
	var a AccessCounter
	a.MaxBytes = 1000 // 10 bytes/cycle average
	a.Window = 100
	if got := a.Admit(0, 600); got != 0 {
		t.Fatalf("first admit = %v, want 0 (bucket starts full)", got)
	}
	// 400 tokens remain; at t=10 the bucket has 400+100=500 of the 600
	// needed: wait ceil(100/10) = 10 more cycles.
	if got := a.Admit(10, 600); got != 20 {
		t.Fatalf("paced admit = %v, want 20", got)
	}
	if a.Delayed() != 1 {
		t.Fatalf("Delayed = %d, want 1", a.Delayed())
	}
	// After a long idle period the bucket refills (but never above max).
	if got := a.Admit(1000, 600); got != 1000 {
		t.Fatalf("post-idle admit = %v, want 1000", got)
	}
}

func TestAccessCounterOversizeRequest(t *testing.T) {
	var a AccessCounter
	a.MaxBytes = 100
	a.Window = 50
	// A request larger than the bucket is admitted once the bucket is
	// full (immediately here) and leaves a debt.
	if got := a.Admit(0, 500); got != 0 {
		t.Fatalf("oversize admit = %v, want 0", got)
	}
	// The debt (400 bytes = 200 cycles at 2 B/cycle) delays the next
	// request: it needs the bucket back to 100 tokens, i.e. 500 bytes of
	// refill = 250 cycles.
	if got := a.Admit(0, 100); got != 250 {
		t.Fatalf("post-debt admit = %v, want 250", got)
	}
}

func TestAccessCounterSmoothNoBursts(t *testing.T) {
	// A saturating stream of 512-byte requests at 1/4 the channel rate
	// must be paced evenly, not released in window bursts: consecutive
	// admissions are >= size/rate apart once the initial burst drains.
	var a AccessCounter
	a.MaxBytes = 4 * 65536 // 4 B/cycle
	a.Window = 65536
	var prev sim.Cycles
	for i := 0; i < 1000; i++ {
		at := a.Admit(prev, 512)
		if i > 600 { // well past the initial bucket
			if gap := at - prev; gap < 128 {
				t.Fatalf("request %d admitted %v after previous, want >= 128 (paced)", i, gap)
			}
		}
		prev = at
	}
}

func TestPortBandwidthCap(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	p.SetBandwidthCap(160, 100) // 1.6 B/cycle average
	d1 := p.Transfer(0, 160)    // fills window 0
	d2 := p.Transfer(d1, 160)   // pushed to window 1
	if d1 != 10 {
		t.Fatalf("d1 = %v, want 10", d1)
	}
	if d2 != 110 {
		t.Fatalf("d2 = %v, want 110 (throttled to next window)", d2)
	}
	p.SetBandwidthCap(0, 0) // remove cap
	d3 := p.Transfer(d2, 160)
	if d3 != d2+10 {
		t.Fatalf("d3 = %v, want %v", d3, d2+10)
	}
}

func TestIdentityTranslator(t *testing.T) {
	var id Identity
	pa, stall, err := id.Translate(0xdead)
	if err != nil || pa != 0xdead || stall != 0 {
		t.Fatalf("identity: %v %v %v", pa, stall, err)
	}
	if id.Stats().HitRate() != 1 {
		t.Fatalf("hit rate = %v", id.Stats().HitRate())
	}
}

func TestPageTableMapAndAlignment(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1000, 0x8000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if pt.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", pt.NumPages())
	}
	if err := pt.Map(0x1001, 0x8000, PageSize, PermRW); err == nil {
		t.Fatal("expected alignment error")
	}
}

// TestPageTableExtents: the table stores one extent per Map and must
// still behave as a page map — a partial last page is mapped whole, a page
// resolves through whichever extent holds it whatever order they were
// mapped in, and mapping a page twice is an error that changes nothing.
func TestPageTableExtents(t *testing.T) {
	pt := NewPageTable()
	for _, m := range []struct{ va, pa, size uint64 }{
		{0x20000, 0x900000, 3*PageSize + 1}, // four pages
		{0x10000, 0x500000, 2 * PageSize},   // mapped second, sorts first
		{0x12000, 0x700000, PageSize},       // touches the one before it
		{0x40000, 0x100000, 0},              // nothing
	} {
		if err := pt.Map(m.va, m.pa, m.size, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if pt.NumPages() != 7 {
		t.Fatalf("NumPages = %d, want 7", pt.NumPages())
	}
	for _, c := range []struct {
		va, pa uint64
		ok     bool
	}{
		{0xf000, 0, false},
		{0x10000, 0x500000, true},
		{0x11000, 0x501000, true},
		{0x12000, 0x700000, true},
		{0x13000, 0, false},
		{0x1f000, 0, false},
		{0x20000, 0x900000, true},
		{0x23000, 0x903000, true}, // the partial last page
		{0x24000, 0, false},
		{0x40000, 0, false},
	} {
		pa, perm, ok := pt.lookup(c.va)
		if ok != c.ok || pa != c.pa || (ok && perm != PermRW) {
			t.Fatalf("lookup(%#x) = %#x, %v, %v; want %#x, %v", c.va, pa, perm, ok, c.pa, c.ok)
		}
	}
	for _, m := range []struct{ va, size uint64 }{
		{0x10000, PageSize},     // the first page of an extent
		{0x11000, PageSize},     // its last
		{0xf000, 2 * PageSize},  // runs into the extent after it
		{0x23000, 1},            // the page a partial mapping rounded up to
		{0x1f000, 8 * PageSize}, // swallows an extent whole
	} {
		if err := pt.Map(m.va, 0xa00000, m.size, PermRead); err == nil {
			t.Fatalf("Map(%#x, %#x) over mapped pages: expected an error", m.va, m.size)
		}
	}
	if pt.NumPages() != 7 {
		t.Fatalf("NumPages = %d after refused mappings, want 7", pt.NumPages())
	}
	if pa, perm, ok := pt.lookup(0x10000); !ok || pa != 0x500000 || perm != PermRW {
		t.Fatalf("lookup(0x10000) = %#x, %v, %v after refused mappings", pa, perm, ok)
	}
}

func TestPageTranslatorHitMiss(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x10000, 0x90000, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	tr := NewPageTranslator(pt, 4)
	pa, stall, err := tr.Translate(0x10010)
	if err != nil || pa != 0x90010 {
		t.Fatalf("translate: pa=%#x err=%v", pa, err)
	}
	if stall == 0 {
		t.Fatal("first access must miss")
	}
	_, stall2, _ := tr.Translate(0x10020) // same page: hit
	if stall2 != 0 {
		t.Fatalf("hit stall = %v, want 0", stall2)
	}
	s := tr.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPageTranslatorUnmapped(t *testing.T) {
	tr := NewPageTranslator(NewPageTable(), 4)
	if _, _, err := tr.Translate(0x1234); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestPageTranslatorLRUEviction(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0, 0x100000, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	tr := NewPageTranslator(pt, 2)
	tr.Translate(0 * PageSize)
	tr.Translate(1 * PageSize)
	tr.Translate(2 * PageSize) // evicts page 0
	if _, stall, _ := tr.Translate(0 * PageSize); stall == 0 {
		t.Fatal("page 0 should have been evicted (miss expected)")
	}
	if _, stall, _ := tr.Translate(2 * PageSize); stall != 0 {
		t.Fatal("page 2 should still be resident")
	}
}

func TestPageTranslatorPrefetchHeadroom(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0, 0x100000, 16*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	small := NewPageTranslator(pt, 4)  // no headroom vs 4 streams
	large := NewPageTranslator(pt, 32) // headroom: overlapped walks
	_, s1, _ := small.Translate(0)
	_, s2, _ := large.Translate(0)
	if s2 >= s1 {
		t.Fatalf("headroom TLB stall %v must be < small TLB stall %v", s2, s1)
	}
}

func TestRTTRejectsOverlap(t *testing.T) {
	_, err := NewRTT([]RTTEntry{
		{VA: 0x1000, PA: 0x2000, Size: 0x1000, Perm: PermRW},
		{VA: 0x1800, PA: 0x9000, Size: 0x1000, Perm: PermRW},
	})
	if err == nil {
		t.Fatal("expected overlap error")
	}
	_, err = NewRTT([]RTTEntry{{VA: 0x1000, Size: 0, Perm: PermRW}})
	if err == nil {
		t.Fatal("expected empty-range error")
	}
}

func TestRTTLookupMonotonicPattern(t *testing.T) {
	rtt, err := NewRTT([]RTTEntry{
		{VA: 0x1000, PA: 0xa000, Size: 0x1000, Perm: PermRW},
		{VA: 0x2000, PA: 0xb000, Size: 0x1000, Perm: PermRead},
		{VA: 0x3000, PA: 0xc000, Size: 0x1000, Perm: PermRead},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Monotonic walk: each step beyond the current entry costs few probes.
	idx, probes, found := rtt.lookup(0x1008)
	if !found || idx != 0 || probes != 1 {
		t.Fatalf("step1: idx=%d probes=%d found=%v", idx, probes, found)
	}
	idx, probes, found = rtt.lookup(0x2008)
	if !found || idx != 1 {
		t.Fatalf("step2: idx=%d found=%v", idx, found)
	}
	if probes > 2 {
		t.Fatalf("monotonic next entry took %d probes, want <= 2", probes)
	}
	idx, _, found = rtt.lookup(0x3008)
	if !found || idx != 2 {
		t.Fatalf("step3: idx=%d", idx)
	}
}

func TestRTTLastVIterationRestart(t *testing.T) {
	// Five ranges, but the loop only touches the first three (the trailing
	// ranges belong to other tensors of the same core). Restarting the
	// iteration from entry 2 must scan past entries 3 and 4 the first
	// time; last_v short-circuits that on later iterations (Pattern-3).
	rtt, err := NewRTT([]RTTEntry{
		{VA: 0x1000, PA: 0xa000, Size: 0x1000},
		{VA: 0x2000, PA: 0xb000, Size: 0x1000},
		{VA: 0x3000, PA: 0xc000, Size: 0x1000},
		{VA: 0x8000, PA: 0xd000, Size: 0x1000},
		{VA: 0x9000, PA: 0xe000, Size: 0x1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 1: touch entries 0,1,2.
	rtt.lookup(0x1000)
	rtt.lookup(0x2000)
	rtt.lookup(0x3000)
	// Iteration 2 restart: circular scan 3 -> 4 -> 0 (4 probes), teaches
	// entry 2's last_v.
	_, probesFirstWrap, found := rtt.lookup(0x1000)
	if !found || probesFirstWrap != 4 {
		t.Fatalf("first wrap probes = %d, want 4", probesFirstWrap)
	}
	rtt.lookup(0x2000)
	rtt.lookup(0x3000)
	// Iteration 3 restart: last_v of entry 2 now points at entry 0.
	_, probesSecondWrap, _ := rtt.lookup(0x1000)
	if probesSecondWrap != 2 {
		t.Fatalf("last_v restart took %d probes, want 2", probesSecondWrap)
	}
}

func TestRangeTranslatorHitAfterMiss(t *testing.T) {
	rtt, _ := NewRTT([]RTTEntry{
		{VA: 0x1000, PA: 0xa000, Size: 0x2000, Perm: PermRW},
	})
	tr := NewRangeTranslator(rtt)
	pa, stall, err := tr.Translate(0x1800)
	if err != nil || pa != 0xa800 {
		t.Fatalf("pa=%#x err=%v", pa, err)
	}
	if stall == 0 {
		t.Fatal("first translate must miss")
	}
	pa2, stall2, _ := tr.Translate(0x2000)
	if pa2 != 0xb000 || stall2 != 0 {
		t.Fatalf("second translate pa=%#x stall=%v, want hit", pa2, stall2)
	}
	s := tr.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRangeTranslatorUnmapped(t *testing.T) {
	rtt, _ := NewRTT([]RTTEntry{{VA: 0x1000, PA: 0xa000, Size: 0x1000}})
	tr := NewRangeTranslator(rtt)
	if _, _, err := tr.Translate(0x9999999); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestRangeTranslatorBeatsPageOnStreaming(t *testing.T) {
	// A 1 MiB tensor streamed burst by burst: vChunk should charge far
	// less stall than a 4-entry page TLB — the core claim of Fig 14.
	const tensor = 1 << 20
	pt := NewPageTable()
	if err := pt.Map(0, 1<<30, tensor, PermRead); err != nil {
		t.Fatal(err)
	}
	pageTr := NewPageTranslator(pt, 4)
	rtt, _ := NewRTT([]RTTEntry{{VA: 0, PA: 1 << 30, Size: tensor, Perm: PermRead}})
	rangeTr := NewRangeTranslator(rtt)

	var pageStall, rangeStall sim.Cycles
	for off := 0; off < tensor; off += DefaultBurstBytes {
		_, s1, err1 := pageTr.Translate(uint64(off))
		_, s2, err2 := rangeTr.Translate(uint64(off))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		pageStall += s1
		rangeStall += s2
	}
	if rangeStall*10 >= pageStall {
		t.Fatalf("range stall %v should be <10%% of page stall %v", rangeStall, pageStall)
	}
}

func TestDMAEngineTransfer(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	var id Identity
	d := NewDMAEngine(p, &id)
	done, err := d.Transfer(0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if done != 64 { // 1024/16
		t.Fatalf("done = %v, want 64", done)
	}
	s := d.Stats()
	if s.Transfers != 1 || s.Bytes != 1024 || s.Bursts != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDMAEngineStallsSerializeWithBursts(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	pt := NewPageTable()
	if err := pt.Map(0, 0x100000, 8*PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	tr := NewPageTranslator(pt, 4)
	d := NewDMAEngine(p, tr)
	done, err := d.Transfer(0, 0, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ideal := sim.Cycles(2 * PageSize / 16)
	if done <= ideal {
		t.Fatalf("done = %v must exceed ideal %v due to walks", done, ideal)
	}
	if d.Stats().StallCycles == 0 {
		t.Fatal("expected translation stalls")
	}
}

func TestDMAEngineTraceCallback(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	var id Identity
	d := NewDMAEngine(p, &id)
	var addrs []uint64
	d.Trace = func(va uint64, at sim.Cycles) { addrs = append(addrs, va) }
	if _, err := d.Transfer(0, 0x4000, 1024); err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != 0x4000 || addrs[1] != 0x4200 {
		t.Fatalf("trace = %#x", addrs)
	}
}

func TestDMAEngineErrorPropagates(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	tr := NewPageTranslator(NewPageTable(), 4)
	d := NewDMAEngine(p, tr)
	if _, err := d.Transfer(0, 0xbad000, 64); err == nil {
		t.Fatal("expected unmapped error")
	}
}

// TestDMAEngineAccountsPartialTransfer: a transfer that runs off the end
// of the mapping stops at the failing burst, and every statistic covers
// the part that ran — not the bursts and stalls alone.
func TestDMAEngineAccountsPartialTransfer(t *testing.T) {
	h := NewHBM(1, 16, 0)
	p, _ := h.Port()
	pt := NewPageTable()
	if err := pt.Map(0, 0x100000, 2*PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	d := NewDMAEngine(p, NewPageTranslator(pt, 4))
	done, err := d.Transfer(100, PageSize, 3*PageSize) // the second mapped page, then two that are not
	if !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
	bursts := uint64(PageSize / DefaultBurstBytes)
	wantDone := sim.Cycles(100 + DefaultWalkCycles + PageSize/16)
	want := DMAStats{Transfers: 1, Bytes: PageSize, Bursts: bursts, StallCycles: DefaultWalkCycles, BusyCycles: wantDone - 100}
	if done != wantDone || d.Stats() != want {
		t.Fatalf("done = %v, stats = %+v; want %v, %+v", done, d.Stats(), wantDone, want)
	}
	if p.BytesMoved() != PageSize {
		t.Fatalf("port moved %d bytes, want %d", p.BytesMoved(), PageSize)
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "W/R" || PermRead.String() != "R" || PermWrite.String() != "W" || Perm(0).String() != "-" {
		t.Fatal("perm strings wrong")
	}
}

// TestBankSharesCalendarsByChannel: ports bound to one bank contend on
// the channels they have in common, whatever position the channel has in
// each port's list, and not with the chip-global calendars.
func TestBankSharesCalendarsByChannel(t *testing.T) {
	h := NewHBM(4, 16, 0)
	a, _ := h.Port(2, 3)
	b, _ := h.Port(3)
	global, _ := h.Port(3)
	bank := NewBank()
	a.UseBank(bank)
	b.UseBank(bank)
	d1 := a.Transfer(0, 160)      // channel 2: 0..10
	d2 := b.Transfer(0, 160)      // channel 3: 0..10
	d3 := b.Transfer(0, 160)      // channel 3: 10..20
	d4 := a.Transfer(0, 320)      // channel 2 frees first: 10..30
	d5 := global.Transfer(0, 160) // the chip's own channel 3, untouched by the bank
	if d1 != 10 || d2 != 10 || d3 != 20 || d4 != 30 || d5 != 10 {
		t.Fatalf("done = %v,%v,%v,%v,%v; want 10,10,20,30,10", d1, d2, d3, d4, d5)
	}
	bank.Reset()
	if d := b.Transfer(0, 160); d != 10 {
		t.Fatalf("after Reset done = %v, want 10", d)
	}
}

// TestUnboundBankIsEmptyAndKeepsStorage: after Unbind a bank serves other
// channels as a new bank would, on the calendars it already has — the
// second fill of the same size allocates nothing.
func TestUnboundBankIsEmptyAndKeepsStorage(t *testing.T) {
	h := NewHBM(8, 64, 20)
	bank := NewBank()
	const bursts = 4096
	fill := func(p *Port) sim.Cycles {
		at := sim.Cycles(0)
		for i := 0; i < bursts; i++ {
			at = p.Transfer(at, DefaultBurstBytes) // the next burst issues a latency later: no coalescing
		}
		return at
	}
	first, _ := h.Port(0, 1)
	first.UseBank(bank)
	want := fill(first)
	if spans := bank.cals[0].Spans() + bank.cals[1].Spans(); spans != bursts {
		t.Fatalf("%d spans for %d bursts: the fill coalesced and grows no storage", spans, bursts)
	}

	second, _ := h.Port(6, 5)
	var got sim.Cycles
	allocs := testing.AllocsPerRun(2, func() {
		bank.Unbind()
		second.UseBank(bank)
		got = fill(second)
	})
	if allocs > 1 { // the port's own list of bound calendars
		t.Fatalf("rebinding and refilling a recycled bank allocated %v times", allocs)
	}
	if len(bank.cals) != 2 {
		t.Fatalf("bank holds %d calendars after rebinding two channels, want the same 2", len(bank.cals))
	}
	if got != want {
		t.Fatalf("recycled bank finished at %v, new bank at %v", got, want)
	}
}

// refTransfer is DMAEngine.Transfer as it was before bursts went out in
// trains — one Translate and one Port.Transfer per burst — with the
// statistics kept the same way. The differential and fuzz tests below hold
// the engine to it.
func refTransfer(d *DMAEngine, at sim.Cycles, va uint64, size int) (sim.Cycles, error) {
	if size <= 0 {
		return at, nil
	}
	burst := d.BurstBytes
	if burst <= 0 {
		burst = DefaultBurstBytes
	}
	var err error
	cursor, remaining, addr := at, size, va
	for remaining > 0 {
		n := min(burst, remaining)
		if d.Trace != nil {
			d.Trace(addr, cursor)
		}
		_, stall, terr := d.Translator.Translate(addr)
		if terr != nil {
			err = terr
			break
		}
		cursor += stall
		cursor = d.Port.Transfer(cursor, n)
		d.stats.Bursts++
		d.stats.StallCycles += stall
		addr += uint64(n)
		remaining -= n
	}
	d.stats.Transfers++
	d.stats.Bytes += int64(size - remaining)
	d.stats.BusyCycles += cursor - at
	return cursor, err
}

// dmaWorld is one HBM and the DMA engines sharing it. Two worlds built
// from the same header are identical and share nothing.
type dmaWorld struct {
	hbm     *HBM
	engines []*DMAEngine
	traces  [][]burstIssue // traces[e] is what engine e's Trace callback saw
	span    uint64         // the engines' mapped blocks lie in [dmaWorldBase, dmaWorldBase+span)
}

type burstIssue struct {
	va uint64
	at sim.Cycles
}

const (
	dmaWorldHeader = 8 // bytes of a test input that describe the world
	dmaWorldBase   = 0x100000
)

// newDMAWorld decodes h[:dmaWorldHeader]: 1-8 channels of 16 or 64 B/cycle
// with latency 0, 7 or 20; 2-9 engines, engine e on 1, 2, 3 or all of the
// channels starting from one that depends on e; translators of one kind —
// range (1-8 blocks, a TLB of 4, 1 or 2), page (a TLB of 0, 4 or 32) or
// identity; optionally one access counter shared by every engine or every
// other one, a traced engine, an engine with 192-byte bursts, range blocks
// that do not end on a burst boundary, and an unmapped page between the
// second block and the third.
func newDMAWorld(tb testing.TB, h []byte) *dmaWorld {
	tb.Helper()
	channels := 1 + int(h[0]%8)
	w := &dmaWorld{hbm: NewHBM(channels, []int{16, 64}[h[2]&1], []sim.Cycles{0, 7, 20}[h[2]>>1%3])}
	kind := h[3] % 5 // 0-2 range, 3 page, 4 identity
	blockSize := uint64(PageSize) * uint64(1+h[7]%4)
	if kind <= 2 {
		blockSize += 128 * uint64(h[7]>>2%8)
	}
	var entries []RTTEntry
	pt := NewPageTable()
	for i, blocks := 0, 1+int(h[4]%8); i < blocks; i++ {
		if i == 2 && h[7]&0x80 != 0 {
			w.span += PageSize
		}
		// Physical blocks in falling order: nothing may lean on pa rising with va.
		e := RTTEntry{VA: dmaWorldBase + w.span, PA: uint64(64-i) << 20, Size: blockSize, Perm: PermRW}
		entries = append(entries, e)
		if kind == 3 {
			if err := pt.Map(e.VA, e.PA, e.Size, e.Perm); err != nil {
				tb.Fatal(err)
			}
		}
		w.span += blockSize
	}
	var counter *AccessCounter
	if h[6]&3 != 0 {
		counter = &AccessCounter{MaxBytes: 4096, Window: 256}
	}
	engines := 2 + int(h[1]%8)
	w.traces = make([][]burstIssue, engines)
	for e := 0; e < engines; e++ {
		n := min([]int{1, 2, 3, channels}[(int(h[5])+e)%4], channels)
		list := make([]int, n)
		for i := range list {
			list[i] = (e + int(h[5]>>2) + i) % channels
		}
		port, err := w.hbm.Port(list...)
		if err != nil {
			tb.Fatal(err)
		}
		if h[6]&2 != 0 || (h[6]&1 != 0 && e%2 == 0) {
			port.SetCounter(counter)
		}
		var tr Translator
		switch kind {
		case 3:
			tr = NewPageTranslator(pt, []int{0, 4, 32}[h[4]>>3%3])
		case 4:
			tr = &Identity{}
		default:
			rtt, err := NewRTT(entries)
			if err != nil {
				tb.Fatal(err)
			}
			rt := NewRangeTranslator(rtt)
			rt.Entries = []int{0, 1, 2}[h[4]>>3%3]
			tr = rt
		}
		d := NewDMAEngine(port, tr)
		if h[6]&8 != 0 && e == 1 {
			d.BurstBytes = 192
		}
		if h[6]&4 != 0 && e == 0 {
			d.Trace = func(va uint64, at sim.Cycles) { w.traces[0] = append(w.traces[0], burstIssue{va, at}) }
		}
		w.engines = append(w.engines, d)
	}
	return w
}

// diff names the first thing engine e or any channel of w has that the
// same engine or channel of ref has not, or returns "".
func (w *dmaWorld) diff(ref *dmaWorld, e int) string {
	d, r := w.engines[e], ref.engines[e]
	if d.stats != r.stats {
		return fmt.Sprintf("DMAStats %+v, reference %+v", d.stats, r.stats)
	}
	if d.Translator.Stats() != r.Translator.Stats() {
		return fmt.Sprintf("TranslateStats %+v, reference %+v", d.Translator.Stats(), r.Translator.Stats())
	}
	if dt, ok := d.Translator.(*RangeTranslator); ok {
		if rt := r.Translator.(*RangeTranslator); dt.RTT.Cur() != rt.RTT.Cur() {
			return fmt.Sprintf("RTT_CUR %d, reference %d", dt.RTT.Cur(), rt.RTT.Cur())
		}
	}
	// TLB contents and order, every last_v, the shared page table.
	if !reflect.DeepEqual(d.Translator, r.Translator) {
		return fmt.Sprintf("translator %+v, reference %+v", d.Translator, r.Translator)
	}
	if d.Port.BytesMoved() != r.Port.BytesMoved() {
		return fmt.Sprintf("port moved %d bytes, reference %d", d.Port.BytesMoved(), r.Port.BytesMoved())
	}
	if !reflect.DeepEqual(d.Port.counter, r.Port.counter) {
		return fmt.Sprintf("access counter %+v, reference %+v", d.Port.counter, r.Port.counter)
	}
	if !reflect.DeepEqual(w.traces[e], ref.traces[e]) {
		return fmt.Sprintf("traced %d bursts, reference %d, or not the same ones", len(w.traces[e]), len(ref.traces[e]))
	}
	for i := range w.hbm.channels {
		c, rc := &w.hbm.channels[i], &ref.hbm.channels[i]
		if c.Grants() != rc.Grants() || c.BusyTotal() != rc.BusyTotal() || c.Spans() != rc.Spans() {
			return fmt.Sprintf("channel %d grants/busy/spans = %d/%d/%d, reference %d/%d/%d",
				i, c.Grants(), c.BusyTotal(), c.Spans(), rc.Grants(), rc.BusyTotal(), rc.Spans())
		}
	}
	return ""
}

// runDMATrainOps builds two worlds from the header of data and reads the
// rest as 5-byte transfers — engine, issue delay, address, size — driving
// one world through refTransfer and the other through the engine. Each
// engine has its own clock, so an engine picked after a long pause issues
// behind the others' reservations: the trains' contended path. It returns
// how many transfers ended in a translation error.
func runDMATrainOps(tb testing.TB, data []byte) (failed int) {
	tb.Helper()
	if len(data) < dmaWorldHeader {
		return 0
	}
	ref, got := newDMAWorld(tb, data), newDMAWorld(tb, data)
	now := make([]sim.Cycles, len(ref.engines))
	next := make([]uint64, len(ref.engines)) // where engine e's last transfer ended
	ops := data[dmaWorldHeader:]
	for op := 0; len(ops) >= 5; op, ops = op+1, ops[5:] {
		e := int(ops[0]) % len(ref.engines)
		at := now[e] + sim.Cycles(ops[1]%64)
		off := (uint64(ops[2])<<8 | uint64(ops[3])) * 41 % ref.span // any alignment
		size := 0
		switch v := int(ops[4] >> 3); ops[4] % 8 {
		case 0:
			size = 1 + 16*v // below one burst
		case 1:
			size = 512 * (1 + v) // whole bursts
		case 2:
			size = 512*(1+v) + 1 + 13*v // a short last burst
		case 3:
			size = PageSize * (1 + v) // across blocks, at times past the last one
		case 4:
			size = 64 * v // zero included
			if v == 31 {
				// A new job on a resident vNPU: translation-cold again.
				for _, w := range []*dmaWorld{ref, got} {
					if tr, ok := w.engines[e].Translator.(interface{ ResetTransient() }); ok {
						tr.ResetTransient()
					}
					w.engines[e].Port.ResetTransient()
				}
			}
		default:
			// Stream on from the engine's last transfer up to the end of
			// the last block at most, so that the next one wraps to the
			// first block.
			off = next[e]
			size = int(min(uint64(2048*(1+v)), ref.span-off))
		}
		next[e] = (off + uint64(size)) % ref.span
		va := dmaWorldBase + off
		wantDone, wantErr := refTransfer(ref.engines[e], at, va, size)
		gotDone, gotErr := got.engines[e].Transfer(at, va, size)
		if gotDone != wantDone || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			tb.Fatalf("op %d: engine %d Transfer(%d, %#x, %d) = %d, %v; reference %d, %v",
				op, e, at, va, size, gotDone, gotErr, wantDone, wantErr)
		}
		if d := got.diff(ref, e); d != "" {
			tb.Fatalf("op %d: after engine %d Transfer(%d, %#x, %d): %s", op, e, at, va, size, d)
		}
		if wantErr != nil {
			failed++
		}
		now[e] = wantDone
	}
	// The schedules themselves, interval by interval.
	if !reflect.DeepEqual(got.hbm, ref.hbm) {
		tb.Fatalf("after %d bytes of transfers the channel schedules differ from the reference's", len(data))
	}
	return failed
}

// dmaTrainInput is a seeded input for runDMATrainOps: seed picks the
// translator kind, block count and TLB size in turn, the rest is random.
func dmaTrainInput(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, dmaWorldHeader+5*ops)
	rng.Read(data)
	data[3] = byte(seed)
	data[4] = byte(seed / 5)
	return data
}

// TestDMATrainMatchesPerBurst holds the engine — run translation, burst
// trains, the contended fallback — to the per-burst loop it replaced, over
// seeded worlds of every translator kind and port shape.
func TestDMATrainMatchesPerBurst(t *testing.T) {
	failed := 0
	for seed := int64(0); seed < 120; seed++ {
		failed += runDMATrainOps(t, dmaTrainInput(seed, 300))
	}
	if failed == 0 {
		t.Fatal("no transfer ran off the mapping: the error path went untested")
	}
}

// FuzzDMATrain reads the input as a world header and a stream of transfers
// and holds the engine to the per-burst reference after every one.
func FuzzDMATrain(f *testing.F) {
	f.Add([]byte{})
	f.Add(dmaTrainInput(1, 40))  // range
	f.Add(dmaTrainInput(3, 40))  // page without a TLB
	f.Add(dmaTrainInput(43, 40)) // page, 4 entries
	f.Add(dmaTrainInput(83, 40)) // page, 32 entries
	f.Add(dmaTrainInput(4, 40))  // identity
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > dmaWorldHeader+5*1000 {
			data = data[:dmaWorldHeader+5*1000]
		}
		runDMATrainOps(t, data)
	})
}
