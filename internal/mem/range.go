package mem

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/vnpu-sim/vnpu/internal/sim"
)

// RTTEntry is one row of the Range Translation Table (Fig 7): a contiguous
// virtual range mapped to a contiguous physical range, with permissions and
// the last_v field that records which entry followed this one in the
// previous iteration of the workload loop (Pattern-3).
type RTTEntry struct {
	VA   uint64
	PA   uint64
	Size uint64
	Perm Perm
	// LastV is the index of the entry the stream jumped to after this one
	// in the previous iteration, or -1 when unknown.
	LastV int32
}

// Covers reports whether va falls inside the entry's range.
func (e RTTEntry) Covers(va uint64) bool { return va >= e.VA && va < e.VA+e.Size }

// String renders the entry like Fig 7's table rows.
func (e RTTEntry) String() string {
	return fmt.Sprintf("va=%#x pa=%#x size=%#x perm=%s last_v=%d", e.VA, e.PA, e.Size, e.Perm, e.LastV)
}

// RTTEntryBits is the hardware width of one range-TLB entry as reported in
// §6.2.4: 48-bit VA + 48-bit PA + 32-bit size + 4-bit perm + 8-bit last_v
// + 4 bits of state = 144 bits.
const RTTEntryBits = 144

// RTT is a per-core Range Translation Table: entries sorted by virtual
// address, plus the RTT_CUR cursor. The hypervisor builds it at vNPU
// creation (§5.2) from buddy-allocator blocks; the NPU core only reads it.
type RTT struct {
	entries []RTTEntry
	cur     int // RTT_CUR: index of the entry used most recently

	// DisableLastV turns off the last_v iteration-restart assist, leaving
	// only RTT_CUR and the circular scan. Used by the abl-lastv ablation
	// to quantify what the assist buys.
	DisableLastV bool
}

// NewRTT builds a table from entries, sorting them by VA (the hypervisor
// sorts entries to enable the monotonic-scan lookup; §5.2). Overlapping
// ranges are rejected.
func NewRTT(entries []RTTEntry) (*RTT, error) {
	es := make([]RTTEntry, len(entries))
	copy(es, entries)
	slices.SortFunc(es, func(a, b RTTEntry) int { return cmp.Compare(a.VA, b.VA) })
	for i := range es {
		if es[i].Size == 0 {
			return nil, fmt.Errorf("mem: empty RTT range %s", fmtRange(es[i].VA, 0))
		}
		if i > 0 && es[i-1].VA+es[i-1].Size > es[i].VA {
			return nil, fmt.Errorf("mem: overlapping RTT ranges %s and %s",
				fmtRange(es[i-1].VA, es[i-1].Size), fmtRange(es[i].VA, es[i].Size))
		}
		if es[i].LastV == 0 {
			es[i].LastV = -1
		}
	}
	return &RTT{entries: es}, nil
}

// Len reports the number of ranges.
func (r *RTT) Len() int { return len(r.entries) }

// Entry returns a copy of entry i.
func (r *RTT) Entry(i int) RTTEntry { return r.entries[i] }

// Cur reports the RTT_CUR cursor, for inspection in tests and tools.
func (r *RTT) Cur() int { return r.cur }

// lookup finds the entry covering va following the paper's procedure:
// try RTT_CUR, then RTT_CUR's last_v hint, then scan forward circularly
// (wrapping from RTT_END to RTT_BASE). It returns the entry index and the
// number of table probes spent. found is false when no entry covers va.
func (r *RTT) lookup(va uint64) (idx, probes int, found bool) {
	n := len(r.entries)
	if n == 0 {
		return 0, 0, false
	}
	// 1. Current entry (monotonic streams stay here; Pattern-2).
	probes++
	if r.entries[r.cur].Covers(va) {
		return r.cur, probes, true
	}
	// 2. last_v hint (iteration restart; Pattern-3).
	if lv := r.entries[r.cur].LastV; !r.DisableLastV && lv >= 0 && int(lv) < n {
		probes++
		if r.entries[lv].Covers(va) {
			r.advance(int(lv))
			return int(lv), probes, true
		}
	}
	// 3. Circular scan from cur+1.
	for step := 1; step < n; step++ {
		i := (r.cur + step) % n
		probes++
		if r.entries[i].Covers(va) {
			r.advance(i)
			return i, probes, true
		}
	}
	return 0, probes, false
}

// advance records that the stream moved from the current entry to entry i:
// the old entry's last_v learns the successor and RTT_CUR moves.
func (r *RTT) advance(i int) {
	r.entries[r.cur].LastV = int32(i)
	r.cur = i
}

// ResetTransient forgets the learned lookup state — RTT_CUR and every
// last_v hint — returning the table to its just-built condition. The
// serving layer resets resident vNPUs between time-multiplexed jobs so a
// job on a reused vNPU sees exactly the timing a fresh create would.
func (r *RTT) ResetTransient() {
	r.cur = 0
	for i := range r.entries {
		r.entries[i].LastV = -1
	}
}

// RangeTLB parameters, calibrated to the 144-bit, 4-entry configuration of
// §6.2.4.
const (
	// DefaultRangeTLBEntries is the hardware range-TLB size.
	DefaultRangeTLBEntries = 4
	// RangeProbeCycles is the SRAM read cost of probing one RTT entry
	// during a miss.
	RangeProbeCycles = 2
	// RangeRefillCycles is the fixed cost of refilling a range-TLB slot.
	RangeRefillCycles = 8
)

// RangeTranslator implements vChunk translation: an n-entry range TLB in
// front of an RTT. Hits are free; misses walk the RTT with the
// RTT_CUR/last_v assists and charge probe + refill cycles.
type RangeTranslator struct {
	RTT     *RTT
	Entries int // 0 selects DefaultRangeTLBEntries

	tlb   []int // indices into RTT, most recent first
	stats TranslateStats
}

// NewRangeTranslator builds a vChunk translator over the table.
func NewRangeTranslator(rtt *RTT) *RangeTranslator {
	return &RangeTranslator{RTT: rtt, Entries: DefaultRangeTLBEntries}
}

// Translate implements Translator.
func (t *RangeTranslator) Translate(va uint64) (uint64, sim.Cycles, error) {
	e, stall, err := t.translate(va)
	if err != nil {
		return 0, 0, err
	}
	return e.PA + (va - e.VA), stall, nil
}

// TranslateRun implements Translator: the run ends with the RTT entry.
func (t *RangeTranslator) TranslateRun(va, stride uint64, limit int) (int, sim.Cycles, error) {
	e, stall, err := t.translate(va)
	if err != nil {
		return 0, 0, err
	}
	n := runLength(va, e.VA+e.Size, stride, limit)
	t.stats.Hits += uint64(n - 1)
	return n, stall, nil
}

// translate finds the entry covering va, in the range TLB or by an RTT
// walk, and leaves it in the TLB's most recently used slot.
func (t *RangeTranslator) translate(va uint64) (*RTTEntry, sim.Cycles, error) {
	// Range TLB: check cached entries, most recent first.
	for pos, idx := range t.tlb {
		e := &t.RTT.entries[idx]
		if e.Covers(va) {
			if pos != 0 {
				copy(t.tlb[1:pos+1], t.tlb[:pos])
				t.tlb[0] = idx
			}
			t.stats.Hits++
			return e, 0, nil
		}
	}
	idx, probes, found := t.RTT.lookup(va)
	t.stats.Probes += uint64(probes)
	if !found {
		return nil, 0, fmt.Errorf("%w: %#x", ErrUnmapped, va)
	}
	t.stats.Misses++
	stall := sim.Cycles(probes)*RangeProbeCycles + RangeRefillCycles
	t.stats.StallCycles += stall
	// Refill TLB (LRU).
	capacity := t.Entries
	if capacity <= 0 {
		capacity = DefaultRangeTLBEntries
	}
	if len(t.tlb) < capacity {
		t.tlb = append(t.tlb, 0)
	}
	copy(t.tlb[1:], t.tlb[:len(t.tlb)-1])
	t.tlb[0] = idx
	return &t.RTT.entries[idx], stall, nil
}

// Stats implements Translator.
func (t *RangeTranslator) Stats() TranslateStats { return t.stats }

// ResetTransient empties the range TLB and forgets the RTT's learned
// state, so the next run starts translation-cold like a fresh vNPU.
// Cumulative statistics are preserved.
func (t *RangeTranslator) ResetTransient() {
	t.tlb = t.tlb[:0]
	t.RTT.ResetTransient()
}
