package mem

import (
	"fmt"
	"sort"

	"github.com/vnpu-sim/vnpu/internal/sim"
)

// PageSize is the translation granule of the page-based baseline.
const PageSize = 4096

// DefaultWalkCycles is the cost of one page-table walk: a multi-level walk
// issues 2-4 dependent memory accesses of ~50-100 cycles each. At this
// cost the streaming DMA workloads of Fig 14 lose ~20% of throughput with
// a 4-entry IOTLB (one blocking walk per 4 KiB page whose transfer itself
// takes PageSize/bandwidth = 256 cycles).
const DefaultWalkCycles = 200

// PageTable is a flat VA->PA page mapping managed by the hypervisor. It is
// the baseline the paper argues against for NPUs: every 4 KiB of a
// multi-megabyte tensor needs its own entry. The model charges for those
// entries (NumPages, one walk per page missed) but stores what Map was
// given — one extent per call — and answers a page lookup from the extent
// that holds the page.
type PageTable struct {
	extents []pageExtent // sorted by va, disjoint
}

// pageExtent is one Map call: size bytes (whole pages) at va onto pa.
type pageExtent struct {
	va, pa, size uint64
	perm         Perm
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable { return &PageTable{} }

// Map installs translations covering [va, va+size) onto [pa, pa+size); a
// partial last page is mapped whole. Both addresses must be page aligned,
// and the pages must not be mapped already.
func (pt *PageTable) Map(va, pa, size uint64, perm Perm) error {
	if va%PageSize != 0 || pa%PageSize != 0 {
		return fmt.Errorf("mem: unaligned page mapping %s -> %#x", fmtRange(va, size), pa)
	}
	if size == 0 {
		return nil
	}
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	// i is the first extent starting at or after va: the new one goes in
	// front of it, and only it and the one before can overlap the new one.
	i := sort.Search(len(pt.extents), func(i int) bool { return pt.extents[i].va >= va })
	for _, e := range pt.extents[max(i-1, 0):min(i+1, len(pt.extents))] {
		if e.va < va+size && va < e.va+e.size {
			return fmt.Errorf("mem: page mapping %s overlaps %s", fmtRange(va, size), fmtRange(e.va, e.size))
		}
	}
	pt.extents = append(pt.extents, pageExtent{})
	copy(pt.extents[i+1:], pt.extents[i:])
	pt.extents[i] = pageExtent{va: va, pa: pa, size: size, perm: perm}
	return nil
}

// NumPages reports how many page entries are installed — the page-table
// footprint the RTT is compared against (144 bits/range vs 8 bytes/page).
func (pt *PageTable) NumPages() int {
	n := 0
	for _, e := range pt.extents {
		n += int(e.size / PageSize)
	}
	return n
}

// lookup returns the physical page base for a VA page base.
func (pt *PageTable) lookup(pageVA uint64) (uint64, Perm, bool) {
	// The last extent starting at or before the page is the only one
	// that can hold it.
	lo, hi := 0, len(pt.extents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pt.extents[mid].va <= pageVA {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, 0, false
	}
	e := &pt.extents[lo-1]
	if pageVA-e.va >= e.size {
		return 0, 0, false
	}
	return e.pa + (pageVA - e.va), e.perm, true
}

// PageTranslator is the per-core IOTLB model ("IOTLB4"/"IOTLB32" in
// Fig 14): an n-entry fully-associative LRU TLB in front of a PageTable,
// with a single hardware page walker.
//
// The walker can run translations ahead of the DMA stream only when the
// TLB has headroom beyond the concurrently-active DMA streams — prefetched
// entries would otherwise evict live ones. With headroom, a sequential-
// stream miss overlaps with the previous page's data transfer and costs
// PrefetchFactor of a full walk; without headroom every miss pays the full
// walk and stalls all streams (the "burst phenomenon" of §4.2).
type PageTranslator struct {
	Table *PageTable
	// Entries is the TLB capacity.
	Entries int
	// WalkCycles is the full page-walk cost. 0 selects DefaultWalkCycles.
	WalkCycles sim.Cycles
	// Streams is the number of concurrently active DMA streams sharing
	// this TLB (weights + activations + results). 0 selects 4.
	Streams int
	// PrefetchFactor scales the residual stall of an overlapped walk.
	// 0 selects 0.5.
	PrefetchFactor float64

	tlb   lruCache
	stats TranslateStats
}

// NewPageTranslator builds a translator over table with an n-entry TLB.
func NewPageTranslator(table *PageTable, entries int) *PageTranslator {
	return &PageTranslator{Table: table, Entries: entries}
}

func (t *PageTranslator) walkCost() sim.Cycles {
	w := t.WalkCycles
	if w == 0 {
		w = DefaultWalkCycles
	}
	streams := t.Streams
	if streams == 0 {
		streams = 4
	}
	if t.Entries >= 2*streams {
		pf := t.PrefetchFactor
		if pf == 0 {
			pf = 0.5
		}
		return sim.Cycles(float64(w) * pf)
	}
	return w
}

// Translate implements Translator.
func (t *PageTranslator) Translate(va uint64) (uint64, sim.Cycles, error) {
	pageVA := va &^ uint64(PageSize-1)
	off := va & uint64(PageSize-1)
	if paPage, ok := t.tlb.get(pageVA); ok {
		t.stats.Hits++
		return paPage + off, 0, nil
	}
	paPage, _, ok := t.Table.lookup(pageVA)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %#x", ErrUnmapped, va)
	}
	t.stats.Misses++
	t.stats.Probes++ // one page-table access
	stall := t.walkCost()
	t.stats.StallCycles += stall
	t.tlb.put(pageVA, paPage, t.Entries)
	return paPage + off, stall, nil
}

// TranslateRun implements Translator: the run ends with the page. Without
// a TLB nothing holds the page for the next burst, so the run is va alone.
func (t *PageTranslator) TranslateRun(va, stride uint64, limit int) (int, sim.Cycles, error) {
	_, stall, err := t.Translate(va)
	if err != nil {
		return 0, 0, err
	}
	if t.Entries <= 0 {
		return 1, stall, nil
	}
	n := runLength(va, va&^uint64(PageSize-1)+PageSize, stride, limit)
	t.stats.Hits += uint64(n - 1)
	return n, stall, nil
}

// Stats implements Translator.
func (t *PageTranslator) Stats() TranslateStats { return t.stats }

// ResetTransient empties the IOTLB so the next run starts
// translation-cold like a fresh vNPU. Cumulative statistics are
// preserved.
func (t *PageTranslator) ResetTransient() { t.tlb.reset() }

// lruCache is a tiny fully-associative LRU keyed by page VA. TLBs hold a
// handful of entries, so a slice scan beats pointer-chasing structures.
type lruCache struct {
	keys []uint64
	vals []uint64
}

func (c *lruCache) reset() {
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
}

func (c *lruCache) get(key uint64) (uint64, bool) {
	for i, k := range c.keys {
		if k == key {
			v := c.vals[i]
			// Move to front (most recently used).
			copy(c.keys[1:i+1], c.keys[:i])
			copy(c.vals[1:i+1], c.vals[:i])
			c.keys[0], c.vals[0] = key, v
			return v, true
		}
	}
	return 0, false
}

func (c *lruCache) put(key, val uint64, capacity int) {
	if capacity <= 0 {
		return
	}
	if len(c.keys) < capacity {
		c.keys = append(c.keys, 0)
		c.vals = append(c.vals, 0)
	}
	copy(c.keys[1:], c.keys[:len(c.keys)-1])
	copy(c.vals[1:], c.vals[:len(c.vals)-1])
	c.keys[0], c.vals[0] = key, val
}
