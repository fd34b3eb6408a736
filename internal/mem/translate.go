package mem

import (
	"errors"
	"fmt"

	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Translator converts virtual global-memory addresses to physical ones and
// charges the translation stall observed by the DMA pipeline. A translator
// belongs to one DMA engine (one NPU core), matching the per-core local
// TLBs of Figure 1.
type Translator interface {
	// Translate maps one burst address. stall is the pipeline stall in
	// cycles caused by this translation (0 on a TLB hit).
	Translate(va uint64) (pa uint64, stall sim.Cycles, err error)
	// TranslateRun translates the burst at va exactly as Translate does —
	// the same TLB, LRU, RTT_CUR and last_v changes, the same stall, the
	// same error — and reports as n how many bursts of the run va,
	// va+stride, va+2*stride, ... (at most limit, va's own included) start
	// inside the entry or page that served va. Translating bursts 2..n one
	// by one would hit the most recently used slot n-1 times and change
	// nothing else, so TranslateRun adds n-1 to Hits and leaves all other
	// state as the first translation left it. n is 1 when a translator
	// cannot promise that (a page translator without a TLB misses every
	// time) and 0 with an error. stride and limit are at least 1.
	TranslateRun(va, stride uint64, limit int) (n int, stall sim.Cycles, err error)
	// Stats reports cumulative hit/miss counters.
	Stats() TranslateStats
}

// runLength is how many of the addresses va, va+stride, ... lie below end,
// capped at limit; va itself does.
func runLength(va, end, stride uint64, limit int) int {
	return int(min((end-1-va)/stride+1, uint64(limit)))
}

// TranslateStats counts translation outcomes.
type TranslateStats struct {
	Hits   uint64
	Misses uint64
	// Probes counts table entries touched during misses (range walks or
	// page walks).
	Probes uint64
	// StallCycles accumulates all translation stalls charged.
	StallCycles sim.Cycles
}

// HitRate returns hits / (hits+misses), or 1 when there were no lookups.
func (s TranslateStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// ErrUnmapped is returned for addresses no table entry covers.
var ErrUnmapped = errors.New("mem: unmapped address")

// ErrPermission is returned when an access violates entry permissions.
var ErrPermission = errors.New("mem: permission denied")

// Identity is the no-translation baseline ("Physical Mem" in Fig 14):
// virtual addresses are physical addresses and no stall is ever charged.
type Identity struct{ stats TranslateStats }

// Translate implements Translator with zero cost.
func (t *Identity) Translate(va uint64) (uint64, sim.Cycles, error) {
	t.stats.Hits++
	return va, 0, nil
}

// TranslateRun implements Translator: the whole address space is one range.
func (t *Identity) TranslateRun(_, _ uint64, limit int) (int, sim.Cycles, error) {
	t.stats.Hits += uint64(limit)
	return limit, 0, nil
}

// Stats implements Translator.
func (t *Identity) Stats() TranslateStats { return t.stats }

// Perm is an RTT permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// String renders the permission bits as in Figure 7 ("W/R", "R", ...).
func (p Perm) String() string {
	switch p {
	case PermRW:
		return "W/R"
	case PermRead:
		return "R"
	case PermWrite:
		return "W"
	default:
		return "-"
	}
}

func fmtRange(va uint64, size uint64) string {
	return fmt.Sprintf("[%#x,%#x)", va, va+size)
}
