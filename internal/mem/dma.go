package mem

import (
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// DefaultBurstBytes is the granularity of DMA requests issued to the HBM:
// each burst needs one address translation, producing the "translation
// request every few cycles" load described in §4.2.
const DefaultBurstBytes = 512

// DMAEngine moves tensors between global memory and a core's scratchpad.
// It splits transfers into bursts, translates each burst address (charging
// translation stalls to the pipeline) and streams data through its HBM
// port. One engine belongs to one NPU core.
type DMAEngine struct {
	Port       *Port
	Translator Translator
	BurstBytes int // 0 selects DefaultBurstBytes

	// Trace, when non-nil, receives every burst's virtual address and
	// issue time. Used to reproduce the Fig 6 address traces.
	Trace func(va uint64, at sim.Cycles)

	stats DMAStats
}

// DMAStats aggregates transfer activity. A transfer cut short by a
// translation error counts as a transfer, with the bytes, bursts, stalls
// and busy cycles of the part that ran.
type DMAStats struct {
	Transfers   uint64
	Bytes       int64
	Bursts      uint64
	StallCycles sim.Cycles // translation stalls
	BusyCycles  sim.Cycles // total transfer occupancy including stalls
}

// NewDMAEngine builds an engine over the given port and translator.
func NewDMAEngine(port *Port, tr Translator) *DMAEngine {
	return &DMAEngine{Port: port, Translator: tr}
}

// Transfer moves size bytes starting at virtual address va, beginning no
// earlier than `at`. It returns the completion time. Translation stalls
// serialize with the data bursts — a TLB miss blocks all subsequent
// bursts, the behaviour that motivates vChunk (§4.2).
//
// The bursts go out in runs: one translation covers every burst that
// starts inside the same RTT entry or page (they would all hit the slot
// the first one filled), and the port streams the run as one train. What
// comes out — completion time, statistics, translator and channel state —
// is what translating and issuing the bursts one by one gives. With Trace
// set every run is a single burst, so the callback sees each of them. A
// translation error ends the transfer at the failing burst; the part that
// ran stays accounted.
func (d *DMAEngine) Transfer(at sim.Cycles, va uint64, size int) (done sim.Cycles, err error) {
	if size <= 0 {
		return at, nil
	}
	burst := d.BurstBytes
	if burst <= 0 {
		burst = DefaultBurstBytes
	}
	cursor := at
	remaining := size
	addr := va
	for remaining > 0 {
		n, limit := burst, remaining/burst
		if limit == 0 {
			n, limit = remaining, 1 // the final short burst
		}
		if d.Trace != nil {
			d.Trace(addr, cursor)
			limit = 1
		}
		run, stall, terr := d.Translator.TranslateRun(addr, uint64(n), limit)
		if terr != nil {
			err = terr
			break
		}
		cursor += stall // walk blocks the DMA pipeline
		cursor = d.Port.TransferTrain(cursor, n, run)
		d.stats.Bursts += uint64(run)
		d.stats.StallCycles += stall
		addr += uint64(n * run)
		remaining -= n * run
	}
	d.stats.Transfers++
	d.stats.Bytes += int64(size - remaining)
	d.stats.BusyCycles += cursor - at
	return cursor, err
}

// Stats returns cumulative engine statistics.
func (d *DMAEngine) Stats() DMAStats { return d.stats }
