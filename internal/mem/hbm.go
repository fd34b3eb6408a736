// Package mem models the SRAM-centric NPU memory system of §2.1 and §4.2:
// high-capacity global memory (HBM/DRAM) reached through DMA engines, with
// two alternative address-translation mechanisms — the page-based IOTLB
// baseline and the paper's range-based vChunk (Range Translation Table) —
// plus the buddy allocator the hypervisor uses to back virtual NPU memory
// and the per-vNPU access counter that enforces bandwidth caps.
package mem

import (
	"fmt"

	"github.com/vnpu-sim/vnpu/internal/sim"
)

// HBM models the global memory: a set of independent memory interfaces
// (channels), each providing bytesPerCycle of bandwidth, plus a fixed
// access latency. Virtual NPUs attach through Ports that are restricted to
// a subset of channels; ports sharing channels contend naturally.
type HBM struct {
	channels      []sim.Calendar
	bytesPerCycle int
	latency       sim.Cycles
	// all and allCals are the channel list and calendars of an
	// all-channel port. Ports only read them (UseBank installs a fresh
	// calendar slice), so every all-channel port shares these two.
	all     []int
	allCals []*sim.Calendar
}

// NewHBM builds a memory with the given channel count, per-channel
// bandwidth in bytes per cycle, and fixed access latency in cycles. A
// count or bandwidth below 1 is read as 1, a negative latency as 0.
func NewHBM(channels, bytesPerCycle int, latency sim.Cycles) *HBM {
	if channels < 1 {
		channels = 1
	}
	if bytesPerCycle < 1 {
		bytesPerCycle = 1
	}
	if latency < 0 {
		latency = 0
	}
	h := &HBM{
		channels:      make([]sim.Calendar, channels),
		bytesPerCycle: bytesPerCycle,
		latency:       latency,
		all:           make([]int, channels),
		allCals:       make([]*sim.Calendar, channels),
	}
	for i := range h.all {
		h.all[i] = i
		h.allCals[i] = &h.channels[i]
	}
	return h
}

// NumChannels reports the number of memory interfaces.
func (h *HBM) NumChannels() int { return len(h.channels) }

// BytesPerCycle reports per-channel bandwidth.
func (h *HBM) BytesPerCycle() int { return h.bytesPerCycle }

// TotalBandwidth reports aggregate bandwidth in bytes per cycle.
func (h *HBM) TotalBandwidth() int { return h.bytesPerCycle * len(h.channels) }

// burstCycles is how long size bytes occupy one channel.
func (h *HBM) burstCycles(size int) sim.Cycles {
	return sim.Cycles((size + h.bytesPerCycle - 1) / h.bytesPerCycle)
}

// Port returns a port restricted to the given channel indices. An empty
// list grants access to every channel. Out-of-range indices are an error.
// Each call returns a port of its own, so BytesMoved counts only its own
// traffic.
func (h *HBM) Port(channels ...int) (*Port, error) {
	if len(channels) == 0 {
		return &Port{hbm: h, channels: h.all, cals: h.allCals}, nil
	}
	for _, c := range channels {
		if c < 0 || c >= len(h.channels) {
			return nil, fmt.Errorf("mem: channel %d out of range [0,%d)", c, len(h.channels))
		}
	}
	p := &Port{hbm: h, channels: channels}
	p.cals = make([]*sim.Calendar, len(channels))
	for i, c := range channels {
		p.cals[i] = &h.channels[c]
	}
	return p, nil
}

// TimingFingerprint hashes the parameters that determine burst timing:
// channel count, per-channel bandwidth and access latency. Equal
// fingerprints mean identical Transfer timelines for identical request
// sequences, the property the timing memo relies on.
func (h *HBM) TimingFingerprint() uint64 {
	return sim.FoldU64(0x68626d, // "hbm"
		uint64(len(h.channels)), uint64(h.bytesPerCycle), uint64(h.latency))
}

// Reset clears all channel reservations for a fresh run.
func (h *HBM) Reset() {
	for i := range h.channels {
		h.channels[i].Reset()
	}
}

// Port is a virtual NPU's view of the HBM: a channel subset and an
// optional bandwidth cap (the vChunk access counter, §4.2). A port books
// its bursts either into the chip-global channel calendars (the default,
// for the serialized execution model) or — after UseBank — into a vNPU
// timing domain's private Bank, so spatially disjoint vNPUs can execute
// concurrently without sharing transient timing state.
type Port struct {
	hbm      *HBM
	channels []int
	// cals[i] is the calendar bursts on channels[i] reserve into: the
	// HBM's own calendar by default, a Bank's private one after UseBank.
	cals    []*sim.Calendar
	counter *AccessCounter
	bytes   int64
}

// Bank is a private set of HBM channel calendars — the memory half of a
// vNPU timing domain. Every port of one vNPU binds to the same bank
// (UseBank), so the vNPU's cores still contend with each other on their
// channel share exactly as they would on a freshly reset chip, while
// never observing (or perturbing) other vNPUs' reservations.
//
// A bank outlives the domain it serves: the device takes it back when the
// domain closes (Unbind) and gives it to a later one, so the calendars'
// interval storage is grown once and not once per job. A reset calendar
// is an empty calendar whatever it held before, which is why the reuse is
// invisible in simulated time.
type Bank struct {
	chans []int           // chans[i] is the physical channel cals[i] stands for
	cals  []*sim.Calendar // cals[len(chans):] are reset and not bound to a channel
}

// NewBank returns an empty bank; calendars materialize per physical
// channel as ports bind to it.
func NewBank() *Bank { return &Bank{} }

func (b *Bank) calendar(c int) *sim.Calendar {
	for i, bound := range b.chans {
		if bound == c {
			return b.cals[i]
		}
	}
	if len(b.chans) == len(b.cals) {
		b.cals = append(b.cals, &sim.Calendar{})
	}
	b.chans = append(b.chans, c)
	return b.cals[len(b.chans)-1]
}

// Reset clears every private calendar so the domain's next job starts
// from cycle zero. It touches no chip-global state.
func (b *Bank) Reset() {
	for _, cal := range b.cals {
		cal.Reset()
	}
}

// Unbind resets the bank and forgets which channel each calendar stood
// for, keeping the calendars for the next vNPU's ports to bind to. The
// ports bound so far must not be used again.
func (b *Bank) Unbind() {
	b.Reset()
	b.chans = b.chans[:0]
}

// UseBank rebinds the port's bursts into the bank's private calendars
// (keyed by the port's physical channel indices). The channel subset and
// the access counter are unchanged — only where reservations land moves.
func (p *Port) UseBank(b *Bank) {
	p.cals = make([]*sim.Calendar, len(p.channels))
	for i, c := range p.channels {
		p.cals[i] = b.calendar(c)
	}
}

// TimingFingerprint hashes the port's timing-relevant shape: the HBM it
// fronts, its physical channel subset (order matters — ties break to the
// first-listed channel) and any bandwidth-cap parameters.
func (p *Port) TimingFingerprint() uint64 {
	vs := make([]uint64, 0, len(p.channels)+5)
	vs = append(vs, 0x706f7274, p.hbm.TimingFingerprint(), uint64(len(p.channels))) // "port"
	for _, c := range p.channels {
		vs = append(vs, uint64(c))
	}
	if p.counter != nil {
		vs = append(vs, uint64(p.counter.MaxBytes), uint64(p.counter.Window))
	}
	return sim.FoldU64(vs...)
}

// Channels returns a copy of the port's physical channel indices.
func (p *Port) Channels() []int { return append([]int(nil), p.channels...) }

// SetBandwidthCap installs an access counter limiting this port to
// maxBytes per window of windowCycles. A nil-safe zero maxBytes removes
// the cap.
func (p *Port) SetBandwidthCap(maxBytes int64, window sim.Cycles) {
	if maxBytes <= 0 || window <= 0 {
		p.counter = nil
		return
	}
	p.counter = &AccessCounter{MaxBytes: maxBytes, Window: window}
}

// SetCounter attaches a (possibly shared) access counter. The paper's
// access counter budgets a whole virtual NPU, so the hypervisor attaches
// one counter to every port of the vNPU (§4.2).
func (p *Port) SetCounter(c *AccessCounter) { p.counter = c }

// ResetTransient resets the port's bandwidth-cap bucket, if any, for a
// fresh per-job timeline. Idempotent across the vNPU's ports sharing one
// counter.
func (p *Port) ResetTransient() {
	if p.counter != nil {
		p.counter.ResetTransient()
	}
}

// Transfer moves size bytes through the port starting no earlier than at,
// and returns when the transfer completes. Transfers serialize on the
// earliest-free channel of the port's subset; the access counter may delay
// the start to enforce the bandwidth cap.
func (p *Port) Transfer(at sim.Cycles, size int) (done sim.Cycles) {
	if size <= 0 {
		return at
	}
	if p.counter != nil {
		at = p.counter.Admit(at, int64(size))
	}
	dur := p.hbm.burstCycles(size)
	// Place the burst in the earliest idle gap across the port's channels
	// (ties to the first-listed channel, keeping runs deterministic).
	best := 0
	bestStart := p.cals[0].Probe(at, dur)
	for i := 1; i < len(p.cals); i++ {
		if s := p.cals[i].Probe(at, dur); s < bestStart {
			best, bestStart = i, s
		}
	}
	p.cals[best].Commit(bestStart, dur)
	p.bytes += int64(size)
	return bestStart + dur + p.hbm.latency
}

// TransferTrain moves count bursts of size bytes each, every burst issued
// when the one before it completes, and returns when the last completes:
// exactly count chained calls of Transfer. While the port has no access
// counter and its first-listed channel is idle from the issue time on, the
// rest of the train is booked there in one step: a probe of that channel
// would return the issue time, no channel can offer an earlier start, ties
// go to the first-listed channel, and the next burst issues a latency
// after this one ends — again past the channel's last reservation. When
// the channel is still busy at the issue time (another port's bursts are
// booked past it) one burst takes the per-burst path and the rest try
// again.
func (p *Port) TransferTrain(at sim.Cycles, size, count int) (done sim.Cycles) {
	if size <= 0 {
		return at
	}
	dur := p.hbm.burstCycles(size)
	stride := dur + p.hbm.latency
	for ; count > 0; count-- {
		if p.counter == nil && p.cals[0].AppendTrain(at, dur, stride, count) {
			p.bytes += int64(size) * int64(count)
			return at + stride*sim.Cycles(count)
		}
		at = p.Transfer(at, size)
	}
	return at
}

// NumChannels reports how many memory interfaces this port spans — the
// paper makes warm-up bandwidth proportional to this (§6.3.4).
func (p *Port) NumChannels() int { return len(p.channels) }

// BytesMoved reports the cumulative traffic through this port.
func (p *Port) BytesMoved() int64 { return p.bytes }

// Bandwidth reports the port's peak bandwidth in bytes per cycle.
func (p *Port) Bandwidth() int { return len(p.channels) * p.hbm.bytesPerCycle }

// AccessCounter implements the vChunk bandwidth limiter (§4.2, "Access
// Counter") as a token bucket: the virtual NPU earns MaxBytes of budget
// per Window cycles, with at most MaxBytes of accumulated burst. Requests
// are paced smoothly to the average rate rather than released in
// window-sized clumps — clumped release would head-of-line-block other
// tenants on the shared memory interface instead of protecting them.
type AccessCounter struct {
	MaxBytes int64
	Window   sim.Cycles

	level   int64 // available tokens; may go negative for oversize debt
	last    sim.Cycles
	started bool
	delayed uint64
}

// Admit returns the earliest start time at or after `at` at which a
// transfer of size bytes may begin without exceeding the rate. Requests
// larger than the bucket are admitted once the bucket is full and leave a
// debt that later requests pay off.
func (a *AccessCounter) Admit(at sim.Cycles, size int64) sim.Cycles {
	if !a.started {
		a.level = a.MaxBytes // the bucket starts full
		a.started = true
	}
	if at > a.last {
		a.level += int64(at-a.last) * a.MaxBytes / int64(a.Window)
		if a.level > a.MaxBytes {
			a.level = a.MaxBytes
		}
		a.last = at
	}
	required := size
	if required > a.MaxBytes {
		required = a.MaxBytes
	}
	if a.level < required {
		need := required - a.level
		dt := sim.Cycles((need*int64(a.Window) + a.MaxBytes - 1) / a.MaxBytes)
		at += dt
		a.level += int64(dt) * a.MaxBytes / int64(a.Window)
		if a.level > a.MaxBytes {
			a.level = a.MaxBytes
		}
		a.last = at
		a.delayed++
	}
	a.level -= size
	return at
}

// Delayed reports how many requests the counter paced to a later time — a
// direct measure of throttling.
func (a *AccessCounter) Delayed() uint64 { return a.delayed }

// ResetTransient returns the token bucket to its pre-first-admission
// state. Required between time-multiplexed jobs on a resident vNPU: each
// job's timeline restarts at cycle zero, and a bucket anchored to the
// previous job's clock would mis-pace the next. The delayed statistic is
// preserved.
func (a *AccessCounter) ResetTransient() {
	a.started = false
	a.level = 0
	a.last = 0
}
