package npu

import (
	"context"
	"fmt"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Placement maps ISA-level core IDs to physical mesh nodes. Bare metal uses
// the identity; a virtual NPU's placement is its routing table.
type Placement interface {
	Node(id isa.CoreID) (topo.NodeID, error)
}

// IdentityPlacement places core i on mesh node i.
type IdentityPlacement struct{ Graph *topo.Graph }

// Node implements Placement.
func (p IdentityPlacement) Node(id isa.CoreID) (topo.NodeID, error) {
	n := topo.NodeID(id)
	if !p.Graph.HasNode(n) {
		return 0, fmt.Errorf("npu: no physical core %d", id)
	}
	return n, nil
}

// Fabric moves send/receive payloads between physical cores. The physical
// device uses the NoC (NoCFabric); the UVM baseline synchronizes through
// global memory; the vNPU fabric adds vRouter translation and confined
// routing.
type Fabric interface {
	// Transfer moves size bytes from src to dst starting no earlier than
	// start, returning the time the payload is available at dst.
	Transfer(start sim.Cycles, src, dst topo.NodeID, size int) (sim.Cycles, error)
}

// NoCFabric routes transfers over the chip NoC with dimension-order
// routing — the bare-metal data path.
type NoCFabric struct {
	Net *noc.Network
	// VM tags packets for interference accounting (noc.Unowned on bare
	// metal).
	VM int
}

// Transfer implements Fabric.
func (f *NoCFabric) Transfer(start sim.Cycles, src, dst topo.NodeID, size int) (sim.Cycles, error) {
	r, err := f.Net.DOR(src, dst)
	if err != nil {
		return start, err
	}
	return f.Net.Send(start, r, size, f.VM)
}

// SpanKind labels an execution span for core-trace collection (the
// COMP/SEND/RECEIVE lanes at the bottom of Fig 18).
type SpanKind uint8

// Span kinds.
const (
	SpanCompute SpanKind = iota
	SpanDMA
	SpanSend
	SpanRecv
	SpanBarrier
)

var spanNames = [...]string{"COMP", "DMA", "SEND", "RECEIVE", "BARRIER"}

// String names the span kind using Fig 18's labels.
func (k SpanKind) String() string {
	if int(k) < len(spanNames) {
		return spanNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// RunOptions tunes one execution.
type RunOptions struct {
	// Iterations repeats the program (one inference per iteration).
	// 0 means 1.
	Iterations int
	// Ctx, when non-nil, makes the run cancelable: the execution loop
	// polls it between timeline events (coarse-grained — every
	// cancelCheckEvery instruction steps) and aborts with the context's
	// error, so canceling a serving job frees its chip promptly instead
	// of after the full simulated workload.
	Ctx context.Context
	// MemTrace, when non-nil, receives every DMA burst (Fig 6).
	MemTrace func(core isa.CoreID, iter int, va uint64, at sim.Cycles)
	// Span, when non-nil, receives every execution span (Fig 18 bottom).
	Span func(core isa.CoreID, kind SpanKind, start, end sim.Cycles)
}

// CoreStats aggregates one core's activity over a run.
type CoreStats struct {
	Instrs  int
	Compute sim.Cycles
	DMA     sim.Cycles
	Comm    sim.Cycles
	Finish  sim.Cycles
}

// Result is the outcome of one Run.
type Result struct {
	// Cycles is the makespan: the time the last core finished.
	Cycles sim.Cycles
	// PerCore holds per-stream statistics keyed by ISA core ID.
	PerCore map[isa.CoreID]CoreStats
	// Iterations echoes the executed iteration count.
	Iterations int
}

// FPSAt converts the makespan into inferences per second at the given
// clock frequency.
func (r Result) FPSAt(freqMHz int) float64 {
	if r.Cycles == 0 {
		return 0
	}
	iters := r.Iterations
	if iters == 0 {
		iters = 1
	}
	return float64(iters) * float64(freqMHz) * 1e6 / float64(r.Cycles)
}

// recvDrainCycles is the receiver-side cost of draining a completed
// transfer into the scratchpad — the small vReceive-vs-vSend delta visible
// in Table 3.
const recvDrainCycles = 2

// barrierCycles is the cost of a full-program barrier.
const barrierCycles = 16

// cancelCheckEvery bounds how many instruction steps may execute between
// two polls of RunOptions.Ctx.
const cancelCheckEvery = 64

type coreState struct {
	id     isa.CoreID
	node   topo.NodeID
	core   *Core
	stream []isa.Instr
	pc     int
	iter   int
	iters  int
	time   sim.Cycles
	stats  CoreStats
}

// wrap advances the stream to the next iteration when the current one has
// finished. It reports whether the stream still has work.
func (st *coreState) wrap() bool {
	if len(st.stream) == 0 {
		return false
	}
	if st.pc >= len(st.stream) && st.iter+1 < st.iters {
		st.iter++
		st.pc = 0
	}
	return st.pc < len(st.stream)
}

// Run executes the program on the device. Placement maps streams to
// physical cores (each stream needs a distinct core); fabric carries
// send/receive payloads. Execution is deterministic.
//
// Iterations proceed per stream: a core that finishes iteration i starts
// iteration i+1 immediately, so pipeline stages (and co-running tenants)
// overlap across iterations exactly as on the spatial hardware. Barriers
// remain global synchronization points.
func (d *Device) Run(prog *isa.Program, pl Placement, fab Fabric, opts RunOptions) (Result, error) {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 1
	}
	ids := prog.Cores()
	if len(ids) == 0 {
		return Result{Iterations: iters}, nil
	}
	states := make([]*coreState, 0, len(ids))
	byID := make(map[isa.CoreID]*coreState, len(ids))
	usedNodes := make(map[topo.NodeID]isa.CoreID, len(ids))
	for _, id := range ids {
		node, err := pl.Node(id)
		if err != nil {
			return Result{}, fmt.Errorf("npu: placing stream %d: %w", id, err)
		}
		if prev, clash := usedNodes[node]; clash {
			return Result{}, fmt.Errorf("npu: streams %d and %d both placed on node %d", prev, id, node)
		}
		usedNodes[node] = id
		core, err := d.Core(node)
		if err != nil {
			return Result{}, err
		}
		st := &coreState{id: id, node: node, core: core, stream: prog.Stream(id), iters: iters}
		states = append(states, st)
		byID[id] = st
		if opts.MemTrace != nil {
			st := st
			st.core.dma.Trace = func(va uint64, at sim.Cycles) { opts.MemTrace(st.id, st.iter, va, at) }
		}
	}

	err := d.execute(states, byID, fab, opts)
	for _, st := range states {
		st.core.dma.Trace = nil
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{PerCore: make(map[isa.CoreID]CoreStats, len(states)), Iterations: iters}
	for _, st := range states {
		st.stats.Finish = st.time
		res.PerCore[st.id] = st.stats
		if st.time > res.Cycles {
			res.Cycles = st.time
		}
	}
	return res, nil
}

// execute advances every stream through all its iterations.
//
// Scheduling policy: among all streams whose next instruction can run, the
// one with the smallest local time executes one instruction. Advancing
// streams in simulated-time order keeps reservations on shared resources
// (HBM channels, NoC links) in near-time order, so contention between
// co-running tenants is modeled faithfully rather than by arrival order of
// the host loop. Ties break to the lowest core ID, keeping runs
// deterministic.
func (d *Device) execute(states []*coreState, byID map[isa.CoreID]*coreState, fab Fabric, opts RunOptions) error {
	cancel := sim.NewCancelCheck(opts.Ctx, cancelCheckEvery)
	for {
		if err := cancel.Err(); err != nil {
			return fmt.Errorf("npu: run canceled: %w", err)
		}
		var pick *coreState
		allDone := true
		for _, st := range states {
			if !st.wrap() {
				continue
			}
			allDone = false
			if !d.runnable(st, byID) {
				continue
			}
			if pick == nil || st.time < pick.time {
				pick = st
			}
		}
		if allDone {
			return nil
		}
		if pick == nil {
			// Nothing runnable: everyone is at a barrier, or we deadlocked.
			if ok := d.tryBarrier(states, opts); ok {
				continue
			}
			return deadlockError(states)
		}
		if err := d.step(pick, byID, fab, opts); err != nil {
			return err
		}
	}
}

// runnable reports whether st's next instruction can execute now. Receives
// complete from the matching send's side; barriers fire collectively.
func (d *Device) runnable(st *coreState, byID map[isa.CoreID]*coreState) bool {
	in := st.stream[st.pc]
	switch in.Op {
	case isa.OpRecv, isa.OpBarrier:
		return false
	case isa.OpSend:
		peer, ok := byID[in.Peer]
		if !ok || !peer.wrap() {
			return true // surfaces an error in step
		}
		match := peer.stream[peer.pc]
		return match.Op == isa.OpRecv && match.Peer == st.id && match.Tag == in.Tag
	default:
		return true
	}
}

// step executes one instruction of st.
func (d *Device) step(st *coreState, byID map[isa.CoreID]*coreState, fab Fabric, opts RunOptions) error {
	in := st.stream[st.pc]
	switch in.Op {
	case isa.OpNop:
		st.time++

	case isa.OpMatmul, isa.OpConv, isa.OpVector:
		cost := d.cfg.ComputeCyclesOn(st.core.kind, in)
		if opts.Span != nil {
			opts.Span(st.id, SpanCompute, st.time, st.time+cost)
		}
		st.time += cost
		st.stats.Compute += cost

	case isa.OpDMALoad, isa.OpDMAStore:
		if int64(in.SPAddr)+int64(in.Size) > st.core.WeightZoneBytes() {
			return fmt.Errorf("core %d: %s overflows weight zone (%d bytes)", st.id, in, st.core.WeightZoneBytes())
		}
		start := st.time
		done, err := st.core.dma.Transfer(start, in.VAddr, int(in.Size))
		if err != nil {
			return fmt.Errorf("core %d: %s: %w", st.id, in, err)
		}
		if opts.Span != nil {
			opts.Span(st.id, SpanDMA, start, done)
		}
		st.stats.DMA += done - start
		st.time = done

	case isa.OpSend:
		peer, ok := byID[in.Peer]
		if !ok {
			return fmt.Errorf("core %d: send to absent core %d", st.id, in.Peer)
		}
		if !peer.wrap() {
			return fmt.Errorf("core %d: send to finished core %d", st.id, in.Peer)
		}
		match := peer.stream[peer.pc]
		if match.Size != in.Size {
			return fmt.Errorf("send/recv size mismatch %d->%d tag %d", st.id, in.Peer, in.Tag)
		}
		start := st.time
		if peer.time > start {
			start = peer.time
		}
		done, err := fab.Transfer(start, st.node, peer.node, int(in.Size))
		if err != nil {
			return fmt.Errorf("core %d -> %d: %w", st.id, in.Peer, err)
		}
		if opts.Span != nil {
			opts.Span(st.id, SpanSend, start, done)
			opts.Span(peer.id, SpanRecv, start, done+recvDrainCycles)
		}
		st.stats.Comm += done - start
		peer.stats.Comm += done + recvDrainCycles - start
		st.time = done
		peer.time = done + recvDrainCycles
		peer.pc++
		peer.stats.Instrs++

	default:
		return fmt.Errorf("core %d: unsupported opcode %v", st.id, in.Op)
	}
	st.pc++
	st.stats.Instrs++
	return nil
}

// tryBarrier fires a global barrier when every unfinished stream is parked
// on one; it reports whether a barrier fired.
func (d *Device) tryBarrier(states []*coreState, opts RunOptions) bool {
	any := false
	var maxTime sim.Cycles
	for _, st := range states {
		if st.pc >= len(st.stream) {
			continue
		}
		if st.stream[st.pc].Op != isa.OpBarrier {
			return false
		}
		any = true
		if st.time > maxTime {
			maxTime = st.time
		}
	}
	if !any {
		return false
	}
	for _, st := range states {
		if st.pc >= len(st.stream) {
			continue
		}
		if opts.Span != nil {
			opts.Span(st.id, SpanBarrier, st.time, maxTime+barrierCycles)
		}
		st.time = maxTime + barrierCycles
		st.pc++
		st.stats.Instrs++
	}
	return true
}

func deadlockError(states []*coreState) error {
	msg := "deadlock:"
	for _, st := range states {
		if st.pc >= len(st.stream) {
			continue
		}
		msg += fmt.Sprintf(" core %d blocked at [%d]%s;", st.id, st.pc, st.stream[st.pc])
	}
	return fmt.Errorf("npu: %s", msg)
}
