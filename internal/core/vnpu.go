package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TranslationMode selects how a virtual NPU's global memory is virtualized
// (the Fig 14 comparison).
type TranslationMode uint8

// Translation modes.
const (
	// TranslationRange is vChunk: range translation table + range TLB.
	TranslationRange TranslationMode = iota
	// TranslationPage is the page-based IOTLB baseline.
	TranslationPage
	// TranslationNone passes physical addresses through (bare-metal
	// reference, "Physical Mem" in Fig 14).
	TranslationNone
)

// String names the mode.
func (m TranslationMode) String() string {
	switch m {
	case TranslationPage:
		return "page"
	case TranslationNone:
		return "physical"
	default:
		return "range"
	}
}

// VRouterNoCOverheadCycles is the flat per-transfer cost the NoC vRouter
// adds: fetching the routing-table entry from the core's meta zone and
// rewriting the destination core ID. Table 3 measures ~30 extra cycles on
// a vSend, i.e. 1–2% of a small transfer and noise on larger ones.
const VRouterNoCOverheadCycles sim.Cycles = 30

// VNPU is one virtual NPU: a set of physical cores presented to the guest
// as virtual cores 0..n-1 with a virtual topology, plus virtualized memory
// and interconnect (§3.2).
type VNPU struct {
	id          VMID
	dev         *npu.Device
	rt          *RoutingTable
	nodes       []topo.NodeID
	allowed     map[topo.NodeID]bool
	confined    bool
	connected   bool
	mapCost     float64
	setup       sim.Cycles
	translation TranslationMode
	memBase     uint64
	memBytes    uint64
	rttEntries  int
	blocks      []memBlock
	// routes holds a confined vNPU's own routes, k×k by virtual core,
	// each resolved on first use. They depend on the allowed set, so they
	// live and die with the vNPU; dimension-order routes are the chip's.
	routes      []*noc.Route
	interfering bool // true when confined routing was impossible (fragments)
	port        *mem.Port
	kvBytes     int64

	// dom, when non-nil, is the vNPU's private timing domain: NoC link
	// calendars and HBM channel calendars scoped to this vNPU, letting
	// spatially disjoint vNPUs execute concurrently on one chip. Opened
	// by the serving layer (OpenDomain) — the synchronous experiments
	// leave it nil and keep the shared chip-global timeline, which is
	// what lets them model cross-vNPU contention deliberately.
	dom *npu.Domain

	// leases counts serving-layer leases on this vNPU (a resident session
	// holds one while a job executes on it). Destroy refuses a leased
	// vNPU, so a pool bug — evicting a session mid-execution — surfaces
	// as a typed ErrLeased instead of yanking cores out from under a
	// running job.
	leases atomic.Int32

	// fpOnce/fp lazily cache the timing-geometry fingerprint (the
	// geometry is immutable after creation); see TimingFingerprint.
	fpOnce sync.Once
	fp     uint64
}

type memBlock struct {
	va, pa, size uint64
}

// ID returns the virtual machine identifier.
func (v *VNPU) ID() VMID { return v.id }

// Nodes returns the physical nodes in virtual-core order (Nodes[i] hosts
// vCore i). The slice is owned by the VNPU.
func (v *VNPU) Nodes() []topo.NodeID { return v.nodes }

// NumCores reports the virtual core count.
func (v *VNPU) NumCores() int { return len(v.nodes) }

// RoutingTable returns the instruction-router table.
func (v *VNPU) RoutingTable() *RoutingTable { return v.rt }

// MapCost reports the topology edit distance of the allocation.
func (v *VNPU) MapCost() float64 { return v.mapCost }

// Connected reports whether the allocated region is connected.
func (v *VNPU) Connected() bool { return v.connected }

// SetupCycles reports the controller cycles spent creating this vNPU
// (availability query + routing-table and RTT configuration; Fig 11).
func (v *VNPU) SetupCycles() sim.Cycles { return v.setup }

// Translation reports the memory-virtualization mode.
func (v *VNPU) Translation() TranslationMode { return v.translation }

// MemBase returns the guest-visible base address of the vNPU's memory:
// GuestVABase on every vNPU with memory, whose own translation gives it
// meaning, and 0 on one without.
func (v *VNPU) MemBase() uint64 { return v.memBase }

// MemBytes returns the allocated memory size.
func (v *VNPU) MemBytes() uint64 { return v.memBytes }

// RTTEntries reports how many range-translation entries back the memory.
func (v *VNPU) RTTEntries() int { return v.rttEntries }

// KVBufferBytes reports the per-core KV-cache reservation (0 when none).
func (v *VNPU) KVBufferBytes() int64 { return v.kvBytes }

// Placement returns the executor placement backed by the routing table:
// every instruction stream's virtual core ID is translated through the
// vRouter.
func (v *VNPU) Placement() npu.Placement { return vnpuPlacement{rt: v.rt} }

type vnpuPlacement struct{ rt *RoutingTable }

func (p vnpuPlacement) Node(id isa.CoreID) (topo.NodeID, error) { return p.rt.Lookup(id) }

// Fabric returns the NoC fabric with vRouter semantics: per-transfer
// routing-table overhead, and — when the vNPU was created with
// NoC confinement — paths constrained to the vNPU's own cores.
func (v *VNPU) Fabric() npu.Fabric { return &vnpuFabric{v: v} }

type vnpuFabric struct{ v *VNPU }

func (f *vnpuFabric) Transfer(start sim.Cycles, src, dst topo.NodeID, size int) (sim.Cycles, error) {
	r, err := f.v.route(src, dst)
	if err != nil {
		return start, err
	}
	if f.v.dom != nil {
		return f.v.dom.NoC().Send(start+VRouterNoCOverheadCycles, r, size, int(f.v.id))
	}
	return f.v.dev.NoC().Send(start+VRouterNoCOverheadCycles, r, size, int(f.v.id))
}

// OpenDomain gives the vNPU a private timing domain: NoC link calendars
// scoped to its routes and a private HBM calendar bank its core ports
// rebind into. After this, the vNPU's execution shares no transient
// timing state with other vNPUs, so the serving layer may run it
// concurrently with disjoint neighbors on the same chip. The device
// enforces core-set disjointness across open domains (ErrDomainOverlap).
// Idempotent once open; Destroy closes the domain.
func (v *VNPU) OpenDomain() error {
	if v.dom != nil {
		return nil
	}
	dom, err := v.dev.OpenDomain(v.nodes)
	if err != nil {
		return fmt.Errorf("core: vNPU %d: %w", v.id, err)
	}
	for _, node := range v.nodes {
		c, err := v.dev.Core(node)
		if err != nil {
			dom.Close()
			return err
		}
		if p := c.Port(); p != nil {
			p.UseBank(dom.Bank())
		}
	}
	v.dom = dom
	return nil
}

// HasDomain reports whether a private timing domain is open. The
// serving layer's region lock uses it: a domain-less vNPU must execute
// exclusively on its chip, a domained one only needs its own cores.
func (v *VNPU) HasDomain() bool { return v.dom != nil }

// closeDomain releases the vNPU's timing domain, if open. Port bindings
// are not unwound here: Destroy's releaseCore installs fresh bare-metal
// ports anyway, which is the only path that closes domains.
func (v *VNPU) closeDomain() {
	if v.dom != nil {
		v.dom.Close()
		v.dom = nil
	}
}

// ResetForRun clears the vNPU's per-job transient timing state so its
// next run starts from cycle zero. With a timing domain open the reset
// is fully scoped to the domain — neighbors keep executing undisturbed.
// Without one (the serialized model) it falls back to the chip-global
// timing reset plus this vNPU's core transients, so the caller must
// hold exclusive execution on the chip.
func (v *VNPU) ResetForRun() {
	if v.dom != nil {
		v.dom.Reset()
		return
	}
	v.dev.ResetTiming()
	v.dev.ResetCoreTransients(v.nodes)
}

// route returns the route between two of the vNPU's physical cores: a
// confined shortest path when non-interference was requested and the
// region allows it, the chip's DOR route otherwise (§4.1.2's two routing
// strategies).
func (v *VNPU) route(src, dst topo.NodeID) (*noc.Route, error) {
	net := v.dev.NoC()
	if !v.confined || v.interfering {
		return net.DOR(src, dst)
	}
	k := len(v.nodes)
	s, d := slices.Index(v.nodes, src), slices.Index(v.nodes, dst)
	if s >= 0 && d >= 0 && v.routes != nil {
		if r := v.routes[s*k+d]; r != nil {
			return r, nil
		}
	}
	// ConstrainedPath refuses an endpoint outside the vNPU, so past it
	// both indices are valid.
	path, err := noc.ConstrainedPath(net.Graph(), src, dst, v.allowed)
	if err != nil {
		return nil, fmt.Errorf("core: vNPU %d: %w", v.id, err)
	}
	r, err := net.Resolve(path)
	if err != nil {
		return nil, err
	}
	if v.routes == nil {
		v.routes = make([]*noc.Route, k*k)
	}
	v.routes[s*k+d] = r
	return r, nil
}

// Interfering reports whether this vNPU's traffic may cross foreign cores
// (true for disconnected fragment allocations or unconfined routing).
func (v *VNPU) Interfering() bool { return v.interfering || !v.confined }

// WarmupCycles models loading weightBytes of model weights from global
// memory into the scratchpads before execution starts (§6.3.4). Bandwidth
// is proportional to the vNPU's memory interfaces.
func (v *VNPU) WarmupCycles(weightBytes int64) sim.Cycles {
	if weightBytes <= 0 || v.port == nil {
		return 0
	}
	bw := v.port.Bandwidth()
	return sim.Cycles((weightBytes+int64(bw)-1)/int64(bw)) + v.dev.Config().HBMLatency
}

// Lease takes a serving-layer lease on the vNPU. While at least one
// lease is held, Destroy fails with ErrLeased. Leases protect resident
// (pooled) vNPUs from being evicted while a job executes on them.
func (v *VNPU) Lease() { v.leases.Add(1) }

// Unlease drops one lease taken with Lease.
func (v *VNPU) Unlease() {
	if v.leases.Add(-1) < 0 {
		panic("core: vNPU lease underflow")
	}
}

// Leased reports whether any serving-layer lease is held.
func (v *VNPU) Leased() bool { return v.leases.Load() > 0 }

// MemChannels reports how many HBM interfaces the vNPU spans.
func (v *VNPU) MemChannels() int {
	if v.port == nil {
		return 0
	}
	return v.port.NumChannels()
}
