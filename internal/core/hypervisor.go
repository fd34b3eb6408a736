package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Request describes the virtual NPU a tenant asks for (§5.2: core count,
// topology, memory size, plus policy knobs).
type Request struct {
	// Topology is the requested virtual topology; its node IDs must be
	// 0..n-1 and become the virtual core IDs.
	Topology *topo.Graph
	// Strategy picks the core-allocation policy (default StrategySimilar).
	Strategy Strategy
	// Confined requests NoC non-interference: packets never leave the
	// vNPU's cores (§4.1.2).
	Confined bool
	// MemoryBytes of global memory to allocate (0 = none).
	MemoryBytes uint64
	// Translation selects the memory-virtualization mode (default vChunk).
	Translation TranslationMode
	// PageTLBEntries sizes the IOTLB in TranslationPage mode (default 32).
	PageTLBEntries int
	// MemChannels is the number of HBM interfaces to span (0 = a share
	// proportional to the core count).
	MemChannels int
	// BandwidthCapBytes/BandwidthWindow install a vChunk access-counter
	// bandwidth cap when both are positive.
	BandwidthCapBytes int64
	BandwidthWindow   sim.Cycles
	// KVBufferBytes reserves a fixed-size KV-cache buffer in every core's
	// scratchpad for decode-phase transformer workloads (§7: commercial
	// NPUs pre-allocate a fixed KV buffer). The weight zone shrinks
	// accordingly.
	KVBufferBytes int64
	// MapOptions customizes edit-distance costs (heterogeneous nodes,
	// critical edges). The zero value is the paper's default.
	MapOptions ged.Options
}

// minMemBlock is the smallest buddy block (and RTT range granularity).
const minMemBlock = 64 << 10

// GuestVABase is where every vNPU's guest memory starts. Guest address
// spaces need not be disjoint: each vNPU translates through its own RTT
// (vChunk, §4.2), which maps only that vNPU's blocks, so one guest address
// means a different physical range on each vNPU. A shared base lets one
// compiled program serve every vNPU of its shape without a copy.
const GuestVABase = 1 << 32

// Hypervisor owns the physical NPU's virtualization state: free cores,
// meta tables, and the buddy allocator over HBM (§5.2). It is the only
// component allowed to drive the controller's hyper-mode operations.
//
// A Hypervisor is safe for concurrent use: CreateVNPU, Destroy, Reserve
// and the read-side accessors may be called from multiple goroutines (the
// cluster dispatcher places vNPUs while chip workers destroy finished
// ones). Executing workloads on the device is not covered by this lock —
// the serving layer runs each vNPU inside its own timing domain (see
// VNPU.OpenDomain) and serializes only overlapping core regions, so
// disjoint vNPUs execute concurrently.
type Hypervisor struct {
	dev *npu.Device

	mu        sync.Mutex
	free      map[topo.NodeID]bool
	freeCount int // how many entries of free are true
	vms       map[VMID]*VNPU
	nextVM    VMID
	buddy     *mem.Buddy
	nextCh    int
}

// NewHypervisor takes ownership of the device: it enters hyper mode and
// claims every core's meta zone.
func NewHypervisor(dev *npu.Device) (*Hypervisor, error) {
	// Buddy pools must be a power of two; use the largest one that fits.
	pool := mem.PoolSize(uint64(dev.Config().HBMCapacityBytes))
	buddy, err := mem.NewBuddy(pool, minMemBlock)
	if err != nil {
		return nil, err
	}
	h := &Hypervisor{
		dev:    dev,
		free:   make(map[topo.NodeID]bool),
		vms:    make(map[VMID]*VNPU),
		nextVM: 1,
		buddy:  buddy,
	}
	for _, id := range dev.Graph().Nodes() {
		h.setFree(id, true)
		c, err := dev.Core(id)
		if err != nil {
			return nil, err
		}
		if err := c.ReserveMetaZone(dev.Config().MetaZoneBytes); err != nil {
			return nil, err
		}
	}
	dev.Controller().EnterHyperMode()
	return h, nil
}

// Device returns the managed device.
func (h *Hypervisor) Device() *npu.Device { return h.dev }

// MemCapacity reports the total HBM pool the hypervisor can allocate from
// — an upper bound on any single request's MemoryBytes.
func (h *Hypervisor) MemCapacity() uint64 { return h.buddy.Total() }

// FreeCores lists currently unallocated cores in ascending order.
func (h *Hypervisor) FreeCores() []topo.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.freeCoresLocked()
}

func (h *Hypervisor) freeCoresLocked() []topo.NodeID {
	out := make([]topo.NodeID, 0, h.freeCount)
	for id, ok := range h.free {
		if ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// FreeCount reports how many cores are unallocated: len(FreeCores())
// without building the list.
func (h *Hypervisor) FreeCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.freeCount
}

// setFree moves a core into or out of the free pool, keeping the count.
// The caller holds the hypervisor lock.
func (h *Hypervisor) setFree(node topo.NodeID, free bool) {
	if h.free[node] != free {
		h.free[node] = free
		if free {
			h.freeCount++
		} else {
			h.freeCount--
		}
	}
}

// Utilization reports the fraction of cores currently allocated.
func (h *Hypervisor) Utilization() float64 {
	total := h.dev.Config().Cores()
	return float64(total-h.FreeCount()) / float64(total)
}

// VNPUs lists live virtual NPUs in creation order.
func (h *Hypervisor) VNPUs() []*VNPU {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]VMID, 0, len(h.vms))
	for id := range h.vms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*VNPU, len(ids))
	for i, id := range ids {
		out[i] = h.vms[id]
	}
	return out
}

// Reserve marks cores as unavailable without creating a vNPU — used to
// model pre-occupied chips (the red nodes of Fig 18).
func (h *Hypervisor) Reserve(nodes ...topo.NodeID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range nodes {
		if !h.free[n] {
			return fmt.Errorf("core: node %d is not free: %w", n, ErrNoCapacity)
		}
	}
	for _, n := range nodes {
		h.setFree(n, false)
	}
	return nil
}

// CreateVNPU allocates cores, memory and meta tables for a new virtual
// NPU according to the request. Failures roll back every partial
// allocation (cores, memory, meta zones), leaving the chip unchanged.
func (h *Hypervisor) CreateVNPU(req Request) (*VNPU, error) {
	if req.Topology == nil || req.Topology.NumNodes() == 0 {
		return nil, fmt.Errorf("core: request needs a topology")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	mapRes, err := MapTopology(h.dev.Graph(), h.freeCoresLocked(), req.Topology, req.Strategy, req.MapOptions)
	if err != nil {
		return nil, err
	}
	return h.createMappedLocked(req, mapRes)
}

// CreateVNPUPlaced creates a vNPU on a precomputed topology mapping (e.g.
// one resolved by the placement engine) instead of re-running MapTopology
// on the dispatch path. The placement is validated against the current
// free set under the hypervisor lock: a stale mapping — any core no longer
// free — fails with ErrNoCapacity and leaves the chip unchanged, so a
// cached decision can go stale but never double-allocate a core.
func (h *Hypervisor) CreateVNPUPlaced(req Request, mapRes MapResult) (*VNPU, error) {
	if req.Topology == nil || req.Topology.NumNodes() == 0 {
		return nil, fmt.Errorf("core: request needs a topology")
	}
	if got, want := len(mapRes.Nodes), req.Topology.NumNodes(); got != want {
		return nil, fmt.Errorf("core: placement has %d nodes for a %d-core topology", got, want)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[topo.NodeID]bool, len(mapRes.Nodes))
	for _, n := range mapRes.Nodes {
		if seen[n] {
			return nil, fmt.Errorf("core: placement maps node %d twice", n)
		}
		seen[n] = true
		if !h.free[n] {
			return nil, fmt.Errorf("core: placed node %d is not free (stale placement): %w", n, ErrNoCapacity)
		}
	}
	return h.createMappedLocked(req, mapRes)
}

// createMappedLocked materializes a vNPU for an already-chosen core
// mapping: controller setup, memory, meta tables, per-core configuration.
// The caller holds the hypervisor lock and has validated the mapping.
func (h *Hypervisor) createMappedLocked(req Request, mapRes MapResult) (*VNPU, error) {
	k := len(mapRes.Nodes)
	ctrl := h.dev.Controller()

	// Controller-side setup cost (Fig 11): availability query over the
	// free pool plus routing-table configuration.
	setup, err := ctrl.QueryAvailability(k)
	if err != nil {
		return nil, err
	}
	vm := h.nextVM
	rt := buildRoutingTable(vm, h.dev.Graph(), req.Topology, mapRes.Nodes, h.dev.Config().MeshCols)
	cfgCycles, err := ctrl.ConfigureRoutingTable(rt.HardwareEntries())
	if err != nil {
		return nil, err
	}
	setup += cfgCycles

	// Global memory: buddy blocks become RTT ranges directly (§5.2).
	blocks, err := h.allocMemory(vm, req.MemoryBytes)
	if err != nil {
		return nil, err
	}
	// rollback undoes every allocation made so far: memory blocks plus any
	// cores already configured, restoring them to bare-metal state.
	configured := make([]topo.NodeID, 0, k)
	rollback := func() {
		for _, b := range blocks {
			_ = h.buddy.Free(b.pa)
		}
		for _, node := range configured {
			_ = h.releaseCore(node)
		}
	}

	// Meta-zone budget: routing table + RTT must fit the reserved zone.
	metaBits := rt.SizeBits() + len(blocks)*mem.RTTEntryBits
	if int64(metaBits/8) > h.dev.Config().MetaZoneBytes {
		rollback()
		return nil, fmt.Errorf("core: meta tables need %d bits, zone holds %d bytes: %w",
			metaBits, h.dev.Config().MetaZoneBytes, ErrMemoryExceeded)
	}

	// Memory interfaces: a share proportional to the core count unless
	// pinned, assigned round-robin.
	channels := req.MemChannels
	totalCh := h.dev.Config().HBMChannels
	if channels <= 0 {
		channels = (totalCh*k + h.dev.Config().Cores() - 1) / h.dev.Config().Cores()
		if channels < 1 {
			channels = 1
		}
	}
	if channels > totalCh {
		channels = totalCh
	}
	chIdx := make([]int, channels)
	for i := range chIdx {
		chIdx[i] = (h.nextCh + i) % totalCh
	}
	h.nextCh = (h.nextCh + channels) % totalCh

	v := &VNPU{
		id:          vm,
		dev:         h.dev,
		rt:          rt,
		nodes:       mapRes.Nodes,
		allowed:     make(map[topo.NodeID]bool, k),
		confined:    req.Confined,
		connected:   mapRes.Connected,
		mapCost:     mapRes.Cost,
		translation: req.Translation,
		memBytes:    req.MemoryBytes,
		kvBytes:     req.KVBufferBytes,
		rttEntries:  len(blocks),
		blocks:      blocks,
		interfering: !mapRes.Connected,
	}
	if len(blocks) > 0 {
		v.memBase = blocks[0].va
	}

	// Per-core configuration: ownership, ports, translators, RTT copies.
	// The RTT rows are the same for every core; each core still gets its
	// own table from NewRTT, whose cursor and last_v hints are per-core
	// lookup state.
	rttEntries := make([]mem.RTTEntry, len(blocks))
	for i, b := range blocks {
		rttEntries[i] = mem.RTTEntry{VA: b.va, PA: b.pa, Size: b.size, Perm: mem.PermRW, LastV: -1}
	}
	var pageTable *mem.PageTable
	if req.Translation == TranslationPage && len(blocks) > 0 {
		pageTable = mem.NewPageTable()
		for _, b := range blocks {
			if err := pageTable.Map(b.va, b.pa, b.size, mem.PermRW); err != nil {
				rollback()
				return nil, err
			}
		}
	}
	for _, node := range mapRes.Nodes {
		v.allowed[node] = true
	}
	// The access counter budgets the whole vNPU: one shared counter across
	// all its ports (§4.2).
	var sharedCap *mem.AccessCounter
	if req.BandwidthCapBytes > 0 && req.BandwidthWindow > 0 {
		sharedCap = &mem.AccessCounter{MaxBytes: req.BandwidthCapBytes, Window: req.BandwidthWindow}
	}
	if req.KVBufferBytes < 0 || h.dev.Config().MetaZoneBytes+req.KVBufferBytes >= h.dev.Config().ScratchpadBytes {
		rollback()
		return nil, fmt.Errorf("core: KV buffer %d does not fit the scratchpad: %w",
			req.KVBufferBytes, ErrMemoryExceeded)
	}
	for _, node := range mapRes.Nodes {
		coreObj, err := h.dev.Core(node)
		if err != nil {
			rollback()
			return nil, err
		}
		h.setFree(node, false)
		h.dev.NoC().SetOwner(node, int(vm))
		configured = append(configured, node)
		if req.KVBufferBytes > 0 {
			if err := coreObj.ReserveMetaZone(h.dev.Config().MetaZoneBytes + req.KVBufferBytes); err != nil {
				rollback()
				return nil, err
			}
		}
		port, err := h.dev.HBM().Port(chIdx...)
		if err != nil {
			rollback()
			return nil, err
		}
		if sharedCap != nil {
			port.SetCounter(sharedCap)
		}
		coreObj.SetPort(port)
		if v.port == nil {
			v.port = port
		}
		switch req.Translation {
		case TranslationNone:
			coreObj.SetTranslator(&mem.Identity{})
		case TranslationPage:
			entries := req.PageTLBEntries
			if entries <= 0 {
				entries = 32
			}
			coreObj.SetTranslator(mem.NewPageTranslator(pageTable, entries))
		default:
			rtt, err := mem.NewRTT(rttEntries)
			if err != nil {
				rollback()
				return nil, err
			}
			coreObj.SetTranslator(mem.NewRangeTranslator(rtt))
		}
		rttCycles, err := ctrl.ConfigureRTT(len(blocks))
		if err != nil {
			rollback()
			return nil, err
		}
		setup += rttCycles
	}
	v.setup = setup
	h.vms[vm] = v
	h.nextVM++
	return v, nil
}

// Destroy releases a vNPU's cores, memory and meta tables. Destroying a
// vNPU that does not exist (or was already destroyed) returns an error
// matching ErrDestroyed; destroying one with an active serving lease
// (see VNPU.Lease) fails with ErrLeased and leaves it untouched — the
// lease-safe guard that keeps session-pool eviction from tearing down a
// vNPU mid-execution.
func (h *Hypervisor) Destroy(vm VMID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.vms[vm]
	if !ok {
		return fmt.Errorf("core: no vNPU %d: %w", vm, ErrDestroyed)
	}
	if v.Leased() {
		return fmt.Errorf("core: vNPU %d has an active session lease: %w", vm, ErrLeased)
	}
	// Release the timing domain first so its cores are claimable by the
	// next domain; releaseCore then installs fresh bare-metal ports,
	// which also unwinds any bank binding.
	v.closeDomain()
	for _, node := range v.nodes {
		if err := h.releaseCore(node); err != nil {
			return err
		}
	}
	for _, b := range v.blocks {
		if err := h.buddy.Free(b.pa); err != nil {
			return err
		}
	}
	delete(h.vms, vm)
	return nil
}

// releaseCore returns one core to bare-metal state — free pool, unowned,
// base meta zone, all-channel port, identity translation — the inverse of
// the per-core setup in CreateVNPU. Both Destroy and the create rollback
// go through it so teardown cannot drift between the two paths.
func (h *Hypervisor) releaseCore(node topo.NodeID) error {
	h.setFree(node, true)
	h.dev.NoC().SetOwner(node, noc.Unowned)
	coreObj, err := h.dev.Core(node)
	if err != nil {
		return err
	}
	if err := coreObj.ReserveMetaZone(h.dev.Config().MetaZoneBytes); err != nil {
		return err
	}
	port, err := h.dev.HBM().Port()
	if err != nil {
		return err
	}
	coreObj.SetPort(port)
	coreObj.SetTranslator(&mem.Identity{})
	return nil
}

// allocMemory carves size bytes into power-of-two buddy blocks and assigns
// them consecutive guest virtual addresses from GuestVABase. Each block
// becomes one RTT entry — the whole point of range translation (§5.2:
// "maps an entire block directly into the RTT entry").
func (h *Hypervisor) allocMemory(vm VMID, size uint64) ([]memBlock, error) {
	if size == 0 {
		return nil, nil
	}
	// A request beyond the whole pool can never succeed — that is a
	// budget violation, not the transient ErrNoCapacity, which would
	// steer retry loops into spinning forever.
	if size > h.buddy.Total() {
		return nil, fmt.Errorf("core: vNPU %d requests %d bytes, pool holds %d: %w",
			vm, size, h.buddy.Total(), ErrMemoryExceeded)
	}
	// Round up to the minimum block and split into the binary
	// decomposition, largest blocks first.
	rounded := (size + minMemBlock - 1) &^ uint64(minMemBlock-1)
	var blocks []memBlock
	va := uint64(GuestVABase)
	for rem := rounded; rem > 0; {
		block := uint64(1) << (63 - bits.LeadingZeros64(rem))
		if block < minMemBlock {
			block = minMemBlock
		}
		pa, err := h.buddy.Alloc(block)
		if err != nil {
			for _, b := range blocks {
				_ = h.buddy.Free(b.pa)
			}
			return nil, fmt.Errorf("core: allocating %d bytes for vNPU %d: %v: %w", size, vm, err, ErrNoCapacity)
		}
		blocks = append(blocks, memBlock{va: va, pa: pa, size: block})
		va += block
		if rem <= block {
			break
		}
		rem -= block
	}
	return blocks, nil
}

// buildRoutingTable picks the shaped single-entry format when the request
// is a full rows x cols mesh mapped row-major onto an axis-aligned
// physical rectangle, and the standard per-core format otherwise (Fig 4).
func buildRoutingTable(vm VMID, phys, req *topo.Graph, nodes []topo.NodeID, meshCols int) *RoutingTable {
	if rows, cols, ok := rectangleRowMajor(phys, req, nodes); ok {
		if rt, err := NewShapedRT(vm, 0, nodes[0], rows, cols, meshCols); err == nil {
			return rt
		}
	}
	m := make(map[isa.CoreID]topo.NodeID, len(nodes))
	for v, p := range nodes {
		m[isa.CoreID(v)] = p
	}
	return NewStandardRT(vm, m)
}

// rectangleRowMajor reports whether nodes form an axis-aligned rectangle
// traversed row-major, and whether the request is the matching full mesh.
// The positional condition is read off the coordinates alone; mesh-ness is
// then decided exactly — the right edge count and every grid-neighbour
// pair wired — never by a collision-tolerant signature.
func rectangleRowMajor(phys, req *topo.Graph, nodes []topo.NodeID) (rows, cols int, ok bool) {
	n := len(nodes)
	if n == 0 || req.NumNodes() != n {
		return 0, 0, false
	}
	first, hasFirst := phys.CoordOf(nodes[0])
	last, hasLast := phys.CoordOf(nodes[n-1])
	if !hasFirst || !hasLast {
		return 0, 0, false
	}
	rows = last.Y - first.Y + 1
	cols = last.X - first.X + 1
	if rows < 1 || cols < 1 || rows*cols != n {
		return 0, 0, false
	}
	for v, p := range nodes {
		c, has := phys.CoordOf(p)
		if !has || c.X != first.X+v%cols || c.Y != first.Y+v/cols {
			return 0, 0, false
		}
	}
	if req.NumEdges() != rows*(cols-1)+cols*(rows-1) {
		return 0, 0, false
	}
	for v := 0; v < n; v++ {
		if v%cols+1 < cols && !req.HasEdge(topo.NodeID(v), topo.NodeID(v+1)) {
			return 0, 0, false
		}
		if v/cols+1 < rows && !req.HasEdge(topo.NodeID(v), topo.NodeID(v+cols)) {
			return 0, 0, false
		}
	}
	return rows, cols, true
}
