package npu

import (
	"errors"
	"fmt"
	"sync"

	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// ErrDomainOverlap reports an OpenDomain call whose core set intersects
// an already open timing domain — spatial isolation requires disjoint
// regions, so overlapping domains are refused outright.
var ErrDomainOverlap = errors.New("npu: core set overlaps an open timing domain")

// Device is one physical inter-core connected NPU chip.
type Device struct {
	cfg   Config
	graph *topo.Graph
	net   *noc.Network
	hbm   *mem.HBM
	cores map[topo.NodeID]*Core
	ctrl  *Controller

	domMu    sync.Mutex
	domOwner map[topo.NodeID]*Domain // core -> open timing domain
	// idle are the timing scopes of closed domains — NoC link calendars
	// and HBM calendar bank, reset and unbound — kept so the next domain
	// starts on storage that has already grown to a job's size. There are
	// never more than the most domains that were open at once.
	idle []timingScope

	// fpOnce/fp lazily cache the chip's timing fingerprint (the
	// configuration is immutable after NewDevice); see TimingFingerprint.
	fpOnce sync.Once
	fp     uint64
}

// NewDevice builds a chip from the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := topo.Mesh2D(cfg.MeshRows, cfg.MeshCols)
	d := &Device{
		cfg:      cfg,
		graph:    g,
		net:      noc.New(g, cfg.NoC),
		hbm:      mem.NewHBM(cfg.HBMChannels, cfg.HBMBytesPerCycle, cfg.HBMLatency),
		cores:    make(map[topo.NodeID]*Core, cfg.Cores()),
		domOwner: make(map[topo.NodeID]*Domain),
	}
	for _, id := range g.Nodes() {
		port, err := d.hbm.Port() // default: all channels
		if err != nil {
			return nil, err
		}
		var ident mem.Identity
		d.cores[id] = &Core{
			node: id,
			dev:  d,
			dma:  mem.NewDMAEngine(port, &ident),
		}
	}
	d.ctrl = &Controller{dev: d}
	return d, nil
}

// Config returns the chip configuration.
func (d *Device) Config() Config { return d.cfg }

// Graph returns the physical topology.
func (d *Device) Graph() *topo.Graph { return d.graph }

// NoC returns the on-chip network.
func (d *Device) NoC() *noc.Network { return d.net }

// HBM returns the global memory.
func (d *Device) HBM() *mem.HBM { return d.hbm }

// Controller returns the NPU controller.
func (d *Device) Controller() *Controller { return d.ctrl }

// ResetTiming clears the transient reservation state of the chip's
// GLOBAL shared resources — the chip-wide HBM channel calendars and NoC
// link calendars — so the next synchronous Run starts from cycle zero.
// vNPU allocations, ownership tags and translator state are untouched
// (see ResetCoreTransients for per-core state).
//
// This is the reset of the serialized execution model: the experiments
// that deliberately run several vNPUs in ONE shared timeline (to measure
// cross-vNPU memory/NoC contention) reset the whole chip between
// combined runs and must not call it concurrently with an active Run.
// The concurrent serving paths never call it per job anymore — each vNPU
// executes inside its own timing Domain and resets only that
// (Domain.Reset), which is what lets spatially disjoint vNPUs run
// overlapped on one chip.
func (d *Device) ResetTiming() {
	d.hbm.Reset()
	d.net.ResetTiming()
}

// ResetCoreTransients clears the per-job microarchitectural transients of
// the given cores: translation TLBs, RTT lookup hints and bandwidth-cap
// buckets. Together with a timing reset (ResetTiming for the shared
// timeline, Domain.Reset for a concurrent per-vNPU one) it makes a
// resident (session-pooled) vNPU timing-equivalent to a freshly created
// one — reuse skips the create path, not the per-job state reset.
// Translation mappings and cumulative statistics are untouched. The
// caller must own the cores (be their vNPU's executor): this touches
// per-core state that the hypervisor configures on other, unowned cores
// concurrently — which is also exactly why it is safe under overlapped
// execution, where each holder resets only its own disjoint core set.
func (d *Device) ResetCoreTransients(nodes []topo.NodeID) {
	for _, n := range nodes {
		c, ok := d.cores[n]
		if !ok {
			continue
		}
		if t, ok := c.dma.Translator.(interface{ ResetTransient() }); ok {
			t.ResetTransient()
		}
		if c.dma.Port != nil {
			c.dma.Port.ResetTransient()
		}
	}
}

// Domain is one vNPU's private timing scope on the chip: a per-region
// NoC link-calendar scope and a private HBM channel-calendar bank. Jobs
// executing in distinct domains share no transient timing state, so
// spatially disjoint vNPUs run concurrently while each observes exactly
// the cycle timeline it would see alone on a freshly reset chip.
type Domain struct {
	dev   *Device
	nodes []topo.NodeID
	timingScope
}

// timingScope is the calendar storage a domain books into; it outlives
// the domain (Device.idle).
type timingScope struct {
	noc  *noc.Domain
	bank *mem.Bank
}

// OpenDomain opens a timing domain over the given cores. It enforces the
// spatial-isolation invariant at creation: the core set must be disjoint
// from every other open domain's, or it fails with ErrDomainOverlap.
// Binding the vNPU's ports into the domain's bank is the caller's job
// (the core layer does it, since it owns the ports).
func (d *Device) OpenDomain(nodes []topo.NodeID) (*Domain, error) {
	for _, n := range nodes {
		if _, ok := d.cores[n]; !ok {
			return nil, fmt.Errorf("npu: no core at node %d", n)
		}
	}
	d.domMu.Lock()
	defer d.domMu.Unlock()
	for _, n := range nodes {
		if other := d.domOwner[n]; other != nil {
			return nil, fmt.Errorf("npu: core %d is held by another domain: %w", n, ErrDomainOverlap)
		}
	}
	var scope timingScope
	if n := len(d.idle); n > 0 {
		scope, d.idle = d.idle[n-1], d.idle[:n-1]
	} else {
		scope = timingScope{noc: d.net.NewDomain(), bank: mem.NewBank()}
	}
	dom := &Domain{
		dev:         d,
		nodes:       append([]topo.NodeID(nil), nodes...),
		timingScope: scope,
	}
	for _, n := range nodes {
		d.domOwner[n] = dom
	}
	return dom, nil
}

// NoC returns the domain's private network timing scope.
func (dm *Domain) NoC() *noc.Domain { return dm.noc }

// Bank returns the domain's private HBM calendar bank.
func (dm *Domain) Bank() *mem.Bank { return dm.bank }

// Nodes returns the cores the domain holds.
func (dm *Domain) Nodes() []topo.NodeID { return dm.nodes }

// Reset clears the domain's per-job transient state — private NoC link
// calendars, the private HBM bank, and the owned cores' transients — so
// the next job in this domain starts from cycle zero. It never touches
// state outside the domain, which is the property that lets neighbors
// keep executing while this reset runs.
func (dm *Domain) Reset() {
	dm.noc.ResetTiming()
	dm.bank.Reset()
	dm.dev.ResetCoreTransients(dm.nodes)
}

// Close releases the domain's cores so a future domain may claim them,
// and hands the timing scope back to the device for that domain to
// reuse. The caller must ensure no job is executing in the domain, and
// must not use the ports it bound to the bank afterwards. Closing twice
// is harmless.
func (dm *Domain) Close() {
	dm.dev.domMu.Lock()
	defer dm.dev.domMu.Unlock()
	for _, n := range dm.nodes {
		if dm.dev.domOwner[n] == dm {
			delete(dm.dev.domOwner, n)
		}
	}
	if dm.bank != nil {
		dm.noc.ResetTiming()
		dm.bank.Unbind()
		dm.dev.idle = append(dm.dev.idle, dm.timingScope)
		dm.timingScope = timingScope{}
	}
}

// Core returns the core at the given mesh node.
func (d *Device) Core(node topo.NodeID) (*Core, error) {
	c, ok := d.cores[node]
	if !ok {
		return nil, fmt.Errorf("npu: no core at node %d", node)
	}
	return c, nil
}

// SetCoreKind assigns a heterogeneous kind to a core (§7 hybrid cores).
// The kind changes both the compute timing (via Config.Kinds) and the
// topology node's attribute, so kind-aware mapping can see it.
func (d *Device) SetCoreKind(node topo.NodeID, kind string) error {
	c, err := d.Core(node)
	if err != nil {
		return err
	}
	c.kind = kind
	d.graph.AddNode(node, kind)
	return nil
}

// Core is one NPU tile: scratchpad, compute units (modeled analytically in
// timing.go) and a DMA engine with a pluggable address translator.
type Core struct {
	node topo.NodeID
	dev  *Device
	dma  *mem.DMAEngine
	meta int64  // reserved meta-zone bytes
	kind string // heterogeneous core kind ("" = baseline)
}

// Node reports the core's mesh position.
func (c *Core) Node() topo.NodeID { return c.node }

// Kind reports the core's heterogeneous kind ("" for the baseline core).
func (c *Core) Kind() string { return c.kind }

// DMA returns the core's DMA engine.
func (c *Core) DMA() *mem.DMAEngine { return c.dma }

// SetTranslator installs an address translator (vChunk range translator,
// page IOTLB, or identity) on the core's DMA path.
func (c *Core) SetTranslator(t mem.Translator) { c.dma.Translator = t }

// Translator returns the active translator.
func (c *Core) Translator() mem.Translator { return c.dma.Translator }

// SetPort restricts the core's global-memory port (e.g. to a vNPU's
// memory-interface subset, or to a bandwidth-capped port).
func (c *Core) SetPort(p *mem.Port) { c.dma.Port = p }

// Port returns the active HBM port.
func (c *Core) Port() *mem.Port { return c.dma.Port }

// ReserveMetaZone carves bytes of scratchpad for hypervisor meta tables
// (§5.1). The weight zone shrinks accordingly.
func (c *Core) ReserveMetaZone(bytes int64) error {
	if bytes < 0 || bytes >= c.dev.cfg.ScratchpadBytes {
		return fmt.Errorf("npu: meta zone %d does not fit scratchpad %d", bytes, c.dev.cfg.ScratchpadBytes)
	}
	c.meta = bytes
	return nil
}

// MetaZoneBytes reports the reserved meta-zone size.
func (c *Core) MetaZoneBytes() int64 { return c.meta }

// WeightZoneBytes reports scratchpad capacity available to the program.
func (c *Core) WeightZoneBytes() int64 { return c.dev.cfg.ScratchpadBytes - c.meta }
