// Package noc models the network-on-chip that connects NPU cores (§4.1.2):
// a packet-switched 2D-mesh with dimension-order routing, per-link
// bandwidth and contention, and the accounting needed to observe NoC
// interference between virtual NPUs.
//
// Routing policy lives with the caller: the physical device uses DOR paths
// (DORPath), while the vRouter confines packets to a virtual NPU's cores
// with ConstrainedPath — the two strategies of §4.1.2. The network itself
// just moves packets along explicit paths, reserving each directed link.
package noc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Config sets the NoC timing parameters. The defaults reproduce the
// magnitudes of Table 3 (about 140 cycles per 2 KiB routing packet,
// roughly 1–2%% of which is virtualization overhead when vRouter lookups
// are added by the caller).
type Config struct {
	// LinkBytesPerCycle is per-link bandwidth. 0 selects 16.
	LinkBytesPerCycle int
	// HopCycles is the router traversal latency per hop. 0 selects 3.
	HopCycles sim.Cycles
	// IssueCycles is the per-packet send-engine issue overhead. 0 selects 12.
	IssueCycles sim.Cycles
	// HandshakeCycles is the one-time send/receive handshake cost per
	// Transfer call. 0 selects 20.
	HandshakeCycles sim.Cycles
	// PacketBytes is the maximum payload of one routing packet. 0 selects
	// 2048, the routing-packet size used in §6.2.2.
	PacketBytes int
}

func (c Config) norm() Config {
	if c.LinkBytesPerCycle <= 0 {
		c.LinkBytesPerCycle = 16
	}
	if c.HopCycles == 0 {
		c.HopCycles = 3
	}
	if c.IssueCycles == 0 {
		c.IssueCycles = 12
	}
	if c.HandshakeCycles == 0 {
		c.HandshakeCycles = 20
	}
	if c.PacketBytes <= 0 {
		c.PacketBytes = 2048
	}
	return c
}

// Stats aggregates network activity.
type Stats struct {
	Transfers uint64
	Packets   uint64
	Bytes     int64
	// InterferenceHops counts path hops that crossed a router owned by a
	// different virtual NPU than the packet's — the "NoC interference" of
	// §4.1.2.
	InterferenceHops uint64
}

// Unowned marks a core that belongs to no virtual NPU.
const Unowned = 0

// Network is a NoC over a physical topology. Links are directed: the a->b
// and b->a directions of a mesh link have independent bandwidth, as in
// real full-duplex NoCs.
//
// Network.Transfer books into the chip-global link calendars and is not
// safe for concurrent use — callers on that path (the synchronous
// experiments) serialize execution themselves. Concurrent execution goes
// through per-vNPU Domains instead, whose private calendars never alias;
// statistics are atomic and ownership tags carry their own lock, so
// domains may transfer concurrently with each other and with hypervisor
// SetOwner calls.
type Network struct {
	graph *topo.Graph
	cfg   Config
	links map[[2]topo.NodeID]*sim.Resource

	transfers    atomic.Uint64
	packets      atomic.Uint64
	bytes        atomic.Int64
	interference atomic.Uint64

	ownerMu sync.Mutex
	owner   map[topo.NodeID]int // core -> virtual NPU tag (Unowned = none)
}

// New builds a network over the given topology.
func New(g *topo.Graph, cfg Config) *Network {
	return &Network{
		graph: g,
		cfg:   cfg.norm(),
		links: make(map[[2]topo.NodeID]*sim.Resource),
		owner: make(map[topo.NodeID]int),
	}
}

// Graph returns the underlying physical topology.
func (n *Network) Graph() *topo.Graph { return n.graph }

// Config returns the normalized configuration in use.
func (n *Network) Config() Config { return n.cfg }

// SetOwner tags a core as belonging to virtual NPU vm (Unowned clears).
// Ownership only affects interference accounting, never routing.
func (n *Network) SetOwner(core topo.NodeID, vm int) {
	n.ownerMu.Lock()
	defer n.ownerMu.Unlock()
	if vm == Unowned {
		delete(n.owner, core)
		return
	}
	n.owner[core] = vm
}

// Owner reports the virtual NPU tag of a core.
func (n *Network) Owner(core topo.NodeID) int {
	n.ownerMu.Lock()
	defer n.ownerMu.Unlock()
	return n.owner[core]
}

// TimingFingerprint hashes the parameters that determine transfer
// timing — link bandwidth, hop/issue/handshake latencies and packet
// size. Two networks with equal fingerprints (over equal topologies)
// produce identical Transfer timelines, which is what lets the timing
// memo treat the fingerprint as a proxy for the NoC's timing behavior.
func (n *Network) TimingFingerprint() uint64 {
	return sim.FoldU64(0x6e6f63, // "noc"
		uint64(n.cfg.LinkBytesPerCycle), uint64(n.cfg.HopCycles),
		uint64(n.cfg.IssueCycles), uint64(n.cfg.HandshakeCycles),
		uint64(n.cfg.PacketBytes))
}

// Stats returns a snapshot of the cumulative network statistics,
// covering transfers through the global calendars and every Domain.
func (n *Network) Stats() Stats {
	return Stats{
		Transfers:        n.transfers.Load(),
		Packets:          n.packets.Load(),
		Bytes:            n.bytes.Load(),
		InterferenceHops: n.interference.Load(),
	}
}

// ResetStats clears counters but keeps link state.
func (n *Network) ResetStats() {
	n.transfers.Store(0)
	n.packets.Store(0)
	n.bytes.Store(0)
	n.interference.Store(0)
}

// ResetTiming clears every chip-global link calendar so a fresh
// execution can start from cycle zero. Ownership tags and statistics are
// kept. The synchronous execution model (experiments running several
// vNPUs in one shared timeline) calls this between runs; it must not run
// concurrently with a Network.Transfer. Domains hold their own calendars
// and are unaffected — concurrent serving resets per domain instead.
func (n *Network) ResetTiming() {
	for _, l := range n.links {
		l.Reset()
	}
}

func (n *Network) link(a, b topo.NodeID) *sim.Resource {
	key := [2]topo.NodeID{a, b}
	l, ok := n.links[key]
	if !ok {
		l = &sim.Resource{}
		n.links[key] = l
	}
	return l
}

// Domain is one vNPU's private timing scope over the network: the same
// topology, timing parameters, ownership tags and statistics as the
// owning Network, but link reservations land in calendars only this
// domain sees. Disjoint vNPUs' domains therefore execute concurrently
// with no timing coupling — each observes exactly the link state it
// would see solo on a freshly reset chip. A domain materializes a
// private calendar for any link a path touches, including links outside
// the vNPU's region (an unconfined vNPU's DOR path may cross foreign
// cores; under the serialized model those links were freshly reset per
// run, so a private empty calendar is cycle-identical).
//
// A Domain is not safe for concurrent use with itself — one job runs in
// a domain at a time — but distinct domains, and a domain alongside
// hypervisor SetOwner calls, are safe.
type Domain struct {
	net   *Network
	links map[[2]topo.NodeID]*sim.Resource
}

// NewDomain creates a private timing scope over the network.
func (n *Network) NewDomain() *Domain {
	return &Domain{net: n, links: make(map[[2]topo.NodeID]*sim.Resource)}
}

func (d *Domain) link(a, b topo.NodeID) *sim.Resource {
	key := [2]topo.NodeID{a, b}
	l, ok := d.links[key]
	if !ok {
		l = &sim.Resource{}
		d.links[key] = l
	}
	return l
}

// ResetTiming clears the domain's private link calendars so its next job
// starts from cycle zero. Other domains and the chip-global calendars
// are untouched.
func (d *Domain) ResetTiming() {
	for _, l := range d.links {
		l.Reset()
	}
}

// Transfer is Network.Transfer scoped to the domain's private link
// calendars. Interference accounting still reads the shared ownership
// map, so cross-vNPU route crossings are observed even though timing is
// isolated.
func (d *Domain) Transfer(at sim.Cycles, path []topo.NodeID, size int, vm int) (sim.Cycles, error) {
	return d.net.transfer(at, path, size, vm, d.link)
}

// Transfer moves size bytes along path (a sequence of adjacent cores,
// path[0] = source, path[len-1] = destination) starting no earlier than
// `at`, splitting the payload into routing packets. It returns the arrival
// time of the last byte at the destination. vm tags the owning virtual NPU
// for interference accounting (Unowned for bare metal).
//
// Timing models wormhole switching: one handshake per call, then per
// packet an issue overhead and a traversal that holds every directed link
// of the path for the packet's serialization time (staggered by HopCycles
// per hop) — a packet in flight occupies its whole path, so longer routes
// consume proportionally more aggregate link time and contention between
// crossing flows grows with path length, the effect that punishes poor
// topology mappings in Fig 18.
func (n *Network) Transfer(at sim.Cycles, path []topo.NodeID, size int, vm int) (sim.Cycles, error) {
	return n.transfer(at, path, size, vm, n.link)
}

// transfer is the shared wormhole-timing core, parameterized by the
// calendar scope (the chip-global link map or one domain's private map).
func (n *Network) transfer(at sim.Cycles, path []topo.NodeID, size int, vm int, link func(a, b topo.NodeID) *sim.Resource) (sim.Cycles, error) {
	if len(path) < 2 {
		return at, fmt.Errorf("noc: path needs at least 2 nodes, got %d", len(path))
	}
	hops := len(path) - 1
	links := make([]*sim.Resource, hops)
	for i := 0; i+1 < len(path); i++ {
		if !n.graph.HasEdge(path[i], path[i+1]) {
			return at, fmt.Errorf("noc: no link %d -> %d", path[i], path[i+1])
		}
		links[i] = link(path[i], path[i+1])
	}
	if size <= 0 {
		return at + n.cfg.HandshakeCycles, nil
	}

	// Interference: hops through routers owned by someone else. The source
	// and destination belong to the flow, intermediate routers may not.
	n.ownerMu.Lock()
	var crossings uint64
	for _, node := range path[1 : len(path)-1] {
		if o := n.owner[node]; o != Unowned && o != vm {
			crossings++
		}
	}
	n.ownerMu.Unlock()
	n.interference.Add(crossings)

	cursor := at + n.cfg.HandshakeCycles
	var arrival sim.Cycles
	remaining := size
	for remaining > 0 {
		pkt := n.cfg.PacketBytes
		if pkt > remaining {
			pkt = remaining
		}
		dur := sim.Cycles((pkt + n.cfg.LinkBytesPerCycle - 1) / n.cfg.LinkBytesPerCycle)
		cursor += n.cfg.IssueCycles
		// Wormhole allocation: the packet needs every link of the path,
		// link i starting i*HopCycles after the header leaves the source.
		start := cursor
		for i, l := range links {
			if t := l.FreeAt() - sim.Cycles(i)*n.cfg.HopCycles; t > start {
				start = t
			}
		}
		for i, l := range links {
			l.Reserve(start+sim.Cycles(i)*n.cfg.HopCycles, dur)
		}
		arrival = start + sim.Cycles(hops)*n.cfg.HopCycles + dur
		// The next packet can inject once the first link frees.
		cursor = start + dur
		n.packets.Add(1)
		remaining -= pkt
	}
	n.transfers.Add(1)
	n.bytes.Add(int64(size))
	return arrival, nil
}
