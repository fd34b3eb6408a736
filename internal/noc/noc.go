// Package noc models the network-on-chip that connects NPU cores (§4.1.2):
// a packet-switched 2D-mesh with dimension-order routing, per-link
// bandwidth and contention, and the accounting needed to observe NoC
// interference between virtual NPUs.
//
// Routing policy lives with the caller: the physical device uses DOR
// routes (Network.DOR), while the vRouter confines packets to a virtual
// NPU's cores with ConstrainedPath — the two strategies of §4.1.2. The
// network itself just moves packets along explicit routes, reserving
// each directed link. A Route is resolved once — adjacency checked, links
// looked up — and sent on any number of times, as the vRouter's table is
// configured once and read per send.
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
	// LinkBytesPerCycle is per-link bandwidth. 0 or less selects 16.
	LinkBytesPerCycle int
	// HopCycles is the router traversal latency per hop. 0 or less
	// selects 3.
	HopCycles sim.Cycles
	// IssueCycles is the per-packet send-engine issue overhead. 0 or less
	// selects 12.
	IssueCycles sim.Cycles
	// HandshakeCycles is the one-time send/receive handshake cost per
	// Transfer call. 0 or less selects 20.
	HandshakeCycles sim.Cycles
	// PacketBytes is the maximum payload of one routing packet. 0 or less
	// selects 2048, the routing-packet size used in §6.2.2.
	PacketBytes int
}

func (c Config) norm() Config {
	if c.LinkBytesPerCycle <= 0 {
		c.LinkBytesPerCycle = 16
	}
	if c.HopCycles <= 0 {
		c.HopCycles = 3
	}
	if c.IssueCycles <= 0 {
		c.IssueCycles = 12
	}
	if c.HandshakeCycles <= 0 {
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
// real full-duplex NoCs. The topology's nodes and links are indexed once,
// at New: a link added to the graph afterwards does not exist here.
//
// Network.Send and Transfer book into the chip-global link calendars and
// are not safe for concurrent use — callers on that path (the synchronous
// experiments) serialize execution themselves. Concurrent execution goes
// through per-vNPU Domains instead, whose private calendars never alias;
// routes are immutable and published atomically, statistics are atomic
// and ownership tags carry their own lock, so domains may send
// concurrently with each other and with hypervisor SetOwner calls.
type Network struct {
	graph *topo.Graph
	view  *topo.View // the graph as it was at New
	cfg   Config
	// linkBase[p] is the index of position p's first outgoing link; the
	// link to its i-th neighbour (view.Nbrs[p][i]) follows at +i.
	linkBase []int32
	global   calendars
	// dor is the chip's dimension-order route table, n×n by position,
	// each route built on first use.
	dor []atomic.Pointer[Route]

	transfers    atomic.Uint64
	packets      atomic.Uint64
	bytes        atomic.Int64
	interference atomic.Uint64

	ownerMu sync.Mutex
	owner   []int // position -> virtual NPU tag (Unowned = none)
}

// New builds a network over the given topology.
func New(g *topo.Graph, cfg Config) *Network {
	v := topo.ViewOf(g)
	nodes := len(v.IDs)
	n := &Network{
		graph:    g,
		view:     v,
		cfg:      cfg.norm(),
		linkBase: make([]int32, nodes+1),
		dor:      make([]atomic.Pointer[Route], nodes*nodes),
		owner:    make([]int, nodes),
	}
	for p, nbrs := range v.Nbrs {
		n.linkBase[p+1] = n.linkBase[p] + int32(len(nbrs))
	}
	n.global.links = make([]sim.Resource, n.linkBase[nodes])
	return n
}

// Graph returns the underlying physical topology.
func (n *Network) Graph() *topo.Graph { return n.graph }

// Config returns the normalized configuration in use.
func (n *Network) Config() Config { return n.cfg }

// SetOwner tags a core as belonging to virtual NPU vm (Unowned clears).
// Ownership only affects interference accounting, never routing.
func (n *Network) SetOwner(core topo.NodeID, vm int) {
	p, ok := n.view.Pos(core)
	if !ok {
		return
	}
	n.ownerMu.Lock()
	n.owner[p] = vm
	n.ownerMu.Unlock()
}

// Owner reports the virtual NPU tag of a core.
func (n *Network) Owner(core topo.NodeID) int {
	p, ok := n.view.Pos(core)
	if !ok {
		return Unowned
	}
	n.ownerMu.Lock()
	defer n.ownerMu.Unlock()
	return n.owner[p]
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
// concurrently with a Network.Send. Domains hold their own calendars
// and are unaffected — concurrent serving resets per domain instead.
func (n *Network) ResetTiming() { n.global.reset() }

// calendars is one scope of link reservation state — the chip-global
// one or a domain's — indexed as the network indexes its links.
type calendars struct {
	links []sim.Resource
	// touched lists the links booked since the last reset, so a reset
	// costs what the job used, not the size of the chip.
	touched []int32
}

func (c *calendars) reset() {
	for _, l := range c.touched {
		c.links[l].Reset()
	}
	c.touched = c.touched[:0]
}

// Domain is one vNPU's private timing scope over the network: the same
// topology, routes, timing parameters, ownership tags and statistics as
// the owning Network, but link reservations land in calendars only this
// domain sees. Disjoint vNPUs' domains therefore execute concurrently
// with no timing coupling — each observes exactly the link state it
// would see solo on a freshly reset chip. The private calendars cover
// every link of the chip, including links outside the vNPU's region (an
// unconfined vNPU's DOR route may cross foreign cores; under the
// serialized model those links were freshly reset per run, so a private
// empty calendar is cycle-identical).
//
// A Domain is not safe for concurrent use with itself — one job runs in
// a domain at a time — but distinct domains, and a domain alongside
// hypervisor SetOwner calls, are safe. A domain whose vNPU is gone can
// serve the next one after a ResetTiming.
type Domain struct {
	net *Network
	cal calendars
}

// NewDomain creates a private timing scope over the network.
func (n *Network) NewDomain() *Domain {
	return &Domain{net: n, cal: calendars{links: make([]sim.Resource, len(n.global.links))}}
}

// ResetTiming clears the domain's private link calendars so its next job
// starts from cycle zero. Other domains and the chip-global calendars
// are untouched.
func (d *Domain) ResetTiming() { d.cal.reset() }

// Send is Network.Send scoped to the domain's private link calendars.
// Interference accounting still reads the shared ownership tags, so
// cross-vNPU route crossings are observed even though timing is isolated.
func (d *Domain) Send(at sim.Cycles, r *Route, size int, vm int) (sim.Cycles, error) {
	return d.net.send(&d.cal, at, r, size, vm)
}

// Transfer moves size bytes along path (a sequence of adjacent cores,
// path[0] = source, path[len-1] = destination) starting no earlier than
// `at`: resolve, then send. Callers that send along one path more than
// once Resolve it once and keep the Route.
func (n *Network) Transfer(at sim.Cycles, path []topo.NodeID, size int, vm int) (sim.Cycles, error) {
	var r Route // for this call only, so it borrows path
	if err := n.resolve(&r, path); err != nil {
		return at, err
	}
	return n.send(&n.global, at, &r, size, vm)
}

// Send moves size bytes along the route starting no earlier than `at`,
// splitting the payload into routing packets. It returns the arrival
// time of the last byte at the destination. vm tags the owning virtual NPU
// for interference accounting (Unowned for bare metal).
//
// Timing models wormhole switching: one handshake per call, then per
// packet an issue overhead and a traversal that holds every directed link
// of the route for the packet's serialization time (staggered by HopCycles
// per hop) — a packet in flight occupies its whole route, so longer routes
// consume proportionally more aggregate link time and contention between
// crossing flows grows with route length, the effect that punishes poor
// topology mappings in Fig 18.
func (n *Network) Send(at sim.Cycles, r *Route, size int, vm int) (sim.Cycles, error) {
	return n.send(&n.global, at, r, size, vm)
}

// send is the shared wormhole-timing core, parameterized by the calendar
// scope. The packets of one call go out as a train: only the first can
// find a link busy. Once it holds link i from start+i·hop for dur cycles,
// that link frees at start+i·hop+dur, and the next packet — injected
// IssueCycles after the first link frees, at start+dur+issue — reaches
// link i at or after that. So every later packet starts exactly
// dur+issue after the one before, the last (short) one holds the links
// for its own serialization time, and the whole transfer is one
// ReserveTrain per link whatever its size. Nothing else books a link
// between two packets of one call, in a domain or on the chip-global
// calendars, so this is what booking packet by packet computes.
func (n *Network) send(c *calendars, at sim.Cycles, r *Route, size int, vm int) (sim.Cycles, error) {
	if len(r.links) == 0 {
		return at, fmt.Errorf("noc: path needs at least 2 nodes, got %d", len(r.nodes))
	}
	if size <= 0 {
		return at + n.cfg.HandshakeCycles, nil
	}

	// Interference: hops through routers owned by someone else. The source
	// and destination belong to the flow, intermediate routers may not.
	if len(r.inner) > 0 {
		var crossings uint64
		n.ownerMu.Lock()
		for _, p := range r.inner {
			if o := n.owner[p]; o != Unowned && o != vm {
				crossings++
			}
		}
		n.ownerMu.Unlock()
		n.interference.Add(crossings)
	}

	packets := 1 + (size-1)/n.cfg.PacketBytes
	bw := n.cfg.LinkBytesPerCycle
	dur := sim.Cycles((n.cfg.PacketBytes + bw - 1) / bw)
	last := sim.Cycles((size - (packets-1)*n.cfg.PacketBytes + bw - 1) / bw)
	hop, issue := n.cfg.HopCycles, n.cfg.IssueCycles

	// Wormhole allocation: the first packet needs every link of the
	// route, link i starting i*HopCycles after the header leaves the
	// source.
	start := at + n.cfg.HandshakeCycles + issue
	for i, l := range r.links {
		if t := c.links[l].FreeAt() - sim.Cycles(i)*hop; t > start {
			start = t
		}
	}
	for i, l := range r.links {
		res := &c.links[l]
		if res.Grants() == 0 {
			c.touched = append(c.touched, l)
		}
		res.ReserveTrain(start+sim.Cycles(i)*hop, packets, dur, issue, last)
	}
	n.packets.Add(uint64(packets))
	n.transfers.Add(1)
	n.bytes.Add(int64(size))
	return start + sim.Cycles(packets-1)*(dur+issue) + sim.Cycles(len(r.links))*hop + last, nil
}
