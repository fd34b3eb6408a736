package noc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// refNetwork is the network as it was before routes and packet trains:
// links in a map created on first touch, adjacency asked of the graph on
// every transfer, every packet of a transfer booked on its own. The
// bodies below are the replaced code, unchanged; the tests hold Network
// to them.
type refNetwork struct {
	graph *topo.Graph
	cfg   Config
	links map[[2]topo.NodeID]*sim.Resource

	transfers    atomic.Uint64
	packets      atomic.Uint64
	bytes        atomic.Int64
	interference atomic.Uint64

	ownerMu sync.Mutex
	owner   map[topo.NodeID]int
}

func newRefNetwork(g *topo.Graph, cfg Config) *refNetwork {
	return &refNetwork{
		graph: g,
		cfg:   cfg.norm(),
		links: make(map[[2]topo.NodeID]*sim.Resource),
		owner: make(map[topo.NodeID]int),
	}
}

func (n *refNetwork) SetOwner(core topo.NodeID, vm int) {
	n.ownerMu.Lock()
	defer n.ownerMu.Unlock()
	if vm == Unowned {
		delete(n.owner, core)
		return
	}
	n.owner[core] = vm
}

func (n *refNetwork) Stats() Stats {
	return Stats{
		Transfers:        n.transfers.Load(),
		Packets:          n.packets.Load(),
		Bytes:            n.bytes.Load(),
		InterferenceHops: n.interference.Load(),
	}
}

// refLinks is one calendar scope of the reference: the chip-global link
// map or a domain's.
type refLinks map[[2]topo.NodeID]*sim.Resource

func (m refLinks) link(a, b topo.NodeID) *sim.Resource {
	key := [2]topo.NodeID{a, b}
	l, ok := m[key]
	if !ok {
		l = &sim.Resource{}
		m[key] = l
	}
	return l
}

func (m refLinks) reset() {
	for _, l := range m {
		l.Reset()
	}
}

func (n *refNetwork) transfer(at sim.Cycles, path []topo.NodeID, size int, vm int, link func(a, b topo.NodeID) *sim.Resource) (sim.Cycles, error) {
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

// refDORPath is DORPath as it was: a coordinate map of the whole graph
// built per call.
func refDORPath(g *topo.Graph, src, dst topo.NodeID) ([]topo.NodeID, error) {
	if src == dst {
		return []topo.NodeID{src}, nil
	}
	sc, ok1 := g.CoordOf(src)
	dc, ok2 := g.CoordOf(dst)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("noc: DOR needs mesh coordinates for %d and %d", src, dst)
	}
	byCoord := make(map[topo.Coord]topo.NodeID, g.NumNodes())
	for _, id := range g.Nodes() {
		if c, ok := g.CoordOf(id); ok {
			byCoord[c] = id
		}
	}
	path := []topo.NodeID{src}
	cur := sc
	step := func(next topo.Coord) error {
		id, ok := byCoord[next]
		if !ok {
			return fmt.Errorf("noc: DOR path leaves the mesh at (%d,%d)", next.X, next.Y)
		}
		if !g.HasEdge(path[len(path)-1], id) {
			return fmt.Errorf("noc: missing mesh link %d -> %d", path[len(path)-1], id)
		}
		path = append(path, id)
		cur = next
		return nil
	}
	for cur.X != dc.X {
		next := cur
		if dc.X > cur.X {
			next.X++
		} else {
			next.X--
		}
		if err := step(next); err != nil {
			return nil, err
		}
	}
	for cur.Y != dc.Y {
		next := cur
		if dc.Y > cur.Y {
			next.Y++
		} else {
			next.Y--
		}
		if err := step(next); err != nil {
			return nil, err
		}
	}
	return path, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trainWorld is one network under test beside its reference, each with
// the chip-global calendars (scope 0) and two domains (scopes 1 and 2).
type trainWorld struct {
	t     *testing.T
	g     *topo.Graph
	nodes []topo.NodeID
	net   *Network
	ref   *refNetwork
	cals  [3]*calendars
	doms  [3]*Domain // nil for the global scope
	refs  [3]refLinks
	edges []trainEdge
	base  sim.Cycles
}

// trainEdge is one directed link with the network's index of it.
type trainEdge struct {
	a, b topo.NodeID
	link int32
}

const trainWorldHeader = 6

// newTrainWorld reads mesh and timing parameters off the header: link
// widths that do not divide the packet, packets of a few bytes and of
// 2 KiB, zero latencies (which select the defaults).
func newTrainWorld(t *testing.T, h []byte) *trainWorld {
	g := topo.Mesh2D(6, 6)
	if h[0]%2 == 1 {
		g = topo.Mesh2D(2, 4)
	}
	cfg := Config{
		LinkBytesPerCycle: []int{16, 7, 24, 1, 5}[h[1]%5],
		PacketBytes:       []int{2048, 100, 64, 33, 1000}[h[2]%5],
		HopCycles:         sim.Cycles(h[3] % 7),
		IssueCycles:       sim.Cycles(h[4] % 20),
		HandshakeCycles:   sim.Cycles(h[5] % 30),
	}
	w := &trainWorld{t: t, g: g, nodes: g.Nodes(), net: New(g, cfg), ref: newRefNetwork(g, cfg)}
	w.cals[0], w.refs[0] = &w.net.global, w.ref.links
	for s := 1; s < 3; s++ {
		w.doms[s] = w.net.NewDomain()
		w.cals[s], w.refs[s] = &w.doms[s].cal, refLinks{}
	}
	for _, e := range g.Edges() {
		for _, d := range [][2]topo.NodeID{{e.A, e.B}, {e.B, e.A}} {
			r, err := w.net.Resolve(d[:])
			if err != nil {
				t.Fatal(err)
			}
			w.edges = append(w.edges, trainEdge{d[0], d[1], r.links[0]})
		}
	}
	return w
}

// trainSize picks nothing, one byte, around one packet, exact multiples
// or hundreds of packets.
func trainSize(packet int, pick byte) int {
	switch pick % 12 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return packet - 1
	case 3:
		return packet
	case 4:
		return packet + 1
	case 5:
		return 2 * packet
	case 6:
		return 3*packet - 1
	case 7:
		return 7*packet + 5
	case 8:
		return 200 * packet
	case 9:
		return 317*packet + 1
	case 10:
		return -3
	default:
		return 16 * packet
	}
}

// op applies one 6-byte operation to both sides and compares everything
// observable. It reports whether the operation was a transfer that
// failed (on both sides alike).
func (w *trainWorld) op(kind, a, b, c, d, e byte) bool {
	t := w.t
	scope := int(a % 3)
	switch kind % 8 {
	case 5:
		if scope == 0 {
			w.net.ResetTiming()
		} else {
			w.doms[scope].ResetTiming()
		}
		w.refs[scope].reset()
	case 6:
		core, vm := w.nodes[int(b)%len(w.nodes)], int(c%4)
		w.net.SetOwner(core, vm)
		w.ref.SetOwner(core, vm)
	case 7:
		w.base += sim.Cycles(d)<<8 | sim.Cycles(e)
	default:
		src, dst := w.nodes[int(b)%len(w.nodes)], w.nodes[int(c)%len(w.nodes)]
		vm := int(a / 3 % 4)
		size := trainSize(w.net.cfg.PacketBytes, d)
		at := w.base + sim.Cycles(e)
		var route *Route
		var path []topo.NodeID
		var err, refErr error
		switch kind % 8 {
		case 3: // confined to an irregular region around both endpoints
			allowed := map[topo.NodeID]bool{src: true, dst: true}
			for _, id := range w.nodes {
				if (int(id)*7+int(d))%4 != 0 {
					allowed[id] = true
				}
			}
			if path, err = ConstrainedPath(w.g, src, dst, allowed); err != nil {
				return false
			}
			route, err = w.net.Resolve(path)
		case 4: // two nodes as given, seldom neighbours
			path = []topo.NodeID{src, dst}
			route, err = w.net.Resolve(path)
		default:
			route, err = w.net.DOR(src, dst)
			path, refErr = refDORPath(w.g, src, dst)
		}
		var got, want sim.Cycles
		if err == nil {
			if scope == 0 {
				got, err = w.net.Send(at, route, size, vm)
			} else {
				got, err = w.doms[scope].Send(at, route, size, vm)
			}
		}
		if refErr == nil {
			want, refErr = w.ref.transfer(at, path, size, vm, w.refs[scope].link)
		}
		if errText(err) != errText(refErr) {
			t.Fatalf("transfer %d -> %d of %d bytes: error %q, reference %q", src, dst, size, errText(err), errText(refErr))
		}
		if err != nil {
			return true
		}
		if got != want {
			t.Fatalf("transfer %v of %d bytes at %d in scope %d: arrival %d, reference %d", path, size, at, scope, got, want)
		}
		w.base += sim.Cycles(e % 5)
	}
	if got, want := w.net.Stats(), w.ref.Stats(); got != want {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
	for s, cal := range w.cals {
		booked := 0
		for _, ed := range w.edges {
			l := &cal.links[ed.link]
			var want sim.Resource
			if r := w.refs[s][[2]topo.NodeID{ed.a, ed.b}]; r != nil {
				want = *r
			}
			if *l != want {
				t.Fatalf("scope %d link %d -> %d: %+v, reference %+v", s, ed.a, ed.b, *l, want)
			}
			if l.Grants() > 0 {
				booked++
			}
		}
		if booked != len(cal.touched) {
			t.Fatalf("scope %d: %d links booked, %d on the touched list", s, booked, len(cal.touched))
		}
	}
	return false
}

func runNoCTrainOps(t *testing.T, data []byte) (failed int) {
	if len(data) < trainWorldHeader {
		return 0
	}
	w := newTrainWorld(t, data)
	for data = data[trainWorldHeader:]; len(data) >= 6; data = data[6:] {
		if w.op(data[0], data[1], data[2], data[3], data[4], data[5]) {
			failed++
		}
	}
	return failed
}

func nocTrainInput(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, trainWorldHeader+6*ops)
	rng.Read(data)
	data[0] = byte(seed)
	for i := trainWorldHeader; i < len(data); i += 6 {
		// Keep resets and clock jumps rare enough for flows to pile up.
		if k := data[i] % 8; (k == 5 || k == 7) && rng.Intn(6) != 0 {
			data[i] = byte(rng.Intn(3))
		}
	}
	return data
}

// TestTransferTrainEqualsReference holds routes and packet trains to the
// per-packet loop they replaced: seeded worlds on the 6x6 and the 2x4
// mesh, flows crossing on the chip-global calendars and in two domains,
// ownership changing between transfers — arrival, error, every link's
// state and the statistics equal after every operation.
func TestTransferTrainEqualsReference(t *testing.T) {
	failed := 0
	for seed := int64(0); seed < 120; seed++ {
		failed += runNoCTrainOps(t, nocTrainInput(seed, 300))
	}
	if failed == 0 {
		t.Fatal("no transfer failed: the error paths went untested")
	}
}

// FuzzNoCTrain reads the input as a world header and a stream of
// operations — transfer on the global calendars or in a domain, reset,
// set owner, advance the clock — and holds the network to the per-packet
// reference after every one.
func FuzzNoCTrain(f *testing.F) {
	f.Add([]byte{})
	f.Add(nocTrainInput(0, 40))
	f.Add(nocTrainInput(1, 40))
	f.Add(nocTrainInput(7, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > trainWorldHeader+6*1000 {
			data = data[:trainWorldHeader+6*1000]
		}
		runNoCTrainOps(t, data)
	})
}

// dorGraphs are the shapes DOR must route as it always did: both chips,
// a mesh off the origin, one with a hole (no longer a full grid), one
// with a link missing, one with a node that has no coordinate and one
// where two nodes claim the same cell.
func dorGraphs() map[string]*topo.Graph {
	shifted := topo.New()
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			id := topo.NodeID(10 + y*4 + x)
			shifted.AddNode(id, topo.KindCore)
			shifted.SetCoord(id, topo.Coord{X: x - 2, Y: y + 5})
			if x > 0 {
				shifted.AddEdge(id-1, id, 1)
			}
			if y > 0 {
				shifted.AddEdge(id-4, id, 1)
			}
		}
	}
	hole := topo.Mesh2D(4, 4)
	hole.RemoveNode(5)
	noLink := topo.New()
	for id := topo.NodeID(0); id < 6; id++ {
		noLink.AddNode(id, topo.KindCore)
		noLink.SetCoord(id, topo.Coord{X: int(id) % 3, Y: int(id) / 3})
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {0, 3}, {1, 4}, {2, 5}, {3, 4}, {4, 5}} { // no 1-2
		noLink.AddEdge(e[0], e[1], 1)
	}
	noCoord := topo.Mesh2D(2, 3)
	noCoord.AddEdge(5, 6, 1)
	twice := topo.Mesh2D(2, 3)
	twice.AddEdge(4, 9, 1)
	twice.SetCoord(9, topo.Coord{X: 2, Y: 1}) // node 5's cell
	return map[string]*topo.Graph{
		"6x6": topo.Mesh2D(6, 6), "2x4": topo.Mesh2D(2, 4), "shifted": shifted,
		"hole": hole, "no-link": noLink, "no-coord": noCoord, "twice": twice,
	}
}

// TestDORRouteEqualsReference: every pair of every shape gets the path,
// or the error text, the map-building DORPath gave — from DORPath, from
// the network's table, and again from the table once it is warm.
func TestDORRouteEqualsReference(t *testing.T) {
	for name, g := range dorGraphs() {
		net := New(g, Config{})
		errs := 0
		for pass := 0; pass < 2; pass++ {
			for _, src := range g.Nodes() {
				for _, dst := range g.Nodes() {
					want, wantErr := refDORPath(g, src, dst)
					got, err := DORPath(g, src, dst)
					if errText(err) != errText(wantErr) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: DORPath(%d, %d) = %v, %q; reference %v, %q", name, src, dst, got, errText(err), want, errText(wantErr))
					}
					r, err := net.DOR(src, dst)
					if errText(err) != errText(wantErr) {
						t.Fatalf("%s: DOR(%d, %d): %q, reference %q", name, src, dst, errText(err), errText(wantErr))
					}
					if err != nil {
						errs++
						continue
					}
					if fmt.Sprint(r.Nodes()) != fmt.Sprint(want) {
						t.Fatalf("%s: DOR(%d, %d) = %v, reference %v", name, src, dst, r.Nodes(), want)
					}
					if again, _ := net.DOR(src, dst); again != r {
						t.Fatalf("%s: DOR(%d, %d) built the route twice", name, src, dst)
					}
				}
			}
		}
		if wantErrs := map[string]bool{"hole": true, "no-link": true, "no-coord": true, "twice": true}; wantErrs[name] != (errs > 0) {
			t.Fatalf("%s: %d pairs failed to route", name, errs)
		}
	}
}

// TestResolveRefusesRepeatedLink: the one input the train argument does
// not cover — a path over the same directed link twice, on which even
// the second packet waits — is turned away when the route is built.
func TestResolveRefusesRepeatedLink(t *testing.T) {
	n := New(mesh33(), Config{})
	if _, err := n.Resolve([]topo.NodeID{0, 1, 0, 1}); err == nil {
		t.Fatal("a path over link 0 -> 1 twice resolved")
	}
	if _, err := n.Resolve([]topo.NodeID{0, 1, 0, 3}); err != nil {
		t.Fatalf("a path over both directions of one link: %v", err)
	}
}

// TestConfigNormDefaults: a parameter at or below zero selects its
// default — a negative issue or hop time would walk the injection cursor
// backwards — and the shipped configurations hash as they always did.
func TestConfigNormDefaults(t *testing.T) {
	want := Config{LinkBytesPerCycle: 16, HopCycles: 3, IssueCycles: 12, HandshakeCycles: 20, PacketBytes: 2048}
	for _, c := range []Config{
		{},
		{LinkBytesPerCycle: -1, HopCycles: -1, IssueCycles: -1, HandshakeCycles: -1, PacketBytes: -1},
		{HopCycles: -7, IssueCycles: -100},
		want,
	} {
		if got := c.norm(); got != want {
			t.Errorf("%+v normalizes to %+v, want %+v", c, got, want)
		}
	}
	kept := Config{LinkBytesPerCycle: 7, HopCycles: 1, IssueCycles: 2, HandshakeCycles: 5, PacketBytes: 33}
	if got := kept.norm(); got != kept {
		t.Errorf("%+v normalizes to %+v, want it unchanged", kept, got)
	}
	// Both shipped chips set only the link width: the fingerprint of the
	// normalized defaults, as computed before negatives were clamped.
	g := mesh33()
	if got, want := New(g, Config{LinkBytesPerCycle: 16}).TimingFingerprint(), uint64(0xee9335d142e87472); got != want {
		t.Errorf("TimingFingerprint of the shipped NoC config = %#x, pinned %#x", got, want)
	}
}

// TestSendCostIndependentOfSize: a transfer is one booking per link, so
// 4 MiB over three hops costs what 4 KiB does (within 2x; packet by
// packet it was a thousand times more).
func TestSendCostIndependentOfSize(t *testing.T) {
	g := topo.Mesh2D(6, 6)
	n := New(g, Config{})
	r, err := n.DOR(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(size int) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			n.ResetTiming()
			start := time.Now()
			for i := 0; i < 20000; i++ {
				if _, err := n.Send(sim.Cycles(i), r, size, Unowned); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, big := cost(4<<10), cost(4<<20)
	if big > 2*small {
		t.Fatalf("20000 sends of 4 MiB took %v, of 4 KiB %v: cost grows with size", big, small)
	}
}
