package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

func newHV(t *testing.T, cfg npu.Config) *Hypervisor {
	t.Helper()
	dev, err := npu.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHypervisor(dev)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// freeCores is len(FreeCores()), held against the count the hypervisor
// keeps beside the free map.
func freeCores(t *testing.T, h *Hypervisor) int {
	t.Helper()
	n := len(h.FreeCores())
	if c := h.FreeCount(); c != n {
		t.Fatalf("FreeCount = %d with %d cores on the free list", c, n)
	}
	return n
}

func TestCreateVNPUBasics(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{
		Topology:    topo.Mesh2D(2, 2),
		MemoryBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumCores() != 4 {
		t.Fatalf("cores = %d", v.NumCores())
	}
	if v.MapCost() != 0 {
		t.Fatalf("empty chip must host 2x2 exactly, cost %v", v.MapCost())
	}
	if v.SetupCycles() <= 0 || v.SetupCycles() > 1000 {
		t.Fatalf("setup cycles = %v, want a few hundred (Fig 11)", v.SetupCycles())
	}
	if got := h.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if v.Translation() != TranslationRange {
		t.Fatal("default translation must be vChunk")
	}
	if v.RTTEntries() == 0 || v.MemBytes() != 1<<20 {
		t.Fatalf("memory: entries=%d bytes=%d", v.RTTEntries(), v.MemBytes())
	}
	if v.MemChannels() < 1 {
		t.Fatal("vNPU must span at least one memory interface")
	}
}

func TestCreateVNPUShapedRoutingTable(t *testing.T) {
	h := newHV(t, npu.FPGAConfig()) // 2x4 mesh
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if v.RoutingTable().Type != RTShaped {
		t.Fatalf("rectangular allocation should use the shaped table, got %s", v.RoutingTable().Type)
	}
	if v.RoutingTable().HardwareEntries() != 1 {
		t.Fatal("shaped table must use one entry")
	}
}

func TestCreateVNPUStandardTableForIrregular(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	// Occupy nodes so no 2x2 rectangle remains: on the 2x4 mesh the
	// rectangles are (0,1,4,5), (1,2,5,6), (2,3,6,7); reserving 1 and 7
	// blocks all three while {0,4,5,6,2,3} stays connected.
	if err := h.Reserve(1, 7); err != nil {
		t.Fatal(err)
	}
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if v.MapCost() == 0 {
		t.Fatal("no exact 2x2 should exist after reservation")
	}
	if v.RoutingTable().Type != RTStandard {
		t.Fatal("irregular allocation needs the standard table")
	}
}

func TestCreateVNPUPlacementTranslates(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	// Occupy node 0 so virtual core 0 lands elsewhere.
	if err := h.Reserve(0); err != nil {
		t.Fatal(err)
	}
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	pl := v.Placement()
	n, err := pl.Node(isa.CoreID(0))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("vCore 0 must not be placed on the reserved node 0")
	}
	if _, err := pl.Node(isa.CoreID(42)); err == nil {
		t.Fatal("out-of-range vCore must fail")
	}
}

func TestTwoTenantsShareChip(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	a, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == b.ID() {
		t.Fatal("VMIDs must differ")
	}
	seen := map[topo.NodeID]bool{}
	for _, n := range append(append([]topo.NodeID{}, a.Nodes()...), b.Nodes()...) {
		if seen[n] {
			t.Fatalf("node %d allocated twice", n)
		}
		seen[n] = true
	}
	if h.Utilization() != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", h.Utilization())
	}
	if _, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2)}); err == nil {
		t.Fatal("chip is full: third tenant must fail")
	}
	if len(h.VNPUs()) != 2 {
		t.Fatalf("VNPUs = %d", len(h.VNPUs()))
	}
}

func TestDestroyReleasesResources(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 4), MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if freeCores(t, h) != 0 {
		t.Fatal("chip should be full")
	}
	if err := h.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
	if freeCores(t, h) != 8 {
		t.Fatalf("free cores = %d, want 8", freeCores(t, h))
	}
	// Memory is reusable: allocate the same amount again.
	if _, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 4), MemoryBytes: 8 << 20}); err != nil {
		t.Fatalf("recreate failed: %v", err)
	}
	if err := h.Destroy(VMID(99)); err == nil {
		t.Fatal("destroying unknown VM must fail")
	}
}

func TestTranslationModesInstallTranslators(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	vRange, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	node := vRange.Nodes()[0]
	c, _ := h.Device().Core(node)
	if _, ok := c.Translator().(*mem.RangeTranslator); !ok {
		t.Fatalf("want RangeTranslator, got %T", c.Translator())
	}
	vPage, err := h.CreateVNPU(Request{
		Topology: topo.Mesh2D(1, 2), MemoryBytes: 1 << 20,
		Translation: TranslationPage, PageTLBEntries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := h.Device().Core(vPage.Nodes()[0])
	if _, ok := c2.Translator().(*mem.PageTranslator); !ok {
		t.Fatalf("want PageTranslator, got %T", c2.Translator())
	}
	vPhys, err := h.CreateVNPU(Request{
		Topology: topo.Mesh2D(1, 2), Translation: TranslationNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	c3, _ := h.Device().Core(vPhys.Nodes()[0])
	if _, ok := c3.Translator().(*mem.Identity); !ok {
		t.Fatalf("want Identity, got %T", c3.Translator())
	}
}

func TestVNPUMemoryTranslationWorks(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2), MemoryBytes: 3 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := h.Device().Core(v.Nodes()[0])
	tr := c.Translator()
	// Every address of the guest range must translate.
	for off := uint64(0); off < v.MemBytes(); off += 512 << 10 {
		if _, _, err := tr.Translate(v.MemBase() + off); err != nil {
			t.Fatalf("translate +%#x: %v", off, err)
		}
	}
	// Outside the range must fail.
	if _, _, err := tr.Translate(v.MemBase() + v.MemBytes() + minMemBlock); err == nil {
		t.Fatal("out-of-range address must not translate")
	}
}

func TestConfinedRoutingStaysInside(t *testing.T) {
	h := newHV(t, npu.FPGAConfig()) // 2x4 mesh
	// Build an L-shaped vNPU by blocking the rectangle completions.
	if err := h.Reserve(1, 2); err != nil {
		t.Fatal(err)
	}
	req := topo.Chain(3)
	v, err := h.CreateVNPU(Request{Topology: req, Confined: true})
	if err != nil {
		t.Fatal(err)
	}
	inside := map[topo.NodeID]bool{}
	for _, n := range v.Nodes() {
		inside[n] = true
	}
	r, err := v.route(v.Nodes()[0], v.Nodes()[2])
	if err != nil {
		t.Fatal(err)
	}
	p := r.Nodes()
	for _, n := range p {
		if !inside[n] {
			t.Fatalf("confined path %v escapes the vNPU at %d", p, n)
		}
	}
	if v.Interfering() {
		t.Fatal("confined connected vNPU must be non-interfering")
	}
}

func TestUnconfinedVNPUUsesDOR(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Interfering() {
		t.Fatal("unconfined vNPU may interfere by definition")
	}
	if _, err := v.route(v.Nodes()[0], v.Nodes()[3]); err != nil {
		t.Fatal(err)
	}
}

func TestVNPUFabricAddsOverhead(t *testing.T) {
	cfg := npu.FPGAConfig()
	// Bare metal reference.
	devBare, _ := npu.NewDevice(cfg)
	bareFab := &npu.NoCFabric{Net: devBare.NoC()}
	bareDone, err := bareFab.Transfer(0, 0, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// Virtualized.
	h := newHV(t, cfg)
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	vDone, err := v.Fabric().Transfer(0, v.Nodes()[0], v.Nodes()[1], 2048)
	if err != nil {
		t.Fatal(err)
	}
	delta := vDone - bareDone
	if delta != VRouterNoCOverheadCycles {
		t.Fatalf("vRouter overhead = %v, want %v", delta, VRouterNoCOverheadCycles)
	}
	// Table 3's claim: on a 10-packet transfer the overhead is 1-2%.
	devBare2, _ := npu.NewDevice(cfg)
	bareFab2 := &npu.NoCFabric{Net: devBare2.NoC()}
	bareBig, err := bareFab2.Transfer(0, 0, 1, 10*2048)
	if err != nil {
		t.Fatal(err)
	}
	pct := float64(VRouterNoCOverheadCycles) / float64(bareBig) * 100
	if pct > 3 {
		t.Fatalf("overhead on 10 packets = %.1f%%, want 1-2%%", pct)
	}
}

func TestWarmupProportionalToInterfaces(t *testing.T) {
	h := newHV(t, npu.SimConfig())
	small, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2), MemChannels: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2), MemChannels: 4})
	if err != nil {
		t.Fatal(err)
	}
	const weights = 256 << 20
	ws, wb := small.WarmupCycles(weights), big.WarmupCycles(weights)
	if wb >= ws {
		t.Fatalf("more interfaces must warm up faster: 1ch=%v 4ch=%v", ws, wb)
	}
	ratio := float64(ws) / float64(wb)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("warm-up ratio = %.2f, want ~4 (bandwidth-proportional)", ratio)
	}
}

func TestBandwidthCapInstalls(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{
		Topology:          topo.Mesh2D(1, 2),
		MemoryBytes:       1 << 20,
		BandwidthCapBytes: 1024,
		BandwidthWindow:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := h.Device().Core(v.Nodes()[0])
	p := c.Port()
	d1 := p.Transfer(0, 1024)
	d2 := p.Transfer(d1, 1024)
	if d2 < 1000 {
		t.Fatalf("second transfer at %v, want pushed past window 1000", d2)
	}
}

func TestNoCOwnershipLifecycle(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	v, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	n := v.Nodes()[0]
	if h.Device().NoC().Owner(n) != int(v.ID()) {
		t.Fatal("ownership must be registered")
	}
	if err := h.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
	if h.Device().NoC().Owner(n) != 0 {
		t.Fatal("ownership must be cleared on destroy")
	}
}

func TestRequestValidation(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	if _, err := h.CreateVNPU(Request{}); err == nil {
		t.Fatal("missing topology must fail")
	}
	if _, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(3, 3)}); err == nil {
		t.Fatal("9 cores on an 8-core chip must fail")
	}
}

func TestReserveErrors(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	if err := h.Reserve(0); err != nil {
		t.Fatal(err)
	}
	if err := h.Reserve(0); err == nil {
		t.Fatal("double reserve must fail")
	}
}

func TestOutOfMemory(t *testing.T) {
	cfg := npu.FPGAConfig()
	cfg.HBMCapacityBytes = 1 << 20 // 1 MiB pool
	h := newHV(t, cfg)
	if _, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2), MemoryBytes: 64 << 20}); err == nil {
		t.Fatal("oversized memory request must fail")
	}
	// Failed creation must not leak cores.
	if freeCores(t, h) != 8 {
		t.Fatalf("free cores = %d after failed create, want 8", freeCores(t, h))
	}
}

// TestCreateVNPUPlaced: a precomputed mapping (the placement engine's
// path) creates a vNPU without re-running MapTopology, and a stale
// mapping — cores taken since it was computed — fails typed without
// touching the chip.
func TestCreateVNPUPlaced(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	req := Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 1 << 20}
	mapRes, err := MapTopology(h.Device().Graph(), h.FreeCores(), req.Topology, req.Strategy, req.MapOptions)
	if err != nil {
		t.Fatal(err)
	}

	v, err := h.CreateVNPUPlaced(req, mapRes)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(v.Nodes()), len(mapRes.Nodes); got != want {
		t.Fatalf("vNPU spans %d cores, want %d", got, want)
	}
	for i, n := range v.Nodes() {
		if n != mapRes.Nodes[i] {
			t.Fatalf("vCore %d on node %d, placement said %d", i, n, mapRes.Nodes[i])
		}
	}
	if v.MapCost() != mapRes.Cost {
		t.Fatalf("map cost %v, want the placement's %v", v.MapCost(), mapRes.Cost)
	}

	// The same mapping is now stale: its cores are allocated.
	if _, err := h.CreateVNPUPlaced(req, mapRes); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("stale placement: got %v, want ErrNoCapacity", err)
	}
	free := freeCores(t, h)
	if free != 4 {
		t.Fatalf("stale create changed the chip: %d free cores, want 4", free)
	}

	// After destroy the identical mapping is valid again.
	if err := h.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
	v2, err := h.CreateVNPUPlaced(req, mapRes)
	if err != nil {
		t.Fatalf("placed create after destroy: %v", err)
	}
	if err := h.Destroy(v2.ID()); err != nil {
		t.Fatal(err)
	}

	// Malformed placements are rejected up front.
	if _, err := h.CreateVNPUPlaced(req, MapResult{Nodes: mapRes.Nodes[:2]}); err == nil {
		t.Fatal("short placement accepted")
	}
	dup := MapResult{Nodes: []topo.NodeID{0, 0, 1, 2}}
	if _, err := h.CreateVNPUPlaced(req, dup); err == nil {
		t.Fatal("duplicate-node placement accepted")
	}
}

// TestConfinedRoutesBelongToTheVNPU: a confined route depends on the
// vNPU's own cores, so the next vNPU over the same two endpoints with a
// different region gets its own — never the one its predecessor resolved
// — while the chip's dimension-order route between them is one object
// for everybody.
func TestConfinedRoutesBelongToTheVNPU(t *testing.T) {
	h := newHV(t, npu.SimConfig())
	place := func(confined bool, nodes ...topo.NodeID) *VNPU {
		t.Helper()
		v, err := h.CreateVNPUPlaced(Request{Topology: topo.Chain(3), Confined: confined},
			MapResult{Nodes: nodes, Connected: true})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	route := func(v *VNPU) *noc.Route {
		t.Helper()
		r, err := v.route(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := v.route(0, 7); again != r {
			t.Fatal("the route was resolved twice")
		}
		return r
	}
	over1 := place(true, 0, 1, 7)
	if got := fmt.Sprint(route(over1).Nodes()); got != "[0 1 7]" {
		t.Fatalf("confined to {0,1,7}: route %s", got)
	}
	if err := h.Destroy(over1.ID()); err != nil {
		t.Fatal(err)
	}
	over6 := place(true, 0, 6, 7)
	if got := fmt.Sprint(route(over6).Nodes()); got != "[0 6 7]" {
		t.Fatalf("confined to {0,6,7} after a vNPU on {0,1,7}: route %s leaves the region", got)
	}
	if err := h.Destroy(over6.ID()); err != nil {
		t.Fatal(err)
	}
	free := place(false, 0, 6, 7)
	dor, err := h.Device().NoC().DOR(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r := route(free); r != dor || fmt.Sprint(r.Nodes()) != "[0 1 7]" {
		t.Fatalf("unconfined route %v is not the chip's dimension-order route %v", r.Nodes(), dor.Nodes())
	}
}

// TestRecycledDomainRunsAsFresh: a vNPU whose domain opens on the link
// calendars and the bank an earlier, larger job left behind runs to the
// cycles it takes on a chip nothing has run on.
func TestRecycledDomainRunsAsFresh(t *testing.T) {
	// Every core sends to every other, sizes from one byte to hundreds of
	// packets, so routes of several hops cross inside the domain.
	allToAll := func(k int) *isa.Program {
		p := isa.NewProgram()
		tag := uint16(0)
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if a == b {
					continue
				}
				tag++
				size := uint32(1 + (a*k+b)*37%300*2048/7)
				p.Append(isa.CoreID(a), isa.Instr{Op: isa.OpSend, Peer: isa.CoreID(b), Tag: tag, Size: size})
				p.Append(isa.CoreID(b), isa.Instr{Op: isa.OpRecv, Peer: isa.CoreID(a), Tag: tag, Size: size})
			}
		}
		return p
	}
	run := func(h *Hypervisor, shape *topo.Graph, confined bool) npu.Result {
		t.Helper()
		v, err := h.CreateVNPU(Request{Topology: shape, Confined: confined})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.OpenDomain(); err != nil {
			t.Fatal(err)
		}
		// No ResetForRun: a domain opens clean or this fails.
		res, err := h.Device().Run(allToAll(v.NumCores()), v.Placement(), v.Fabric(), npu.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Destroy(v.ID()); err != nil {
			t.Fatal(err)
		}
		return res
	}
	used := newHV(t, npu.SimConfig())
	for round, job := range []struct {
		shape    *topo.Graph
		confined bool
	}{
		{topo.Mesh2D(3, 3), false},
		{topo.Chain(3), true}, // fewer links than the domain has booked before
		{topo.NearMesh(7), true},
		{topo.Mesh2D(3, 3), false},
	} {
		got, want := run(used, job.shape, job.confined), run(newHV(t, npu.SimConfig()), job.shape, job.confined)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d on the reused chip: %+v, fresh chip %+v", round, got, want)
		}
	}
}
