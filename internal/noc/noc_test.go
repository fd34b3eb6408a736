package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

func mesh33() *topo.Graph { return topo.Mesh2D(3, 3) }

func TestDORPathXThenY(t *testing.T) {
	g := mesh33()
	// 0 (0,0) -> 8 (2,2): X first (0->1->2), then Y (2->5->8).
	path, err := DORPath(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []topo.NodeID{0, 1, 2, 5, 8}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDORPathSelf(t *testing.T) {
	g := mesh33()
	path, err := DORPath(g, 4, 4)
	if err != nil || len(path) != 1 || path[0] != 4 {
		t.Fatalf("self path = %v, %v", path, err)
	}
}

func TestDORPathLeavesHoleFails(t *testing.T) {
	g := mesh33()
	g.RemoveNode(1) // punch a hole on the DOR route 0 -> 2
	if _, err := DORPath(g, 0, 2); err == nil {
		t.Fatal("expected error when DOR path crosses a removed node")
	}
}

func TestDORPathNoCoords(t *testing.T) {
	g := topo.New()
	g.AddEdge(0, 1, 1)
	if _, err := DORPath(g, 0, 1); err == nil {
		t.Fatal("expected coordinate error")
	}
}

// Property: DOR path length equals Manhattan distance + 1 nodes.
func TestDORPathManhattanProperty(t *testing.T) {
	g := topo.Mesh2D(5, 5)
	f := func(a, b uint8) bool {
		src := topo.NodeID(int(a) % 25)
		dst := topo.NodeID(int(b) % 25)
		path, err := DORPath(g, src, dst)
		if err != nil {
			return false
		}
		ca, _ := g.CoordOf(src)
		cb, _ := g.CoordOf(dst)
		return len(path) == topo.Manhattan(ca, cb)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConstrainedPathStaysInside(t *testing.T) {
	g := mesh33()
	// L-shaped vNPU: 0,1,2,5,8. Path 0 -> 8 must follow the L, not cut
	// through 4.
	allowed := map[topo.NodeID]bool{0: true, 1: true, 2: true, 5: true, 8: true}
	path, err := ConstrainedPath(g, 0, 8, allowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range path {
		if !allowed[id] {
			t.Fatalf("path %v escapes allowed set at %d", path, id)
		}
	}
	if len(path) != 5 {
		t.Fatalf("path length = %d, want 5 (the full L)", len(path))
	}
}

func TestConstrainedPathUnreachable(t *testing.T) {
	g := mesh33()
	allowed := map[topo.NodeID]bool{0: true, 8: true} // disconnected fragment
	if _, err := ConstrainedPath(g, 0, 8, allowed); err == nil {
		t.Fatal("expected unreachable error")
	}
}

func TestConstrainedPathEndpointsChecked(t *testing.T) {
	g := mesh33()
	if _, err := ConstrainedPath(g, 0, 4, map[topo.NodeID]bool{0: true}); err == nil {
		t.Fatal("expected endpoint error")
	}
}

func TestConstrainedPathDeterministic(t *testing.T) {
	g := topo.Mesh2D(4, 4)
	allowed := map[topo.NodeID]bool{}
	for _, id := range g.Nodes() {
		allowed[id] = true
	}
	a, err := ConstrainedPath(g, 0, 15, allowed)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, _ := ConstrainedPath(g, 0, 15, allowed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic path: %v vs %v", a, b)
			}
		}
	}
}

func TestPathDirections(t *testing.T) {
	g := mesh33()
	path := []topo.NodeID{0, 1, 4, 3} // right, down, left
	dirs, err := PathDirections(g, path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Direction{DirRight, DirDown, DirLeft}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("dirs = %v, want %v", dirs, want)
		}
	}
	if DirDown.String() != "Bottom" || DirNone.String() != "NULL" {
		t.Fatal("direction names must follow Fig 5 vocabulary")
	}
}

func TestPathDirectionsNonMeshHop(t *testing.T) {
	g := topo.New()
	g.AddEdge(0, 1, 1)
	g.SetCoord(0, topo.Coord{X: 0, Y: 0})
	g.SetCoord(1, topo.Coord{X: 2, Y: 0}) // two columns away: not a hop
	if _, err := PathDirections(g, []topo.NodeID{0, 1}); err == nil {
		t.Fatal("expected non-mesh-hop error")
	}
}

func TestTransferSinglePacketTiming(t *testing.T) {
	g := mesh33()
	n := New(g, Config{})
	// One 2048-byte packet over one hop: handshake 20 + issue 12 +
	// 2048/16=128 serialization + 3 hop = 163.
	done, err := n.Transfer(0, []topo.NodeID{0, 1}, 2048, Unowned)
	if err != nil {
		t.Fatal(err)
	}
	if done != 163 {
		t.Fatalf("done = %v, want 163", done)
	}
	s := n.Stats()
	if s.Packets != 1 || s.Bytes != 2048 || s.Transfers != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTransferMultiPacketSlope(t *testing.T) {
	g := mesh33()
	cfg := Config{}
	n1 := New(g, cfg)
	n2 := New(g, cfg)
	d2, _ := n1.Transfer(0, []topo.NodeID{0, 1}, 2*2048, Unowned)
	d10, _ := n2.Transfer(0, []topo.NodeID{0, 1}, 10*2048, Unowned)
	slope := (d10 - d2) / 8
	// Per-packet cost should be near 140 cycles (Table 3: (1430-309)/8).
	if slope < 120 || slope > 160 {
		t.Fatalf("per-packet slope = %v, want ~140", slope)
	}
}

func TestTransferInvalidPath(t *testing.T) {
	g := mesh33()
	n := New(g, Config{})
	if _, err := n.Transfer(0, []topo.NodeID{0, 8}, 64, Unowned); err == nil {
		t.Fatal("expected missing-link error")
	}
	if _, err := n.Transfer(0, []topo.NodeID{0}, 64, Unowned); err == nil {
		t.Fatal("expected short-path error")
	}
}

func TestTransferContentionOnSharedLink(t *testing.T) {
	g := mesh33()
	n := New(g, Config{})
	path := []topo.NodeID{0, 1}
	d1, _ := n.Transfer(0, path, 2048, Unowned)
	d2, _ := n.Transfer(0, path, 2048, Unowned) // same link: serialized
	if d2 <= d1 {
		t.Fatalf("second transfer %v must finish after first %v", d2, d1)
	}
	// Opposite direction is an independent link: no contention.
	n2 := New(g, Config{})
	a, _ := n2.Transfer(0, []topo.NodeID{0, 1}, 2048, Unowned)
	b, _ := n2.Transfer(0, []topo.NodeID{1, 0}, 2048, Unowned)
	if a != b {
		t.Fatalf("full-duplex directions should not contend: %v vs %v", a, b)
	}
}

func TestInterferenceAccounting(t *testing.T) {
	g := mesh33()
	n := New(g, Config{})
	n.SetOwner(0, 1)
	n.SetOwner(1, 2) // middle router owned by another vNPU
	n.SetOwner(2, 1)
	path := []topo.NodeID{0, 1, 2}
	if _, err := n.Transfer(0, path, 64, 1); err != nil {
		t.Fatal(err)
	}
	if n.Stats().InterferenceHops != 1 {
		t.Fatalf("InterferenceHops = %d, want 1", n.Stats().InterferenceHops)
	}
	// A path fully inside the owner's cores records none.
	n.ResetStats()
	n.SetOwner(1, 1)
	n.Transfer(0, path, 64, 1)
	if n.Stats().InterferenceHops != 0 {
		t.Fatalf("InterferenceHops = %d, want 0", n.Stats().InterferenceHops)
	}
	if n.Owner(1) != 1 {
		t.Fatalf("Owner(1) = %d", n.Owner(1))
	}
}

func TestTransferZeroBytes(t *testing.T) {
	g := mesh33()
	n := New(g, Config{})
	done, err := n.Transfer(5, []topo.NodeID{0, 1}, 0, Unowned)
	if err != nil {
		t.Fatal(err)
	}
	if done != 5+n.Config().HandshakeCycles {
		t.Fatalf("done = %v", done)
	}
}

func TestWormholeLongPathsConsumeMoreLinkTime(t *testing.T) {
	g := topo.Mesh2D(4, 4)
	short := New(g, Config{})
	long := New(g, Config{})
	pShort, _ := DORPath(g, 0, 1) // 1 hop
	pLong, _ := DORPath(g, 0, 15) // 6 hops
	if _, err := short.Transfer(0, pShort, 4096, Unowned); err != nil {
		t.Fatal(err)
	}
	if _, err := long.Transfer(0, pLong, 4096, Unowned); err != nil {
		t.Fatal(err)
	}
	// Wormhole switching: a packet in flight holds every link of its
	// path, so the long route books ~6x the aggregate link time.
	shortBusy := totalLinkBusy(short)
	longBusy := totalLinkBusy(long)
	if longBusy < 5*shortBusy {
		t.Fatalf("aggregate link time: long=%v short=%v, want ~6x", longBusy, shortBusy)
	}
}

func totalLinkBusy(n *Network) sim.Cycles {
	var total sim.Cycles
	for i := range n.global.links {
		total += n.global.links[i].BusyTotal()
	}
	return total
}

// Property: interference hops are counted exactly: a path's interior nodes
// owned by foreign vNPUs, once per transfer.
func TestInterferenceCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.Mesh2D(4, 4)
		n := New(g, Config{})
		// Random ownership.
		for _, id := range g.Nodes() {
			if rng.Intn(2) == 0 {
				n.SetOwner(id, 1+rng.Intn(3))
			}
		}
		src := topo.NodeID(rng.Intn(16))
		dst := topo.NodeID(rng.Intn(16))
		if src == dst {
			return true
		}
		path, err := DORPath(g, src, dst)
		if err != nil {
			return false
		}
		vm := 1 + rng.Intn(3)
		want := uint64(0)
		for _, node := range path[1 : len(path)-1] {
			if o := n.Owner(node); o != Unowned && o != vm {
				want++
			}
		}
		if _, err := n.Transfer(0, path, 64, vm); err != nil {
			return false
		}
		return n.Stats().InterferenceHops == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer time grows monotonically with payload size.
func TestTransferMonotonicInSizeProperty(t *testing.T) {
	g := topo.Mesh2D(4, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := 1 + rng.Intn(1<<14)
		s2 := s1 + 1 + rng.Intn(1<<14)
		na := New(g, Config{})
		nb := New(g, Config{})
		path, err := DORPath(g, 0, 15)
		if err != nil {
			return false
		}
		d1, e1 := na.Transfer(0, path, s1, Unowned)
		d2, e2 := nb.Transfer(0, path, s2, Unowned)
		return e1 == nil && e2 == nil && d2 >= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
