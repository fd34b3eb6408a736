package core

import (
	"testing"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

func TestStandardRTLookup(t *testing.T) {
	rt := NewStandardRT(1, map[isa.CoreID]topo.NodeID{0: 1, 1: 2, 2: 4, 3: 5})
	p, err := rt.Lookup(2)
	if err != nil || p != 4 {
		t.Fatalf("Lookup(2) = %v, %v", p, err)
	}
	if _, err := rt.Lookup(9); err == nil {
		t.Fatal("expected missing-entry error")
	}
	if rt.NumVirtualCores() != 4 || rt.HardwareEntries() != 4 {
		t.Fatalf("sizes = %d, %d", rt.NumVirtualCores(), rt.HardwareEntries())
	}
	if rt.Type.String() != "Standard" {
		t.Fatalf("type = %s", rt.Type)
	}
}

func TestShapedRTLookup(t *testing.T) {
	// Fig 4's vNPU1: a 2x2 virtual mesh starting at physical node 1 on a
	// 3-column physical mesh: vIDs 0,1,2,3 -> pIDs 1,2,4,5.
	rt, err := NewShapedRT(1, 0, 1, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []topo.NodeID{1, 2, 4, 5}
	for v, wantP := range want {
		p, err := rt.Lookup(isa.CoreID(v))
		if err != nil || p != wantP {
			t.Fatalf("Lookup(%d) = %v, %v; want %v", v, p, err, wantP)
		}
	}
	if _, err := rt.Lookup(4); err == nil {
		t.Fatal("out-of-shape lookup must fail")
	}
	if rt.HardwareEntries() != 1 {
		t.Fatalf("shaped table must need exactly 1 entry, got %d", rt.HardwareEntries())
	}
	if rt.NumVirtualCores() != 4 {
		t.Fatalf("NumVirtualCores = %d", rt.NumVirtualCores())
	}
	if rt.Type.String() != "2D Mesh" {
		t.Fatalf("type = %s", rt.Type)
	}
}

func TestShapedRTValidation(t *testing.T) {
	if _, err := NewShapedRT(1, 0, 0, 0, 2, 4); err == nil {
		t.Fatal("zero rows must fail")
	}
	if _, err := NewShapedRT(1, 0, 0, 2, 5, 4); err == nil {
		t.Fatal("cols wider than mesh must fail")
	}
}

func TestRTSizeBits(t *testing.T) {
	std := NewStandardRT(1, map[isa.CoreID]topo.NodeID{0: 0, 1: 1, 2: 2, 3: 3})
	shaped, _ := NewShapedRT(1, 0, 0, 2, 2, 4)
	if std.SizeBits() <= shaped.SizeBits() {
		t.Fatalf("standard table (%d bits) must cost more than shaped (%d bits)",
			std.SizeBits(), shaped.SizeBits())
	}
}

func TestRTVirtualCoresAndPhysicalNodes(t *testing.T) {
	rt := NewStandardRT(2, map[isa.CoreID]topo.NodeID{2: 7, 0: 3, 1: 5})
	vs := rt.VirtualCores()
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("VirtualCores = %v", vs)
	}
	ps := rt.PhysicalNodes()
	if ps[0] != 3 || ps[1] != 5 || ps[2] != 7 {
		t.Fatalf("PhysicalNodes = %v", ps)
	}
	shaped, _ := NewShapedRT(1, 10, 0, 1, 3, 4)
	vs2 := shaped.VirtualCores()
	if len(vs2) != 3 || vs2[0] != 10 || vs2[2] != 12 {
		t.Fatalf("shaped VirtualCores = %v", vs2)
	}
}

// refRectangleRowMajor is the parent's decision, verbatim: mesh-ness by
// comparing WL signatures with a freshly built rows x cols mesh.
func refRectangleRowMajor(phys, req *topo.Graph, nodes []topo.NodeID) (rows, cols int, ok bool) {
	sub := phys.Induced(nodes)
	min, max, has := topo.MeshBounds(sub)
	if !has {
		return 0, 0, false
	}
	rows = max.Y - min.Y + 1
	cols = max.X - min.X + 1
	if rows*cols != len(nodes) {
		return 0, 0, false
	}
	if topo.Signature(req, 0) != topo.Signature(topo.Mesh2D(rows, cols), 0) {
		return 0, 0, false
	}
	for v, p := range nodes {
		c, has := phys.CoordOf(p)
		if !has {
			return 0, 0, false
		}
		if c.X != min.X+v%cols || c.Y != min.Y+v/cols {
			return 0, 0, false
		}
	}
	return rows, cols, true
}

// TestRoutingTableFormatChoice: the shaped single-entry format is chosen
// exactly when the request is the full rows x cols mesh laid row-major on
// an axis-aligned rectangle. The signature-based reference agrees on every
// row except the relabelled meshes, which it cannot tell from the mesh.
func TestRoutingTableFormatChoice(t *testing.T) {
	phys := topo.Mesh2D(6, 6)
	rect2x3 := []topo.NodeID{7, 8, 9, 13, 14, 15}

	chord := topo.Mesh2D(2, 3)
	chord.AddEdge(0, 4, topo.DefaultEdgeCost)
	missing := topo.New()
	for _, e := range topo.Mesh2D(2, 3).Edges() {
		if e.A != 1 || e.B != 2 {
			missing.AddEdge(e.A, e.B, e.Cost)
		}
	}
	// The 2x3 mesh with virtual cores 0 and 1 swapped: isomorphic, but
	// core 1 is now the corner and core 0 the middle of the top row.
	relabelled := topo.New()
	swap := func(id topo.NodeID) topo.NodeID {
		if id <= 1 {
			return 1 - id
		}
		return id
	}
	for _, e := range topo.Mesh2D(2, 3).Edges() {
		relabelled.AddEdge(swap(e.A), swap(e.B), e.Cost)
	}

	for _, tc := range []struct {
		name       string
		req        *topo.Graph
		nodes      []topo.NodeID
		want       RTType
		refIsWrong bool
	}{
		{"2x3 mesh", topo.Mesh2D(2, 3), rect2x3, RTShaped, false},
		{"2x3 plus a chord", chord, rect2x3, RTStandard, false},
		{"2x3 minus an edge", missing, rect2x3, RTStandard, false},
		{"column-major order", topo.Mesh2D(2, 3), []topo.NodeID{7, 13, 8, 14, 9, 15}, RTStandard, false},
		{"chain on a 1x4 strip", topo.Chain(4), []topo.NodeID{20, 21, 22, 23}, RTShaped, false},
		{"L-shaped region", topo.NearMesh(5), []topo.NodeID{7, 8, 13, 14, 19}, RTStandard, false},
		{"relabelled 2x3 mesh", relabelled, rect2x3, RTStandard, true},
		{"3x2 request on a 2x3 rectangle", topo.Mesh2D(3, 2), rect2x3, RTStandard, true},
	} {
		rt := buildRoutingTable(1, phys, tc.req, tc.nodes, 6)
		if rt.Type != tc.want {
			t.Errorf("%s: %s table, want %s", tc.name, rt.Type, tc.want)
		}
		_, _, refShaped := refRectangleRowMajor(phys, tc.req, tc.nodes)
		if refAgrees := refShaped == (tc.want == RTShaped); refAgrees == tc.refIsWrong {
			t.Errorf("%s: reference shaped=%v, row says the reference is wrong: %v", tc.name, refShaped, tc.refIsWrong)
		}
		for v, p := range tc.nodes {
			if got, err := rt.Lookup(isa.CoreID(v)); err != nil || got != p {
				t.Errorf("%s: Lookup(%d) = %v, %v; want %v", tc.name, v, got, err, p)
			}
		}
	}
}
