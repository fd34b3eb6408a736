package place

import (
	"fmt"
	"strings"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// refCanonicalKey is the fmt-built key the view-derived one replaced,
// verbatim.
func refCanonicalKey(g *topo.Graph) string {
	var sb strings.Builder
	for _, id := range g.Nodes() {
		fmt.Fprintf(&sb, "%d:%s", id, g.KindOf(id))
		if c, ok := g.CoordOf(id); ok {
			fmt.Fprintf(&sb, "@%d,%d", c.X, c.Y)
		}
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d-%d:%g;", e.A, e.B, e.Cost)
	}
	return sb.String()
}

// TestCanonicalKeyByteIdentical: cache keys, session keys and fleet
// routing keys are all made of this string, so deriving it without fmt
// must not move a byte of it.
func TestCanonicalKeyByteIdentical(t *testing.T) {
	graphs := map[string]*topo.Graph{
		"empty":     topo.New(),
		"mesh-1x2":  topo.Mesh2D(1, 2),
		"mesh-3x3":  topo.Mesh2D(3, 3),
		"mesh-6x6":  topo.Mesh2D(6, 6),
		"chain-7":   topo.Chain(7),
		"ring-5":    topo.Ring(5), // no coordinates
		"near-7":    topo.NearMesh(7),
		"near-13":   topo.NearMesh(13),
		"induced":   topo.Mesh2D(4, 4).Induced([]topo.NodeID{1, 2, 5, 6, 10, 15}),
		"weighted":  topo.New(),
		"partially": topo.Chain(3),
	}
	w := graphs["weighted"]
	w.AddNode(12, "memif")
	w.AddNode(-3, "")
	for i, cost := range []float64{1, 0.5, 1e-7, 1e21, 2.5e-5, 123456789, 1e20, 0.1} {
		w.AddEdge(topo.NodeID(i), topo.NodeID(i+1), cost)
	}
	w.AddEdge(12, -3, 3)
	w.SetCoord(4, topo.Coord{X: -2, Y: 11})
	graphs["partially"].AddNode(9, "sfu") // a node without a coordinate among embedded ones

	for name, g := range graphs {
		if got, want := CanonicalKey(g), refCanonicalKey(g); got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}
