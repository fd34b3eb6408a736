package noc

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Route is a path resolved against a Network: its nodes, the directed
// link behind every hop, and the routers between the endpoints, whose
// owners decide interference. A route is immutable; any number of
// transfers, in any domain of the network that resolved it, may share it.
type Route struct {
	nodes []topo.NodeID
	links []int32 // per hop, the network's index of the directed link
	inner []int32 // positions of nodes[1 : len(nodes)-1]
}

// Nodes returns the route's cores, source first. The slice is the
// route's own: read-only.
func (r *Route) Nodes() []topo.NodeID { return r.nodes }

// Resolve checks that consecutive nodes of path are linked and binds each
// hop to its link. A path of fewer than two nodes resolves to a route
// that cannot be sent on. A path that takes one directed link twice is
// refused: a wormhole packet would wait on itself.
func (n *Network) Resolve(path []topo.NodeID) (*Route, error) {
	r := new(Route)
	if err := n.resolve(r, append([]topo.NodeID(nil), path...)); err != nil {
		return nil, err
	}
	return r, nil
}

// resolve fills r with the route along path, which r keeps.
func (n *Network) resolve(r *Route, path []topo.NodeID) error {
	r.nodes = path
	if len(path) < 2 {
		return nil
	}
	hops := len(path) - 1
	buf := make([]int32, 2*hops-1)
	r.links, r.inner = buf[:hops:hops], buf[hops:]
	from, known := n.view.Pos(path[0])
	for i, id := range path[1:] {
		to, ok := n.view.Pos(id)
		link := int32(-1)
		if known && ok {
			if k, linked := slices.BinarySearch(n.view.Nbrs[from], to); linked {
				link = n.linkBase[from] + int32(k)
			}
		}
		if link < 0 {
			return fmt.Errorf("noc: no link %d -> %d", path[i], id)
		}
		if slices.Contains(r.links[:i], link) {
			return fmt.Errorf("noc: path takes link %d -> %d twice", path[i], id)
		}
		r.links[i] = link
		if i < len(r.inner) {
			r.inner[i] = int32(to)
		}
		from, known = to, ok
	}
	return nil
}

// DOR returns the dimension-order route between two cores, the
// deadlock-free default routing of §4.1.2. It is a function of the chip
// alone, so the network builds each pair's route once and every vNPU,
// domain and bare-metal fabric reads the same one.
func (n *Network) DOR(src, dst topo.NodeID) (*Route, error) {
	s, ok1 := n.view.Pos(src)
	d, ok2 := n.view.Pos(dst)
	var slot *atomic.Pointer[Route]
	if ok1 && ok2 {
		slot = &n.dor[s*len(n.view.IDs)+d]
		if r := slot.Load(); r != nil {
			return r, nil
		}
	}
	path, err := DORPath(n.graph, src, dst)
	if err != nil {
		return nil, err
	}
	r := new(Route)
	if err := n.resolve(r, path); err != nil {
		return nil, err
	}
	if slot != nil {
		slot.Store(r)
	}
	return r, nil
}

// DORPath computes the dimension-order route (X first, then Y) between two
// mesh nodes. Both nodes must carry mesh coordinates, and the mesh must
// contain every intermediate node; otherwise an error is returned.
func DORPath(g *topo.Graph, src, dst topo.NodeID) ([]topo.NodeID, error) {
	if src == dst {
		return []topo.NodeID{src}, nil
	}
	cur, ok1 := g.CoordOf(src)
	dc, ok2 := g.CoordOf(dst)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("noc: DOR needs mesh coordinates for %d and %d", src, dst)
	}
	v := topo.ViewOf(g)
	path := make([]topo.NodeID, 1, 1+topo.Manhattan(cur, dc))
	path[0] = src
	for cur != dc {
		switch {
		case dc.X > cur.X:
			cur.X++
		case dc.X < cur.X:
			cur.X--
		case dc.Y > cur.Y:
			cur.Y++
		default:
			cur.Y--
		}
		p, ok := v.At(cur)
		if !ok {
			return nil, fmt.Errorf("noc: DOR path leaves the mesh at (%d,%d)", cur.X, cur.Y)
		}
		prev, id := path[len(path)-1], v.IDs[p]
		if !g.HasEdge(prev, id) {
			return nil, fmt.Errorf("noc: missing mesh link %d -> %d", prev, id)
		}
		path = append(path, id)
	}
	return path, nil
}

// ConstrainedPath computes a shortest path from src to dst that stays
// inside the allowed node set — the paper's second routing strategy, where
// predefined directions in the routing table keep NoC packets confined to
// the virtual topology (§4.1.2, "NoC non-interference"). It returns nil
// with an error when dst is unreachable within the constraint (e.g. a
// disconnected fragment allocation).
//
// Ties are broken deterministically by preferring lower node IDs, so the
// same virtual NPU always gets the same routes.
func ConstrainedPath(g *topo.Graph, src, dst topo.NodeID, allowed map[topo.NodeID]bool) ([]topo.NodeID, error) {
	if !allowed[src] || !allowed[dst] {
		return nil, fmt.Errorf("noc: endpoints %d,%d not in allowed set", src, dst)
	}
	if src == dst {
		return []topo.NodeID{src}, nil
	}
	prev := map[topo.NodeID]topo.NodeID{src: src}
	frontier := []topo.NodeID{src}
	for len(frontier) > 0 {
		if _, done := prev[dst]; done {
			break
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		var next []topo.NodeID
		for _, cur := range frontier {
			for _, nb := range g.Neighbors(cur) {
				if !allowed[nb] {
					continue
				}
				if _, seen := prev[nb]; seen {
					continue
				}
				prev[nb] = cur
				next = append(next, nb)
			}
		}
		frontier = next
	}
	if _, ok := prev[dst]; !ok {
		return nil, fmt.Errorf("noc: %d unreachable from %d within virtual topology", dst, src)
	}
	// Reconstruct.
	var rev []topo.NodeID
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// PathDirections converts a path into the per-hop directions stored in the
// NoC routing table (Fig 5's Direction column). Nodes need coordinates.
func PathDirections(g *topo.Graph, path []topo.NodeID) ([]Direction, error) {
	if len(path) < 2 {
		return nil, nil
	}
	dirs := make([]Direction, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		a, ok1 := g.CoordOf(path[i])
		b, ok2 := g.CoordOf(path[i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("noc: node %d or %d lacks coordinates", path[i], path[i+1])
		}
		switch {
		case b.X == a.X-1 && b.Y == a.Y:
			dirs = append(dirs, DirLeft)
		case b.X == a.X+1 && b.Y == a.Y:
			dirs = append(dirs, DirRight)
		case b.Y == a.Y-1 && b.X == a.X:
			dirs = append(dirs, DirUp)
		case b.Y == a.Y+1 && b.X == a.X:
			dirs = append(dirs, DirDown)
		default:
			return nil, fmt.Errorf("noc: path step %d -> %d is not a mesh hop", path[i], path[i+1])
		}
	}
	return dirs, nil
}

// Direction is a mesh routing direction as stored in the per-core NoC
// routing tables (Fig 5).
type Direction uint8

// Mesh directions. DirNone means "local delivery / use default DOR".
const (
	DirNone Direction = iota
	DirLeft
	DirRight
	DirUp
	DirDown
)

var directionNames = [...]string{"NULL", "Left", "Right", "Up", "Bottom"}

// String renders the direction using the paper's Fig 5 vocabulary.
func (d Direction) String() string {
	if int(d) < len(directionNames) {
		return directionNames[d]
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}
