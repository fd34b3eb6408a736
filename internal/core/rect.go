package core

import (
	"slices"

	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// exactRectangle is the zero-edit-distance fast path of the similar
// mapper: when the request is a full W×H mesh (every node carries one
// cell of a W×H coordinate grid) and the free portion of the physical
// mesh contains a congruent all-free rectangle, the coordinate-aligned
// assignment is an exact match. Under structural costs no mapping can
// beat edit distance 0, so the mapper returns it immediately — Algorithm
// 1's early exit, lifted in front of candidate enumeration, which a cache
// miss otherwise pays in full even when the chip has a perfect hole.
//
// Geometry only nominates the assignment; ged.PathCost verifies it is
// genuinely zero-cost (edge multiset, node kinds and edge weights all
// match) before it is returned, so a request with non-mesh edges or
// heterogeneous kinds simply falls through to the general search.
func exactRectangle(phys *topo.Graph, free []topo.NodeID, req *topo.Graph, opt ged.Options) (MapResult, bool) {
	k := req.NumNodes()
	// The request's grid comes off its view, decoded once per topology.
	// cells index the vCore slice directly: positions are virtual core IDs
	// because MapTopology validates dense 0..k-1 request IDs before any
	// mapper runs; keep the guard anyway.
	rv := topo.ViewOf(req)
	cells, w, h, ok := rv.Grid()
	if !ok || rv.IDs[0] != 0 || int(rv.IDs[k-1]) != k-1 {
		return MapResult{}, false
	}
	// A true W×H mesh has exactly w(h-1)+h(w-1) edges; anything else can
	// never verify at cost 0, so skip the anchor scan.
	if req.NumEdges() != w*(h-1)+h*(w-1) {
		return MapResult{}, false
	}

	freeAt := make(map[topo.Coord]topo.NodeID, len(free))
	anchors := make([]topo.NodeID, 0, len(free))
	for _, id := range free {
		if c, has := phys.CoordOf(id); has {
			freeAt[c] = id
			anchors = append(anchors, id)
		}
	}
	if len(anchors) < k {
		return MapResult{}, false
	}
	slices.Sort(anchors)

	orients := [2]bool{false, true} // transposed?
	// One buffer serves every anchor: a geometric match writes all k
	// cells, and the first verified match returns it, so nothing of an
	// earlier, failed anchor can leak into a result.
	nodes := make([]topo.NodeID, k) // vCore order
	for _, anchor := range anchors {
		ac, _ := phys.CoordOf(anchor)
		for _, transposed := range orients {
			rw, rh := w, h
			if transposed {
				if w == h {
					continue
				}
				rw, rh = h, w
			}
			match := true
			for dy := 0; dy < rh && match; dy++ {
				for dx := 0; dx < rw; dx++ {
					p, has := freeAt[topo.Coord{X: ac.X + dx, Y: ac.Y + dy}]
					if !has {
						match = false
						break
					}
					// Virtual cell (vx, vy): the request's own grid
					// orientation, so a transposed placement maps (vx, vy)
					// onto physical offset (dy, dx) = (vy, vx) swapped.
					vx, vy := dx, dy
					if transposed {
						vx, vy = dy, dx
					}
					nodes[cells[vy*w+vx]] = p
				}
			}
			if !match {
				continue
			}
			m := make(ged.Mapping, k)
			for v, p := range nodes {
				m[topo.NodeID(v)] = p
			}
			sub := phys.Induced(nodes)
			if ged.PathCost(req, sub, m, opt) != 0 {
				continue
			}
			return MapResult{
				Nodes:      nodes,
				Cost:       0,
				Candidates: 1,
				Connected:  true,
			}, true
		}
	}
	return MapResult{}, false
}
