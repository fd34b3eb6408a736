package topo

import "sort"

// Mesh2D builds a rows x cols 2D mesh with node IDs assigned row-major from
// 0 and coordinates recorded for every node. This is the physical topology
// of the NPUs evaluated in the paper (Table 2).
func Mesh2D(rows, cols int) *Graph {
	g := New()
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			id := NodeID(y*cols + x)
			g.AddNode(id, KindCore)
			g.SetCoord(id, Coord{X: x, Y: y})
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			id := NodeID(y*cols + x)
			if x+1 < cols {
				g.AddEdge(id, id+1, DefaultEdgeCost)
			}
			if y+1 < rows {
				g.AddEdge(id, NodeID((y+1)*cols+x), DefaultEdgeCost)
			}
		}
	}
	return g
}

// Chain builds a 1 x n linear pipeline topology.
func Chain(n int) *Graph { return Mesh2D(1, n) }

// Ring builds an n-node cycle.
func Ring(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), KindCore)
	}
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n), DefaultEdgeCost)
	}
	return g
}

// NearMesh builds the most compact connected topology with exactly n
// nodes: the largest rows x cols mesh with rows*cols <= n plus the
// remaining nodes appended as a partial extra row. Node IDs are 0..n-1.
// This is how tenants request "blob" topologies for core counts that are
// not perfect rectangles (Fig 18's 13-core requests).
func NearMesh(n int) *Graph {
	if n <= 0 {
		return New()
	}
	cols := 1
	for (cols+1)*(cols+1) <= n {
		cols++
	}
	rows := n / cols
	rem := n - rows*cols
	g := Mesh2D(rows, cols)
	// Append the remainder as a partial row below, attached to the mesh.
	for i := 0; i < rem; i++ {
		id := NodeID(rows*cols + i)
		g.AddNode(id, KindCore)
		g.SetCoord(id, Coord{X: i, Y: rows})
		g.AddEdge(id, NodeID((rows-1)*cols+i), DefaultEdgeCost)
		if i > 0 {
			g.AddEdge(id, id-1, DefaultEdgeCost)
		}
	}
	return g
}

// Manhattan returns the Manhattan distance between two coordinates.
func Manhattan(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// ZigZagOrder returns the node IDs of a mesh in snake order: row 0 left to
// right, row 1 right to left, and so on. Nodes without coordinates are
// appended in ascending ID order. This is the "straightforward" allocation
// order the paper compares against (Fig 8, Fig 18).
func ZigZagOrder(g *Graph) []NodeID {
	type placed struct {
		id NodeID
		c  Coord
	}
	var withCoord []placed
	var without []NodeID
	for _, id := range g.Nodes() {
		if c, ok := g.CoordOf(id); ok {
			withCoord = append(withCoord, placed{id, c})
		} else {
			without = append(without, id)
		}
	}
	sort.Slice(withCoord, func(i, j int) bool {
		a, b := withCoord[i], withCoord[j]
		if a.c.Y != b.c.Y {
			return a.c.Y < b.c.Y
		}
		if a.c.Y%2 == 0 {
			return a.c.X < b.c.X
		}
		return a.c.X > b.c.X
	})
	out := make([]NodeID, 0, len(withCoord)+len(without))
	for _, p := range withCoord {
		out = append(out, p.id)
	}
	return append(out, without...)
}

// MeshBounds reports the bounding box (min and max coordinates) of the
// embedded nodes. ok is false when no node has coordinates.
func MeshBounds(g *Graph) (min, max Coord, ok bool) { return ViewOf(g).bounds() }
