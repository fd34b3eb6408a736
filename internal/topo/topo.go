// Package topo models hardware topologies for inter-core connected NPUs.
//
// A Graph is an undirected labelled graph: nodes carry a Kind attribute
// (e.g. "core", "memif") so heterogeneous topologies can be expressed, and
// edges carry a cost used by the topology-mapping algorithms. 2D meshes —
// the dominant NPU topology in the paper — get first-class support with
// coordinates, Manhattan distance and zig-zag (snake) orderings.
package topo

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// NodeID identifies a node within a Graph. Physical NPU cores are numbered
// from 0 in row-major order; virtual topologies use their own dense IDs.
type NodeID int

// KindCore is the default node kind for NPU compute cores.
const KindCore = "core"

// Node is a vertex with an attribute used by heterogeneous matching.
type Node struct {
	ID   NodeID
	Kind string
}

// Edge is an undirected edge with a mapping cost (importance). The zero
// cost is treated as DefaultEdgeCost by the edit-distance machinery.
type Edge struct {
	A, B NodeID
	Cost float64
}

// DefaultEdgeCost is the edit penalty for an ordinary edge.
const DefaultEdgeCost = 1.0

// Graph is an undirected labelled graph. The zero value is not usable; use
// New or one of the topology constructors. Reads are safe from several
// goroutines as long as no goroutine mutates the graph.
type Graph struct {
	nodes  map[NodeID]Node
	adj    map[NodeID]map[NodeID]float64
	coords map[NodeID]Coord // optional spatial embedding (meshes)
	// view caches the dense form (ViewOf); every mutator drops it.
	view atomic.Pointer[View]
}

// Coord is a 2D mesh coordinate.
type Coord struct{ X, Y int }

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:  make(map[NodeID]Node),
		adj:    make(map[NodeID]map[NodeID]float64),
		coords: make(map[NodeID]Coord),
	}
}

// AddNode inserts a node with the given kind. Adding an existing node
// updates its kind and keeps its edges.
func (g *Graph) AddNode(id NodeID, kind string) {
	g.view.Store(nil)
	g.nodes[id] = Node{ID: id, Kind: kind}
	if g.adj[id] == nil {
		g.adj[id] = make(map[NodeID]float64)
	}
}

// AddEdge inserts an undirected edge with the given cost, creating missing
// endpoints as KindCore nodes. Re-adding an edge updates its cost.
func (g *Graph) AddEdge(a, b NodeID, cost float64) {
	if a == b {
		return
	}
	if _, ok := g.nodes[a]; !ok {
		g.AddNode(a, KindCore)
	}
	if _, ok := g.nodes[b]; !ok {
		g.AddNode(b, KindCore)
	}
	if cost == 0 {
		cost = DefaultEdgeCost
	}
	g.view.Store(nil)
	g.adj[a][b] = cost
	g.adj[b][a] = cost
}

// RemoveNode deletes a node and all incident edges. Removing an absent node
// is a no-op.
func (g *Graph) RemoveNode(id NodeID) {
	g.view.Store(nil)
	for nb := range g.adj[id] {
		delete(g.adj[nb], id)
	}
	delete(g.adj, id)
	delete(g.nodes, id)
	delete(g.coords, id)
}

// SetCoord records a spatial embedding for a node.
func (g *Graph) SetCoord(id NodeID, c Coord) {
	g.view.Store(nil)
	g.coords[id] = c
}

// CoordOf returns the spatial embedding of a node, if any.
func (g *Graph) CoordOf(id NodeID) (Coord, bool) {
	c, ok := g.coords[id]
	return c, ok
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id NodeID) bool { _, ok := g.nodes[id]; return ok }

// HasEdge reports whether an undirected edge a-b is present.
func (g *Graph) HasEdge(a, b NodeID) bool { _, ok := g.adj[a][b]; return ok }

// EdgeCost returns the cost of edge a-b, or 0 and false if absent.
func (g *Graph) EdgeCost(a, b NodeID) (float64, bool) {
	c, ok := g.adj[a][b]
	return c, ok
}

// KindOf returns a node's kind, or "" if the node is absent.
func (g *Graph) KindOf(id NodeID) string { return g.nodes[id].Kind }

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the undirected edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nbs := range g.adj {
		total += len(nbs)
	}
	return total / 2
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID { return slices.Clone(ViewOf(g).IDs) }

// Edges returns all edges with A < B, sorted by (A, B).
func (g *Graph) Edges() []Edge { return slices.Clone(ViewOf(g).Edges) }

// Neighbors returns the neighbors of id in ascending order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	v := ViewOf(g)
	p, ok := v.Pos(id)
	if !ok {
		return []NodeID{}
	}
	nbs := make([]NodeID, len(v.Nbrs[p]))
	for i, nb := range v.Nbrs[p] {
		nbs[i] = v.IDs[nb]
	}
	return nbs
}

// Degree reports the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// Clone returns a deep copy, each map copied at its final size.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:  maps.Clone(g.nodes),
		adj:    make(map[NodeID]map[NodeID]float64, len(g.adj)),
		coords: maps.Clone(g.coords),
	}
	for a, nbs := range g.adj {
		c.adj[a] = maps.Clone(nbs)
	}
	return c
}

// Induced returns the subgraph induced by ids: those nodes and every edge of
// g with both endpoints in ids. Unknown ids are ignored.
func (g *Graph) Induced(ids []NodeID) *Graph {
	sub := New()
	in := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		if n, ok := g.nodes[id]; ok {
			in[id] = true
			sub.AddNode(id, n.Kind)
			if c, ok := g.coords[id]; ok {
				sub.coords[id] = c
			}
		}
	}
	for a := range in {
		for b, cost := range g.adj[a] {
			if a < b && in[b] {
				sub.AddEdge(a, b, cost)
			}
		}
	}
	return sub
}

// Connected reports whether the graph is connected. The empty graph and
// single nodes count as connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) <= 1 {
		return true
	}
	var start NodeID
	found := false
	for id := range g.nodes {
		if !found || id < start {
			start = id
			found = true
		}
	}
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range g.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// SubsetConnected reports whether the subgraph of g induced by ids is
// connected. Empty and singleton subsets count as connected.
func (g *Graph) SubsetConnected(ids []NodeID) bool {
	if len(ids) <= 1 {
		return true
	}
	in := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	seen := map[NodeID]bool{ids[0]: true}
	stack := []NodeID{ids[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range g.adj[cur] {
			if in[nb] && !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(in)
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("topo.Graph{%d nodes, %d edges}", g.NumNodes(), g.NumEdges())
}
