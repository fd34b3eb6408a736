package topo

import (
	"slices"
	"strconv"
	"sync"
)

// View is the immutable dense form of a Graph: node IDs mapped onto
// contiguous positions 0..n-1 in ascending ID order, and everything the
// mapping hot path reads per node or per pair laid out by position —
// kinds, coordinates, degrees, bitset adjacency rows, sorted neighbour
// lists, the sorted edge list and an n×n cost matrix. It is derived once
// per graph (ViewOf) and shared by the enumerators, the signers, the
// edit-distance solvers and the placement cache key, instead of each of
// them re-sorting the graph's maps per call. The exported slices are
// read-only.
type View struct {
	IDs   []NodeID // position -> NodeID, ascending
	Kinds []string
	Deg   []int
	Nbrs  [][]int // neighbour positions, ascending
	Edges []Edge  // A < B, sorted by (A, B)
	// Cost is the n×n row-major matrix of edge costs by position; 0 marks
	// "no edge" (AddEdge never stores a zero cost).
	Cost []float64

	dense    bool     // IDs are 0..n-1: a node's position is its ID
	adj      []bitset // adjacency rows over positions
	coords   []Coord  // valid where hasCoord
	hasCoord []bool

	// What only request topologies are asked for, each derived on first
	// use: candidate regions never need any of it.
	keyOnce  sync.Once
	key      string
	sigOnce  sync.Once
	sig      WLSig
	gridOnce sync.Once
	grid     []int // cell y*gridW+x -> position; nil when not a full grid
	gridW    int
	gridH    int
	gridMin  Coord // the coordinate of cell 0
}

// ViewOf returns the graph's dense view, building it on first use. The
// view is cached on the graph and dropped by every mutator, so it is
// never stale; concurrent readers of an unchanging graph may race to
// build it and all get equal views.
func ViewOf(g *Graph) *View {
	if v := g.view.Load(); v != nil {
		return v
	}
	v := newDenseIndex(g)
	g.view.Store(v)
	return v
}

func newDenseIndex(g *Graph) *View {
	n := len(g.nodes)
	v := &View{
		IDs:      make([]NodeID, 0, n),
		Kinds:    make([]string, n),
		Deg:      make([]int, n),
		Nbrs:     make([][]int, n),
		Cost:     make([]float64, n*n),
		adj:      make([]bitset, n),
		coords:   make([]Coord, n),
		hasCoord: make([]bool, n),
	}
	for id := range g.nodes {
		v.IDs = append(v.IDs, id)
	}
	slices.Sort(v.IDs)
	v.dense = n > 0 && v.IDs[0] == 0 && int(v.IDs[n-1]) == n-1
	words := (n + 63) / 64
	rows := make(bitset, n*words)
	numEdges := g.NumEdges()
	nbrs := make([]int, 0, 2*numEdges)
	if numEdges > 0 {
		v.Edges = make([]Edge, 0, numEdges)
	}
	for i, id := range v.IDs {
		v.Kinds[i] = g.nodes[id].Kind
		v.coords[i], v.hasCoord[i] = g.coords[id]
		v.Deg[i] = len(g.adj[id])
		v.adj[i] = rows[i*words : (i+1)*words : (i+1)*words]
		start := len(nbrs)
		for nb, cost := range g.adj[id] {
			p, _ := v.Pos(nb)
			nbrs = append(nbrs, p)
			v.adj[i].set(p)
			v.Cost[i*n+p] = cost
		}
		v.Nbrs[i] = nbrs[start:len(nbrs):len(nbrs)]
		slices.Sort(v.Nbrs[i])
		// Ascending position is ascending NodeID, so this is (A, B) order.
		for _, p := range v.Nbrs[i] {
			if p > i {
				v.Edges = append(v.Edges, Edge{A: id, B: v.IDs[p], Cost: v.Cost[i*n+p]})
			}
		}
	}
	return v
}

// Pos returns the dense position of id: the ID itself on a graph numbered
// 0..n-1 (every request, every chip), a binary search otherwise.
func (v *View) Pos(id NodeID) (int, bool) {
	if v.dense {
		return int(id), id >= 0 && int(id) < len(v.IDs)
	}
	return slices.BinarySearch(v.IDs, id)
}

// CanonicalKey is an exact, labeling-sensitive encoding of the graph:
// node IDs with kinds and coordinates in ID order, then the sorted edge
// list with costs ("%d:%s[@%d,%d];" per node, "|", "%d-%d:%g;" per edge).
func (v *View) CanonicalKey() string {
	v.keyOnce.Do(func() { v.key = v.canonicalKey() })
	return v.key
}

func (v *View) canonicalKey() string {
	b := make([]byte, 0, 12*len(v.IDs)+12*len(v.Edges)+1)
	for i, id := range v.IDs {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ':')
		b = append(b, v.Kinds[i]...)
		if v.hasCoord[i] {
			b = append(b, '@')
			b = strconv.AppendInt(b, int64(v.coords[i].X), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v.coords[i].Y), 10)
		}
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, e := range v.Edges {
		b = strconv.AppendInt(b, int64(e.A), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e.B), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, e.Cost, 'g', -1, 64)
		b = append(b, ';')
	}
	return string(b)
}

// Grid decodes the coordinate embedding as a full w×h grid: every node
// carries a coordinate, the bounding box holds exactly n cells and each
// cell is claimed by exactly one node. cells[y*w+x] is the position of
// the node at (x, y), coordinates normalized to the box's origin.
func (v *View) Grid() (cells []int, w, h int, ok bool) {
	v.gridOnce.Do(func() { v.grid, v.gridW, v.gridH, v.gridMin = v.fullGrid() })
	return v.grid, v.gridW, v.gridH, v.grid != nil
}

func (v *View) fullGrid() (cells []int, w, h int, min Coord) {
	n := len(v.IDs)
	min, max, has := v.bounds()
	if !has {
		return nil, 0, 0, Coord{}
	}
	w = max.X - min.X + 1
	h = max.Y - min.Y + 1
	if w*h != n {
		return nil, 0, 0, Coord{}
	}
	cells = make([]int, n)
	for i := range cells {
		cells[i] = -1
	}
	for p, c := range v.coords {
		cell := (c.Y-min.Y)*w + (c.X - min.X)
		if !v.hasCoord[p] || cells[cell] >= 0 {
			return nil, 0, 0, Coord{}
		}
		cells[cell] = p
	}
	return cells, w, h, min
}

// At returns the position of the node embedded at c: one cell read on a
// full grid, a scan of the embedding otherwise, in which the highest
// position wins where several nodes share a coordinate.
func (v *View) At(c Coord) (pos int, ok bool) {
	if cells, w, h, full := v.Grid(); full {
		x, y := c.X-v.gridMin.X, c.Y-v.gridMin.Y
		if x < 0 || x >= w || y < 0 || y >= h {
			return 0, false
		}
		return cells[y*w+x], true
	}
	for p := len(v.coords) - 1; p >= 0; p-- {
		if v.hasCoord[p] && v.coords[p] == c {
			return p, true
		}
	}
	return 0, false
}

// bounds reports the bounding box of the embedded nodes.
func (v *View) bounds() (min, max Coord, ok bool) {
	for p, c := range v.coords {
		if !v.hasCoord[p] {
			continue
		}
		if !ok {
			min, max, ok = c, c, true
			continue
		}
		if c.X < min.X {
			min.X = c.X
		}
		if c.Y < min.Y {
			min.Y = c.Y
		}
		if c.X > max.X {
			max.X = c.X
		}
		if c.Y > max.Y {
			max.Y = c.Y
		}
	}
	return min, max, ok
}

// allowedSet builds the bitset of allowed positions (ignoring IDs the
// graph does not contain, matching the enumerators' historical behavior).
func (v *View) allowedSet(allowed []NodeID) bitset {
	ok := newBitset(len(v.IDs))
	for _, id := range allowed {
		if p, has := v.Pos(id); has {
			ok.set(p)
		}
	}
	return ok
}

// componentSizes labels the connected components of the subgraph induced
// by ok and returns, per position, the size of its component (0 for
// positions outside ok). The enumerators prune frontiers with it: a seed
// whose free component holds fewer than k nodes can never grow a size-k
// region, so the entire component is skipped before any growth work.
func (v *View) componentSizes(ok bitset) []int {
	size := make([]int, len(v.IDs))
	visited := newBitset(len(v.IDs))
	var stack, comp []int
	ok.forEach(func(seed int) bool {
		if visited.test(seed) {
			return true
		}
		stack = append(stack[:0], seed)
		visited.set(seed)
		comp = append(comp[:0], seed)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range v.Nbrs[cur] {
				if ok.test(nb) && !visited.test(nb) {
					visited.set(nb)
					stack = append(stack, nb)
					comp = append(comp, nb)
				}
			}
		}
		for _, p := range comp {
			size[p] = len(comp)
		}
		return true
	})
	return size
}

// appendIDs appends the NodeIDs of the set positions in ascending order.
func (v *View) appendIDs(dst []NodeID, set bitset) []NodeID {
	set.forEach(func(p int) bool {
		dst = append(dst, v.IDs[p])
		return true
	})
	return dst
}
