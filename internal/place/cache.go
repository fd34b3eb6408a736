package place

import (
	"container/list"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// cacheKey identifies one mapping decision: which chip class, which free
// set (incremental signature + cardinality), which requested topology,
// under which strategy and edit-cost scale. Two chips of the same class
// with identical free sets share entries. The class is a 64-bit digest of
// the chip's exact graph encoding (computed once at engine construction;
// an in-engine digest collision is astronomically unlikely and bounded by
// the free-node validation on every hit), while topoSig stays the exact
// request encoding — request aliasing is the one collision class with a
// designed-in source (relabeled isomorphic topologies), so it gets the
// collision-free key.
type cacheKey struct {
	class      uint64
	freeSig    uint64
	freeCount  int
	topoSig    string
	strat      core.Strategy
	nodeInsDel float64
}

// cacheEntry is a memoized MapTopology outcome — either a scored node
// assignment or the deterministic error the mapper produced for this
// (free set, request) pair.
type cacheEntry struct {
	nodes      []topo.NodeID
	cost       float64
	candidates int
	connected  bool
	err        error
}

// result materializes a MapResult with a private copy of the node slice,
// so callers (and the vNPUs built from them) never alias cache memory.
func (e *cacheEntry) result() core.MapResult {
	return core.MapResult{
		Nodes:      append([]topo.NodeID(nil), e.nodes...),
		Cost:       e.cost,
		Candidates: e.candidates,
		Connected:  e.connected,
	}
}

// mapCache is an LRU over mapping decisions. Not safe for concurrent use;
// the engine guards it with its own mutex.
type mapCache struct {
	cap     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used
}

type cacheItem struct {
	key   cacheKey
	entry *cacheEntry
}

func newMapCache(capacity int) *mapCache {
	return &mapCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element),
		order:   list.New(),
	}
}

func (c *mapCache) get(k cacheKey) (*cacheEntry, bool) {
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).entry, true
}

// add inserts an entry, returning how many entries were evicted beyond
// capacity for the engine's eviction counter.
func (c *mapCache) add(k cacheKey, e *cacheEntry) (evicted uint64) {
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheItem).entry = e
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.order.PushFront(&cacheItem{key: k, entry: e})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheItem).key)
		evicted++
	}
	return evicted
}

func (c *mapCache) len() int { return c.order.Len() }
