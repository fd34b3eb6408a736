package vnpu

// Per-chip execution regions: the concurrency control that replaced the
// chip-wide execution lock. An executing job claims the core set its
// vNPU holds; claims that intersect serialize, disjoint ones run
// overlapped. Because the hypervisor only hands out disjoint core sets,
// the serving paths normally acquire without waiting — the lock exists
// so a violated isolation invariant degrades to serialization instead of
// corrupting a neighbor's cycle timeline. Every serving vNPU owns a
// private timing domain (Cluster.create opens it), so no run resets
// chip-global state and none needs the whole chip.

import (
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/topo"
)

// regionClaim is one executing job's hold on a set of cores.
type regionClaim struct {
	nodes map[topo.NodeID]struct{}
}

// chipRegions admits executions on one chip: disjoint core sets
// concurrently, intersecting ones in FIFO-less arrival order (waiters
// re-check on every release; fairness does not matter because conflicts
// only arise when isolation is already broken).
type chipRegions struct {
	mu     sync.Mutex
	cond   *sync.Cond
	claims []*regionClaim
}

func newChipRegions() *chipRegions {
	r := &chipRegions{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// acquire blocks until no active claim intersects nodes, then claims
// them.
func (r *chipRegions) acquire(nodes []topo.NodeID) *regionClaim {
	c := &regionClaim{nodes: make(map[topo.NodeID]struct{}, len(nodes))}
	for _, n := range nodes {
		c.nodes[n] = struct{}{}
	}
	r.mu.Lock()
	for r.conflicts(c) {
		r.cond.Wait()
	}
	r.claims = append(r.claims, c)
	r.mu.Unlock()
	return c
}

func (r *chipRegions) conflicts(c *regionClaim) bool {
	for _, held := range r.claims {
		small, large := c.nodes, held.nodes
		if len(large) < len(small) {
			small, large = large, small
		}
		for n := range small {
			if _, ok := large[n]; ok {
				return true
			}
		}
	}
	return false
}

func (r *chipRegions) release(c *regionClaim) {
	r.mu.Lock()
	for i, held := range r.claims {
		if held == c {
			last := len(r.claims) - 1
			r.claims[i] = r.claims[last]
			r.claims[last] = nil
			r.claims = r.claims[:last]
			break
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// overlapLevels bounds the concurrency-level sample histogram; deeper
// overlap collapses into the top bucket.
const overlapLevels = 64

// acquireRegion claims the vNPU's cores on the chip for execution,
// waiting out any intersecting claim, and samples the resulting
// concurrency level. Cluster.execute brackets every run with
// acquireRegion/releaseRegion.
func (c *Cluster) acquireRegion(chip int, v *VirtualNPU) *regionClaim {
	waitStart := c.clk.Now()
	claim := c.regions[chip].acquire(v.Nodes())
	c.regionWait.Observe(c.clk.Since(waitStart))
	level := c.curJobs[chip].Add(1)
	if level > overlapLevels {
		level = overlapLevels
	}
	c.overlap[level-1].Add(1)
	return claim
}

// releaseRegion returns the claim and books the execution into the
// chip's occupancy integral: busy time weighted by the cores held.
func (c *Cluster) releaseRegion(chip int, claim *regionClaim, cores int, busy time.Duration) {
	c.curJobs[chip].Add(-1)
	if busy > 0 {
		c.coreNanos[chip].Add(busy.Nanoseconds() * int64(cores))
	}
	c.regions[chip].release(claim)
}
