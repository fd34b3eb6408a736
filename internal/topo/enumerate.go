package topo

import "slices"

// ConnectedSubgraphs enumerates the node sets of connected induced
// subgraphs of size k restricted to the allowed nodes. Each set is reported
// exactly once, in a deterministic order, using the ESU (Wernicke)
// enumeration scheme. Enumeration stops once limit sets have been produced;
// complete reports whether those were all of them.
//
// This implements the candidate-generation step of the paper's topology
// mapping algorithm (Algorithm 1, lines 20–29): candidate topologies are
// connected regions of the free portion of the physical mesh. Membership
// and exclusivity tests run on bitsets over a dense node index, and roots
// whose free component holds fewer than k nodes are pruned before any
// recursion — both cut the constant cost of a mapping miss without
// changing the enumerated sets or their order.
func ConnectedSubgraphs(g *Graph, allowed []NodeID, k, limit int) (sets [][]NodeID, complete bool) {
	complete = ViewOf(g).VisitConnectedSubgraphs(allowed, k, limit, func(ids []NodeID) bool {
		sets = append(sets, slices.Clone(ids))
		return true
	})
	return sets, complete
}

// VisitConnectedSubgraphs is the streaming form of ConnectedSubgraphs:
// visit is called with each set in enumeration order, IDs ascending, in a
// buffer that is reused for the next set — copy it to keep it. visit
// returning false stops the enumeration. At most limit sets are visited
// (a negative limit means no cap); complete is false only when the limit
// cut the walk short, that is, when a set beyond it exists — a walk that
// visit stopped, or that ended exactly at the limit, reports true.
func (v *View) VisitConnectedSubgraphs(allowed []NodeID, k, limit int, visit func(ids []NodeID) bool) (complete bool) {
	if k <= 0 || limit == 0 {
		return true
	}
	n := len(v.IDs)
	ok := v.allowedSet(allowed)
	comp := v.componentSizes(ok)

	visited := 0
	complete = true
	ids := make([]NodeID, 0, k)
	size := 0 // nodes in the current subgraph
	inSub := newBitset(n)
	subAdj := newBitset(n) // union of adjacency rows of the subgraph
	inExt := newBitset(n)
	// Per-depth scratch (recursion depth is bounded by k): a snapshot of
	// subAdj and the extension set handed to the next level. Allocating
	// either in the extension loop would churn thousands of short-lived
	// slices per miss.
	saved := make([]bitset, k+1)
	exts := make([][]int, k+1)
	for i := range saved {
		saved[i] = newBitset(n)
	}

	var extend func(root int, ext []int) bool
	extend = func(root int, ext []int) bool {
		if size == k {
			if visited == limit {
				complete = false
				return false
			}
			visited++
			ids = v.appendIDs(ids[:0], inSub)
			return visit(ids)
		}
		depth := size
		for i := 0; i < len(ext); i++ {
			w := ext[i]
			// Extension set for the recursive call: remaining candidates plus
			// w's exclusive neighbors (> root, allowed, not adjacent to or in sub).
			next := append(exts[depth][:0], ext[i+1:]...)
			for _, p := range next {
				inExt.set(p)
			}
			for _, u := range v.Nbrs[w] {
				if u <= root || !ok.test(u) || inSub.test(u) || inExt.test(u) {
					continue
				}
				// exclusive: u must not neighbor any node already in sub
				if !subAdj.test(u) {
					next = append(next, u)
				}
			}
			for _, p := range ext[i+1:] {
				inExt.clear(p)
			}
			exts[depth] = next
			copy(saved[depth], subAdj)
			size++
			inSub.set(w)
			for wi, word := range v.adj[w] {
				subAdj[wi] |= word
			}
			cont := extend(root, next)
			size--
			inSub.clear(w)
			copy(subAdj, saved[depth])
			if !cont {
				return false
			}
		}
		return true
	}

	var rootExt []int
	for root := range v.IDs {
		if !ok.test(root) || comp[root] < k {
			continue
		}
		rootExt = rootExt[:0]
		for _, nb := range v.Nbrs[root] {
			if nb > root && ok.test(nb) {
				rootExt = append(rootExt, nb)
			}
		}
		size = 1
		inSub.set(root)
		copy(subAdj, v.adj[root])
		cont := extend(root, rootExt)
		size = 0
		inSub.clear(root)
		for wi := range subAdj {
			subAdj[wi] = 0
		}
		if !cont {
			break
		}
	}
	return complete
}

// GrowRegions produces candidate connected regions of size k within the
// allowed nodes using deterministic seeded region growing. It is the
// fallback when exhaustive enumeration is infeasible (the paper notes the
// minimum-edit-distance problem is NP-hard and prunes aggressively). Each
// allowed node seeds several growths with different frontier priorities:
//
//   - compact: prefer the frontier node with the most neighbors already in
//     the region (keeps regions blocky, mesh-like);
//   - sweep: prefer the lowest-ID frontier node (zig-zag-like);
//   - anti-sweep: prefer the highest-ID frontier node.
//
// Duplicate regions are removed. Results are deterministic. Seeds whose
// free component holds fewer than k nodes are pruned up front (their
// growth could never reach size k), and the region/frontier state is
// bitset-encoded; neither changes the produced regions.
func GrowRegions(g *Graph, allowed []NodeID, k int) [][]NodeID {
	return ViewOf(g).GrowRegions(allowed, k)
}

// GrowRegions is the method form of the package function.
func (v *View) GrowRegions(allowed []NodeID, k int) [][]NodeID {
	if k <= 0 {
		return nil
	}
	ok := v.allowedSet(allowed)
	if ok.count() < k {
		return nil
	}
	comp := v.componentSizes(ok)

	type priority int
	const (
		compact priority = iota
		sweep
		antiSweep
		numPriorities
	)

	in := newBitset(len(v.IDs))
	frontier := newBitset(len(v.IDs))

	seen := make(map[string]bool)
	var out [][]NodeID
	for seed := range v.IDs {
		if !ok.test(seed) || comp[seed] < k {
			continue
		}
		for p := priority(0); p < numPriorities; p++ {
			for i := range in {
				in[i], frontier[i] = 0, 0
			}
			in.set(seed)
			size := 1
			frontier.orAndNot(v.adj[seed], ok, in)
			for size < k && frontier.any() {
				var chosen int
				switch p {
				case sweep:
					chosen = frontier.min()
				case antiSweep:
					chosen = frontier.max()
				default:
					chosen = mostConnectedBits(v, frontier, in)
				}
				frontier.clear(chosen)
				in.set(chosen)
				size++
				frontier.orAndNot(v.adj[chosen], ok, in)
			}
			if size != k {
				continue
			}
			ids := v.appendIDs(make([]NodeID, 0, k), in)
			key := setKey(ids)
			if !seen[key] {
				seen[key] = true
				out = append(out, ids)
			}
		}
	}
	return out
}

// mostConnectedBits picks the frontier position with the most neighbors
// already in the region, lowest position winning ties (the same rule the
// map-based enumerator used: ascending scan, strictly-greater score).
func mostConnectedBits(v *View, frontier, in bitset) int {
	best := -1
	bestScore := -1
	frontier.forEach(func(p int) bool {
		if score := v.adj[p].intersectCount(in); score > bestScore {
			best, bestScore = p, score
		}
		return true
	})
	return best
}

func setKey(ids []NodeID) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), ',')
	}
	return string(b)
}
