package topo

import (
	"hash/fnv"
	"slices"
	"strconv"
)

// Signature returns a Weisfeiler–Lehman style topology signature. It is
// invariant under node relabeling: two isomorphic graphs always produce the
// same signature, so it can be used to deduplicate candidate topologies
// (Algorithm 1, line 25 of the paper). Like all WL refinements it may
// collide for some non-isomorphic graphs, which is acceptable for dedup —
// it only means one extra candidate is pruned conservatively kept or
// dropped; correctness of mapping never depends on it.
//
// iterations controls refinement depth; 0 selects a default of 3, which
// distinguishes all topologies that arise from small 2D-mesh regions.
func Signature(g *Graph, iterations int) string {
	v := ViewOf(g)
	if iterations <= 0 || iterations == defaultWLIterations {
		return v.WL().String()
	}
	return v.Signer().Sum(v.IDs, iterations).String()
}

const defaultWLIterations = 3

// WLSig is a WL signature in comparable form: two signatures are equal
// exactly when their String forms are.
type WLSig struct {
	Nodes, Edges int
	Hash         uint64
}

// String renders the signature as "wl:<nodes>:<edges>:<hash, 16 hex>".
func (s WLSig) String() string {
	b := make([]byte, 0, 32)
	b = append(b, "wl:"...)
	b = strconv.AppendInt(b, int64(s.Nodes), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(s.Edges), 10)
	b = append(b, ':')
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[s.Hash>>uint(shift)&0xf])
	}
	return string(b)
}

// WL returns the graph's default-depth signature in comparable form.
func (v *View) WL() WLSig {
	v.sigOnce.Do(func() { v.sig = v.Signer().Sum(v.IDs, 0) })
	return v.sig
}

// SubSigner computes the Signature of induced subgraphs of one host
// graph without materializing them: adjacency comes from the host view's
// bitset rows restricted to the candidate set, initial WL labels are
// cached per (kind, degree), and the label arrays are reused across
// calls. It is the one WL implementation: Signature(g) is the signer run
// over all of g. The mapping hot path deduplicates hundreds of candidate
// regions per miss against the request's own signature, comparing WLSig
// values; the string form is only rendered for people.
// Not safe for concurrent use; the mapper calls it from one goroutine.
type SubSigner struct {
	di   *View
	init map[subInitKey]uint64
	mask bitset
	pos  []int
	// labels/next are indexed by host position; only candidate positions
	// are read or written during a call. nbLabels and final are scratch.
	labels, next    []uint64
	nbLabels, final []uint64
}

type subInitKey struct {
	kind string
	deg  int
}

// NewSubSigner prepares a signer over the host graph. The graph must not
// be mutated while the signer is in use.
func NewSubSigner(g *Graph) *SubSigner { return ViewOf(g).Signer() }

// Signer builds a subgraph signer on the view.
func (v *View) Signer() *SubSigner {
	return &SubSigner{
		di:     v,
		init:   make(map[subInitKey]uint64),
		mask:   newBitset(len(v.IDs)),
		labels: make([]uint64, len(v.IDs)),
		next:   make([]uint64, len(v.IDs)),
	}
}

// Signature is Sum in string form, byte-identical to
// Signature(g.Induced(nodes), iterations).
func (s *SubSigner) Signature(nodes []NodeID, iterations int) string {
	return s.Sum(nodes, iterations).String()
}

// Sum computes the WL signature of the subgraph induced by nodes.
// Unknown node IDs are ignored, matching Graph.Induced.
func (s *SubSigner) Sum(nodes []NodeID, iterations int) WLSig {
	if iterations <= 0 {
		iterations = defaultWLIterations
	}
	pos := s.pos[:0]
	for _, id := range nodes {
		if p, ok := s.di.Pos(id); ok && !s.mask.test(p) {
			pos = append(pos, p)
			s.mask.set(p)
		}
	}
	slices.Sort(pos) // ascending position = ascending NodeID, Nodes() order
	s.pos = pos

	edges := 0
	for _, p := range pos {
		d := s.di.adj[p].intersectCount(s.mask)
		edges += d
		key := subInitKey{kind: s.di.Kinds[p], deg: d}
		l, ok := s.init[key]
		if !ok {
			l = hash64("k=" + key.kind + ";d=" + strconv.Itoa(key.deg))
			s.init[key] = l
		}
		s.labels[p] = l
	}
	edges /= 2

	for it := 0; it < iterations; it++ {
		for _, p := range pos {
			nbLabels := s.nbLabels[:0]
			for _, nb := range s.di.Nbrs[p] {
				if s.mask.test(nb) {
					nbLabels = append(nbLabels, s.labels[nb])
				}
			}
			sortU64(nbLabels)
			h := fnvU64(fnvOffset64, s.labels[p])
			for _, l := range nbLabels {
				h = fnvU64(h, l)
			}
			s.next[p] = h
			s.nbLabels = nbLabels
		}
		for _, p := range pos {
			s.labels[p] = s.next[p]
		}
	}

	final := s.final[:0]
	for _, p := range pos {
		final = append(final, s.labels[p])
		s.mask.clear(p)
	}
	s.final = final
	sortU64(final)
	h := fnvU64(fnvOffset64, uint64(len(pos)))
	h = fnvU64(h, uint64(edges))
	for _, l := range final {
		h = fnvU64(h, l)
	}
	return WLSig{Nodes: len(pos), Edges: edges, Hash: h}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// FNV-1a constants, for the allocation-free inline hashing of SubSigner.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU64 folds v into an FNV-1a state byte by byte, least-significant
// first.
func fnvU64(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	h = (h ^ v>>56) * fnvPrime64
	return h
}

// sortU64 insertion-sorts a small label slice in place (WL neighbor lists
// are degree-sized; a closure-based sort.Slice dominates the profile).
func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
