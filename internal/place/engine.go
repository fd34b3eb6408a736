// Package place is the placement engine of a multi-chip vNPU cluster: it
// owns every "which cores on which chip" decision so the serving dispatch
// path stops dry-running the topology mapper against each chip on each
// job.
//
// Three ideas make placement cheap enough to run online (the paper's own
// requirement for topology-aware mapping):
//
//   - Caching: scored MapTopology outcomes are memoized per (chip class,
//     free-set signature, request-topology signature, strategy). Serving
//     traffic revisits a small set of free-set shapes, so steady state is
//     almost all cache hits.
//   - Incremental free sets: each chip's free-set signature is maintained
//     by XOR deltas on Claim/Commit/Release instead of being recomputed
//     from the hypervisor on every dispatch.
//   - Heterogeneity: every chip carries a ChipProfile cost model, and
//     candidates are ranked by topology fit first, then resource price —
//     the cheapest chip that satisfies the topology wins, so an FPGA-scale
//     chip absorbs small jobs while DCRA-scale chips stay free for large
//     ones.
//
// Concurrency: Rank and Place score against a snapshot of the free set
// while other goroutines Claim and Release, so a ranking can go stale.
// Claim cannot: the nodes it returns leave the free set in the same hold
// of the engine mutex that found them free, and a mapping whose nodes
// were taken while it computed is retried against the current set — two
// claims never share a core.
package place

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// Chip describes one chip handed to the engine at construction time.
type Chip struct {
	// Graph is the chip's physical topology. The engine reads it
	// concurrently; it must not be mutated afterwards.
	Graph *topo.Graph
	// Free lists the initially unallocated cores.
	Free []topo.NodeID
	// Profile is the chip's cost model (zero fields are derived from
	// nothing here — fill them, e.g. via FromConfig, before handing over).
	Profile ChipProfile
}

// Request describes one placement request.
type Request struct {
	// Topology is the requested virtual topology (node IDs 0..n-1). It
	// must not be mutated while a request referencing it is in flight.
	Topology *topo.Graph
	// Strategy picks the core-allocation policy.
	Strategy core.Strategy
	// MapOptions customizes edit costs. Requests carrying callback-based
	// costs bypass the cache (their outcome is not a pure function of the
	// cacheable key).
	MapOptions ged.Options
	// MemoryBytes is the request's global-memory footprint; chips whose
	// pool cannot hold it are excluded.
	MemoryBytes uint64
}

// PureMapOptions reports whether a mapping outcome under these options
// is a pure function of (free set, topology, strategy, NodeInsDel) — any
// callback cost makes it position- or caller-dependent. Both the mapping
// cache and the session pool's key computation depend on this exact
// predicate; keep it the single source of truth when ged.Options grows.
func PureMapOptions(o ged.Options) bool {
	return o.NodeSubst == nil && o.EdgeDel == nil && o.EdgeIns == nil && o.ExtraNodePenalty == nil
}

// cacheable reports whether the request's mapping outcome may be
// memoized.
func (r Request) cacheable() bool { return PureMapOptions(r.MapOptions) }

// Candidate is one chip that can host a request, with its ranking terms.
type Candidate struct {
	// Chip indexes the engine's chip list.
	Chip int
	// Cost is the topology edit distance of the best mapping on the chip.
	Cost float64
	// Price is the chip-profile resource price of the occupied cores.
	Price float64
}

// chipState is the engine's mirror of one chip's allocation state.
type chipState struct {
	graph   *topo.Graph
	profile ChipProfile
	class   uint64

	// Guarded by the engine mutex.
	free      map[topo.NodeID]bool
	freeCount int
	freeSig   uint64 // XOR of nodeHash over free nodes, updated per delta
}

func (cs *chipState) freeListLocked() []topo.NodeID {
	out := make([]topo.NodeID, 0, cs.freeCount)
	for id, ok := range cs.free {
		if ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (cs *chipState) allFreeLocked(nodes []topo.NodeID) bool {
	for _, n := range nodes {
		if !cs.free[n] {
			return false
		}
	}
	return true
}

// takeLocked is the create delta: the nodes, all free, leave the free set.
func (cs *chipState) takeLocked(nodes []topo.NodeID) {
	for _, n := range nodes {
		cs.free[n] = false
		cs.freeCount--
		cs.freeSig ^= nodeHash(n)
	}
}

// canonicalKey is an exact, labeling-sensitive encoding of a graph: node
// IDs with kinds and coordinates in ID order, then the sorted edge list
// with costs. Cache keys must NOT use the WL topo.Signature here — it is
// relabeling-invariant and collision-tolerant by design, while a cached
// assignment (Nodes[v] indexed by virtual core ID) is labeling-dependent:
// two isomorphic-but-relabeled requests need different entries or one
// would be served the other's virtual-to-physical wiring. The encoding is
// derived once per graph, on its view.
func canonicalKey(g *topo.Graph) string { return topo.ViewOf(g).CanonicalKey() }

// CanonicalKey is the exact, labeling-sensitive topology encoding used
// for cache keys (see canonicalKey). The session pool shares it so two
// isomorphic-but-relabeled request topologies never alias one resident
// session — their virtual-to-physical wiring differs.
func CanonicalKey(g *topo.Graph) string { return canonicalKey(g) }

// hash64 digests a string to 64 bits (FNV-1a).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// nodeHash spreads a node ID over 64 bits (splitmix64 finalizer) so the
// XOR-folded free-set signature is collision-resistant under deltas.
func nodeHash(id topo.NodeID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// flight is one in-progress mapping computation; concurrent resolutions of
// the same key wait on it instead of duplicating the work (N identical
// idle chips cost one MapTopology, not N).
type flight struct {
	done chan struct{}
}

// asyncKey identifies one request across chips for Rank's fan-out
// deduplication: repeated ranks of the same (topology, strategy, cost
// scale, memory) join the in-flight fan-out instead of re-scheduling it.
type asyncKey struct {
	topoSig    string
	strat      core.Strategy
	nodeInsDel float64
	mem        uint64
}

// asyncFlight is one in-flight Rank fan-out: done closes when the last
// missing chip's mapping has landed in the cache.
type asyncFlight struct {
	done      chan struct{}
	remaining int // guarded by the engine mutex
}

// DefaultCacheSize bounds the mapping cache when no option overrides it.
const DefaultCacheSize = 4096

// DefaultWorkers sizes the mapper worker pool when no option overrides it.
const DefaultWorkers = 4

// Engine owns placement decisions for a set of chips. Create one with New;
// all methods are safe for concurrent use.
type Engine struct {
	chips []*chipState

	// tasks feeds the mapper worker pool — WithWorkers resident goroutines
	// from New to Close: cache misses, whether from a blocking Place or a
	// Rank fan-out, run here, so mapping concurrency is bounded by the
	// worker count instead of one goroutine per (caller, chip). When the
	// queue is full, callers overflow onto their own goroutines (progress
	// over strict bounds).
	tasks     chan func()
	quit      chan struct{}
	workerWG  sync.WaitGroup
	closeOnce sync.Once

	// clk supplies the latency stats' timestamps. Wall clock unless
	// WithClock injected another.
	clk sim.Clock

	mu        sync.Mutex
	cache     *mapCache // nil when caching is disabled
	flights   map[cacheKey]*flight
	async     map[asyncKey]*asyncFlight
	stats     metrics.PlacementStats
	cacheSize int
	workers   int
	closed    bool
}

// Option tunes the engine.
type Option func(*Engine)

// WithCacheSize bounds the mapping cache to n entries; n <= 0 disables
// caching entirely (every resolution runs the mapper — the "cold" engine
// of the equivalence tests and benchmarks).
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheSize = n }
}

// WithWorkers sizes the mapper worker pool: n resident goroutines from New
// to Close (default DefaultWorkers; n <= 0 selects the default). More
// workers let more distinct (chip, topology) misses compute concurrently;
// the pool runs at most n mapper computations at once, and a miss that
// finds its queue full runs on a goroutine of its own.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithClock injects the clock the engine's latency stats read (default:
// the wall clock). Inject a virtual clock to drive the engine in simulated
// time.
func WithClock(clk sim.Clock) Option {
	return func(e *Engine) {
		if clk != nil {
			e.clk = clk
		}
	}
}

// New builds an engine over the given chips.
func New(chips []Chip, opts ...Option) (*Engine, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("place: engine needs at least one chip")
	}
	e := &Engine{
		flights:   make(map[cacheKey]*flight),
		async:     make(map[asyncKey]*asyncFlight),
		cacheSize: DefaultCacheSize,
		workers:   DefaultWorkers,
		clk:       sim.Wall(),
		quit:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.cacheSize > 0 {
		e.cache = newMapCache(e.cacheSize)
	}
	if e.workers <= 0 {
		e.workers = DefaultWorkers
	}
	e.tasks = make(chan func(), 2*e.workers)
	for i, c := range chips {
		if c.Graph == nil || c.Graph.NumNodes() == 0 {
			return nil, fmt.Errorf("place: chip %d has no topology", i)
		}
		cs := &chipState{
			graph:   c.Graph,
			profile: c.Profile,
			// The class digests the profile name with the exact graph
			// encoding, so differently-shaped chips do not alias each
			// other's cache entries even under a shared name, while
			// per-lookup key hashing stays fixed-size.
			class: hash64(c.Profile.Name + "/" + canonicalKey(c.Graph)),
			free:  make(map[topo.NodeID]bool, len(c.Free)),
		}
		for _, id := range c.Free {
			if !c.Graph.HasNode(id) {
				return nil, fmt.Errorf("place: chip %d free node %d not in topology", i, id)
			}
			if cs.free[id] {
				return nil, fmt.Errorf("place: chip %d free node %d listed twice", i, id)
			}
			cs.free[id] = true
			cs.freeCount++
			cs.freeSig ^= nodeHash(id)
		}
		e.chips = append(e.chips, cs)
	}
	// Start the workers only once every chip validated, so an error
	// return leaks no goroutines.
	e.workerWG.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	return e, nil
}

// worker drains mapper tasks until Close.
func (e *Engine) worker() {
	defer e.workerWG.Done()
	for {
		select {
		case fn := <-e.tasks:
			fn()
		case <-e.quit:
			return
		}
	}
}

// Close stops the mapper worker pool. Callers must not have placements
// or async mappings outstanding (the cluster closes its dispatcher —
// which drains every job — before closing the engine). Close is
// idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
		e.workerWG.Wait()
		// Run whatever was accepted into the queue but not picked up:
		// a blocking Place or a Rank fan-out that got its task enqueued
		// must still complete (its caller may be in wg.Wait / on the
		// done edge), and no new tasks can arrive once closed is set.
		for {
			select {
			case fn := <-e.tasks:
				fn()
			default:
				return
			}
		}
	})
}

// submitLocked hands a task to the worker pool without blocking, reporting
// false when the queue is full or the engine is closed. The closed check
// and the send share the engine mutex (held by the caller) with Close's
// closed-flag write, so every accepted task is visible to Close's drain —
// a task can never be enqueued after the drain has run.
func (e *Engine) submitLocked(fn func()) bool {
	if e.closed {
		return false
	}
	select {
	case e.tasks <- fn:
		return true
	default:
		return false
	}
}

// trySubmit is submitLocked for a caller not holding the engine mutex.
func (e *Engine) trySubmit(fn func()) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(fn)
}

// Chips reports the number of chips the engine places over.
func (e *Engine) Chips() int { return len(e.chips) }

// Profile returns the cost model of one chip.
func (e *Engine) Profile(chip int) ChipProfile { return e.chips[chip].profile }

// FreeCount reports the engine's view of a chip's unallocated cores.
func (e *Engine) FreeCount(chip int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chips[chip].freeCount
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() metrics.PlacementStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	if e.cache != nil {
		s.CacheSize = e.cache.len()
	}
	return s
}

// Rank is the dispatcher's placement question for the job it popped,
// answered in one scan under one hold of the engine mutex and never by
// running the mapper on the caller:
//
//   - Every adequate chip is answered — by a cache entry (a mapping or a
//     failure) or the memory filter: the complete rank, best first as Place
//     orders it; when it is empty, err is the last chip's refusal.
//   - Else, cached exact fits (edit distance 0) exist: those alone. Costs
//     are non-negative, so no chip still to be mapped can beat them, and
//     nothing is scheduled.
//   - Else the missing mappings go to the mapper workers in that same
//     hold — joining the fan-out already in flight for the request, if
//     any — and pending is returned with no candidates: it closes when the
//     last one has landed in the cache, and the caller ranks again.
//
// A served rank books one Placements tick and a CacheHits tick per chip
// answered; a parked one books only AsyncMaps. An uncacheable
// request, or a cacheless engine, has nowhere for an async mapping to
// land: it ranks blocking, as Place.
func (e *Engine) Rank(req Request) (cands []Candidate, pending <-chan struct{}, err error) {
	if e.cache == nil || !req.cacheable() || req.Topology == nil || req.Topology.NumNodes() == 0 {
		cands, err = e.Place(req)
		return cands, nil, err
	}
	start := e.clk.Now()
	sig := canonicalKey(req.Topology)
	e.mu.Lock()
	sc := e.scanLocked(req, sig)
	if len(sc.misses) > 0 && !sc.exact {
		pending = e.mapAsyncLocked(req, sig, sc.misses)
		e.mu.Unlock()
		return nil, pending, nil
	}
	e.stats.Placements++
	e.stats.CacheHits += sc.hits
	e.stats.PlaceTime += e.clk.Since(start)
	e.mu.Unlock()
	if cands = e.candidates(req, sc, len(sc.misses) > 0); len(cands) == 0 {
		err = e.refusal(req, sc)
	}
	return cands, nil, err
}

// mapAsyncLocked schedules one mapper computation per missing chip on the
// bounded worker pool and returns the edge closed when the last has landed
// in the cache. Concurrent ranks of the same request share one fan-out,
// and each per-chip computation shares the engine's single-flight with any
// blocking Place or Claim racing it. Caller holds the engine mutex.
func (e *Engine) mapAsyncLocked(req Request, sig string, misses []int) <-chan struct{} {
	key := asyncKey{topoSig: sig, strat: req.Strategy, nodeInsDel: req.MapOptions.NodeInsDel, mem: req.MemoryBytes}
	if f, ok := e.async[key]; ok {
		return f.done
	}
	f := &asyncFlight{done: make(chan struct{}), remaining: len(misses)}
	e.async[key] = f
	e.stats.AsyncMaps += uint64(len(misses))
	for _, chip := range misses {
		chip := chip
		task := func() {
			_, _ = e.resolve(chip, req, sig, false)
			e.mu.Lock()
			f.remaining--
			last := f.remaining == 0
			if last {
				delete(e.async, key)
			}
			e.mu.Unlock()
			if last {
				close(f.done)
			}
		}
		// A dispatch-path miss must make progress even when the task queue
		// is full; overflow onto a dedicated goroutine (bounded by the
		// async dedup map — one fan-out per distinct request).
		if !e.submitLocked(task) {
			go task()
		}
	}
	return f.done
}

// PlaceCached ranks only the chips whose mapping for the request is
// already memoized and still valid against the current free set — it
// never runs the topology mapper and costs one lock acquisition. The
// dispatcher's backfill pass uses it: opportunistic out-of-order
// placements fill idle capacity only when they are free to compute, so
// they can never serialize mapping work behind the head-of-line job.
// Uncacheable requests (callback map options) and cacheless engines
// return nil. It books nothing: backfill probe scans must not skew the
// serving path's cache statistics.
func (e *Engine) PlaceCached(req Request) []Candidate {
	if req.Topology == nil || req.Topology.NumNodes() == 0 {
		return nil
	}
	if e.cache == nil || !req.cacheable() {
		return nil
	}
	sig := canonicalKey(req.Topology)
	e.mu.Lock()
	sc := e.scanLocked(req, sig)
	e.mu.Unlock()
	return e.candidates(req, sc, false)
}

// Place ranks every chip that can host the request, best first: minimum
// topology edit distance, then minimum resource price (cheapest adequate
// chip), then lowest chip index. Chips the cache cannot answer are mapped
// before it returns. When no chip qualifies it returns the last per-chip
// error (typed: ErrNoCapacity, ErrTopologyUnsatisfiable,
// ErrMemoryExceeded).
func (e *Engine) Place(req Request) ([]Candidate, error) {
	start := e.clk.Now()
	if req.Topology == nil || req.Topology.NumNodes() == 0 {
		return nil, fmt.Errorf("place: request needs a topology")
	}
	sig := canonicalKey(req.Topology)

	// First pass, one lock acquisition: answer every chip the cache can.
	// In the all-hit steady state ranking spawns no goroutines at all;
	// only chips that actually need the mapper fan out below.
	e.mu.Lock()
	sc := e.scanLocked(req, sig)
	e.stats.CacheHits += sc.hits
	e.mu.Unlock()
	// Misses fan out through the bounded mapper worker pool — the same
	// workers Rank schedules on — overflowing onto caller-owned goroutines
	// when the task queue is full, so a blocking rank can never deadlock
	// behind its own queue.
	var wg sync.WaitGroup
	for _, i := range sc.misses {
		i := i
		wg.Add(1)
		fn := func() {
			defer wg.Done()
			var res core.MapResult
			res, sc.errs[i] = e.resolve(i, req, sig, false)
			sc.costs[i] = res.Cost
		}
		if !e.trySubmit(fn) {
			go fn()
		}
	}
	wg.Wait()
	cands := e.candidates(req, sc, false)

	e.mu.Lock()
	e.stats.Placements++
	e.stats.PlaceTime += e.clk.Since(start)
	e.mu.Unlock()
	if len(cands) == 0 {
		return nil, e.refusal(req, sc)
	}
	return cands, nil
}

// Claim resolves the request on one chip and books it in the same step:
// the returned nodes — from the cache when the chip's free set still
// matches a memoized decision, freshly mapped otherwise — have left the
// chip's free set when Claim returns, and Release gives them back. The
// node slice is owned by the caller.
func (e *Engine) Claim(chip int, req Request) (core.MapResult, error) {
	if chip < 0 || chip >= len(e.chips) {
		return core.MapResult{}, fmt.Errorf("place: no chip %d", chip)
	}
	if req.Topology == nil || req.Topology.NumNodes() == 0 {
		return core.MapResult{}, fmt.Errorf("place: request needs a topology")
	}
	return e.resolve(chip, req, canonicalKey(req.Topology), true)
}

// chipAnswer is how classifyLocked classifies one chip for a request.
type chipAnswer uint8

const (
	chipExcluded chipAnswer = iota // the chip's memory pool cannot hold the request
	chipResult                     // ent is a cached mapping whose nodes are still free
	chipError                      // err is the failure cached in ent
	chipMiss                       // the mapper must run
)

// classifyLocked answers one chip for the request from the cache under
// the chip's current free set, booking nothing — the one place Rank,
// PlaceCached, Place and Claim learn whether a chip's mapping is known.
// Uncacheable requests and cacheless engines miss on every adequate
// chip. A stale or colliding cache entry (key match, nodes
// no longer free) is never handed out: it is a miss, and the recomputed
// mapping overwrites it. key is the cache key looked up (zero when
// nothing is cacheable). Caller holds the engine mutex.
func (e *Engine) classifyLocked(cs *chipState, req Request, sig string) (a chipAnswer, ent *cacheEntry, key cacheKey, err error) {
	if req.MemoryBytes > cs.profile.MemoryBytes {
		return chipExcluded, nil, key, nil
	}
	if e.cache == nil || !req.cacheable() {
		return chipMiss, nil, key, nil
	}
	key = e.keyLocked(cs, req, sig)
	if ent, ok := e.cache.get(key); ok {
		if ent.err != nil {
			return chipError, ent, key, ent.err
		}
		if cs.allFreeLocked(ent.nodes) {
			return chipResult, ent, key, nil
		}
	}
	return chipMiss, nil, key, nil
}

// Scan-internal markers, never returned: errExcluded stands for the
// memory filter's typed refusal (memoryErr, built only if it is the one
// returned), errUnmapped for a chip whose mapping is not known yet.
var (
	errExcluded = errors.New("place: chip excluded")
	errUnmapped = errors.New("place: chip not mapped")
)

// scan is what scanLocked learned about every chip for one request.
type scan struct {
	costs  []float64 // per chip, the mapping's cost where errs is nil
	errs   []error   // per chip: nil, a cached failure, or a marker above
	misses []int     // chips the mapper must run for
	hits   uint64    // chips answered by a cache entry
	exact  bool      // some cached mapping has edit distance 0
}

// scanLocked classifies every chip for the request. It books nothing —
// Rank and Place account what they serve. Caller holds the engine mutex.
func (e *Engine) scanLocked(req Request, sig string) scan {
	sc := scan{costs: make([]float64, len(e.chips)), errs: make([]error, len(e.chips))}
	for i, cs := range e.chips {
		a, ent, _, err := e.classifyLocked(cs, req, sig)
		switch a {
		case chipExcluded:
			sc.errs[i] = errExcluded
		case chipResult:
			sc.hits++
			sc.costs[i] = ent.cost
			sc.exact = sc.exact || ent.cost == 0
		case chipError:
			sc.hits++
			sc.errs[i] = err
		case chipMiss:
			sc.misses = append(sc.misses, i)
			sc.errs[i] = errUnmapped
		}
	}
	return sc
}

// candidates turns a scan into the ranked candidate list: every chip
// with a mapping — only the exact fits when exactOnly — best first:
// minimum edit distance, then minimum price, chip order kept among
// equals.
func (e *Engine) candidates(req Request, sc scan, exactOnly bool) []Candidate {
	k := req.Topology.NumNodes()
	var cands []Candidate
	for i, err := range sc.errs {
		if err != nil || (exactOnly && sc.costs[i] != 0) {
			continue
		}
		cands = append(cands, Candidate{Chip: i, Cost: sc.costs[i], Price: e.chips[i].profile.PlacementPrice(k)})
	}
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(a.Cost, b.Cost); c != 0 {
			return c
		}
		return cmp.Compare(a.Price, b.Price)
	})
	return cands
}

// refusal explains a complete scan that left no candidate: the
// highest-indexed chip's error.
func (e *Engine) refusal(req Request, sc scan) error {
	for i := len(sc.errs) - 1; i >= 0; i-- {
		switch err := sc.errs[i]; err {
		case nil, errUnmapped:
		case errExcluded:
			return e.chips[i].memoryErr(i, req)
		default:
			return err
		}
	}
	return fmt.Errorf("place: no chip can host the request: %w", core.ErrNoCapacity)
}

// memoryErr is the typed refusal of a request whose memory footprint
// exceeds the chip's pool.
func (cs *chipState) memoryErr(chip int, req Request) error {
	return fmt.Errorf("place: request needs %d bytes of memory, chip %d (%s) has %d: %w",
		req.MemoryBytes, chip, cs.profile.Name, cs.profile.MemoryBytes, core.ErrMemoryExceeded)
}

// keyLocked builds the cache key for a request on one chip's current free
// set. The caller holds the engine mutex.
func (e *Engine) keyLocked(cs *chipState, req Request, sig string) cacheKey {
	return cacheKey{
		class:      cs.class,
		freeSig:    cs.freeSig,
		freeCount:  cs.freeCount,
		topoSig:    sig,
		strat:      req.Strategy,
		nodeInsDel: req.MapOptions.NodeInsDel,
	}
}

// resolve answers the request on one chip: from the cache when
// classifyLocked can, else by running the mapper against a
// snapshot of the free set — one computation per cache key, which
// concurrent resolutions wait on (flights). With claim set, a successful
// resolution's nodes leave the free set in the hold that found them free;
// a mapping whose nodes were taken while it computed is retried against
// the current set, never handed out.
func (e *Engine) resolve(chip int, req Request, sig string, claim bool) (core.MapResult, error) {
	cs := e.chips[chip]
	for {
		e.mu.Lock()
		a, ent, key, err := e.classifyLocked(cs, req, sig)
		switch a {
		case chipExcluded:
			e.mu.Unlock()
			return core.MapResult{}, cs.memoryErr(chip, req)
		case chipResult:
			e.stats.CacheHits++
			res := ent.result()
			if claim {
				cs.takeLocked(res.Nodes)
			}
			e.mu.Unlock()
			return res, nil
		case chipError:
			e.stats.CacheHits++
			e.mu.Unlock()
			return core.MapResult{}, err
		}
		var f *flight
		if e.cache != nil && req.cacheable() {
			if running, ok := e.flights[key]; ok {
				e.mu.Unlock()
				<-running.done
				// The flight populated the cache; loop to pick the entry up
				// (or recompute under a fresh key if the free set moved on).
				continue
			}
			f = &flight{done: make(chan struct{})}
			e.flights[key] = f
		}
		free := cs.freeListLocked()
		e.mu.Unlock()

		start := e.clk.Now()
		res, err := core.MapTopology(cs.graph, free, req.Topology, req.Strategy, req.MapOptions)

		e.mu.Lock()
		e.stats.CacheMisses++
		e.stats.MapTime += e.clk.Since(start)
		if f != nil {
			e.stats.CacheEvictions += e.cache.add(key, &cacheEntry{
				nodes:      append([]topo.NodeID(nil), res.Nodes...),
				cost:       res.Cost,
				candidates: res.Candidates,
				connected:  res.Connected,
				err:        err,
			})
			delete(e.flights, key)
			close(f.done)
		}
		if claim && err == nil {
			if !cs.allFreeLocked(res.Nodes) {
				e.mu.Unlock()
				continue
			}
			cs.takeLocked(res.Nodes)
		}
		e.mu.Unlock()
		return res, err
	}
}

// Commit applies a create delta made outside Claim: the nodes leave the
// chip's free set. It fails (leaving the state untouched) if any node is
// not currently free.
func (e *Engine) Commit(chip int, nodes []topo.NodeID) error {
	if chip < 0 || chip >= len(e.chips) {
		return fmt.Errorf("place: no chip %d", chip)
	}
	cs := e.chips[chip]
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, n := range nodes {
		if !cs.free[n] {
			return fmt.Errorf("place: commit of non-free node %d on chip %d", n, chip)
		}
	}
	cs.takeLocked(nodes)
	return nil
}

// Release applies a destroy delta: the nodes return to the chip's free
// set. It fails (leaving the state untouched) if any node is already free.
func (e *Engine) Release(chip int, nodes []topo.NodeID) error {
	if chip < 0 || chip >= len(e.chips) {
		return fmt.Errorf("place: no chip %d", chip)
	}
	cs := e.chips[chip]
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, n := range nodes {
		if !cs.graph.HasNode(n) {
			return fmt.Errorf("place: release of unknown node %d on chip %d", n, chip)
		}
		if cs.free[n] {
			return fmt.Errorf("place: release of already-free node %d on chip %d", n, chip)
		}
	}
	for _, n := range nodes {
		cs.free[n] = true
		cs.freeCount++
		cs.freeSig ^= nodeHash(n)
	}
	return nil
}
