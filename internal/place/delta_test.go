package place

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// meshChip builds a rows x cols engine chip with the given nodes missing
// from its initial free set.
func meshChip(rows, cols int, holes ...topo.NodeID) Chip {
	g := topo.Mesh2D(rows, cols)
	free := slices.DeleteFunc(g.Nodes(), func(id topo.NodeID) bool { return slices.Contains(holes, id) })
	return Chip{Graph: g, Free: free, Profile: FromConfig(npu.SimConfig())}
}

// checkDeltas recomputes every chip's free count and signature from its
// free list — what New does once, and every delta since must have kept —
// and, when want is given, holds the free set itself to that model.
func checkDeltas(e *Engine, want []map[topo.NodeID]bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, cs := range e.chips {
		free := cs.freeListLocked()
		var sig uint64
		for _, id := range free {
			sig ^= nodeHash(id)
		}
		if len(free) != cs.freeCount || sig != cs.freeSig {
			return fmt.Errorf("chip %d: freeCount %d freeSig %#x, recomputed %d %#x", i, cs.freeCount, cs.freeSig, len(free), sig)
		}
		if want == nil {
			continue
		}
		for _, id := range cs.graph.Nodes() {
			if cs.free[id] != want[i][id] {
				return fmt.Errorf("chip %d: node %d free=%v in the engine, %v in the model", i, id, cs.free[id], want[i][id])
			}
		}
	}
	return nil
}

// TestEngineClaimNeverDoubleBooks (run with -race) is the claim's
// contract under contention: eight goroutines claim, release and commit
// foreign cores on two chips at once. A claimed core belongs to one live
// placement until released — the ownership table would show a second
// owner — every refusal is a typed capacity-class error, and after every
// step the free count and signature equal a from-scratch recompute. With
// the cache off every claim maps against a snapshot and books in a later
// hold, so the taken-meanwhile retry is what keeps it disjoint.
func TestEngineClaimNeverDoubleBooks(t *testing.T) {
	reqPool := []*topo.Graph{topo.Mesh2D(1, 2), topo.Mesh2D(2, 2), topo.Mesh2D(2, 3), topo.Chain(3), topo.Chain(5)}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"cached", nil},
		{"cacheless", []Option{WithCacheSize(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New([]Chip{meshChip(4, 4), meshChip(6, 6)}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var ownMu sync.Mutex
			owner := []map[topo.NodeID]int{{}, {}}
			// own books nodes the engine just took to one goroutine.
			own := func(who, chip int, nodes []topo.NodeID) error {
				ownMu.Lock()
				defer ownMu.Unlock()
				for _, n := range nodes {
					if prev, taken := owner[chip][n]; taken {
						return fmt.Errorf("chip %d node %d handed to goroutine %d while goroutine %d holds it", chip, n, who, prev)
					}
					owner[chip][n] = who
				}
				return nil
			}
			disown := func(chip int, nodes []topo.NodeID) {
				ownMu.Lock()
				defer ownMu.Unlock()
				for _, n := range nodes {
					delete(owner[chip], n)
				}
			}
			const workers, steps = 8, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					type held struct {
						chip  int
						nodes []topo.NodeID
					}
					var live []held
					for i := 0; i < steps && !t.Failed(); i++ {
						chip := rng.Intn(2)
						switch op := rng.Intn(5); {
						case op < 2:
							res, err := e.Claim(chip, Request{Topology: reqPool[rng.Intn(len(reqPool))]})
							if err != nil {
								if !errors.Is(err, core.ErrNoCapacity) && !errors.Is(err, core.ErrTopologyUnsatisfiable) {
									t.Errorf("claim refused untyped: %v", err)
								}
								break
							}
							if err := own(w, chip, res.Nodes); err != nil {
								t.Error(err)
							}
							live = append(live, held{chip, res.Nodes})
						case op == 2:
							// A create made outside Claim: any one core, if
							// it is still free.
							nodes := []topo.NodeID{e.chips[chip].graph.Nodes()[rng.Intn(e.chips[chip].graph.NumNodes())]}
							if e.Commit(chip, nodes) != nil {
								break
							}
							if err := own(w, chip, nodes); err != nil {
								t.Error(err)
							}
							live = append(live, held{chip, nodes})
						case len(live) > 0:
							j := rng.Intn(len(live))
							h := live[j]
							live = slices.Delete(live, j, j+1)
							disown(h.chip, h.nodes)
							if err := e.Release(h.chip, h.nodes); err != nil {
								t.Errorf("release of held cores: %v", err)
							}
						}
						if err := checkDeltas(e, nil); err != nil {
							t.Error(err)
						}
					}
					for _, h := range live {
						disown(h.chip, h.nodes)
						if err := e.Release(h.chip, h.nodes); err != nil {
							t.Errorf("release of held cores: %v", err)
						}
					}
				}()
			}
			wg.Wait()
			if a, b := e.FreeCount(0), e.FreeCount(1); a != 16 || b != 36 {
				t.Fatalf("free cores after drain = %d and %d, want 16 and 36", a, b)
			}
		})
	}
}

// FuzzEngineDeltas interprets a byte string as Claim / Release / foreign
// Commit / Rank / PlaceCached operations on a 4x4 chip and a holed 6x6
// one, with a cacheless engine and a plain free-set model moved in
// lockstep. After every operation the engine's free sets equal the model
// and their counts and XOR signatures a recompute from the free list; no
// candidate or claim names a core the model does not hold free; and every
// cached answer — a candidate's cost, a claim's cores — is the one the
// cacheless engine computes on the same free set, so an entry served
// under a signature it was not computed for shows as a different answer.
func FuzzEngineDeltas(f *testing.F) {
	reqPool := []*topo.Graph{topo.Mesh2D(1, 2), topo.Mesh2D(2, 2), topo.Mesh2D(2, 3), topo.Mesh2D(3, 3), topo.Chain(3), topo.Chain(4)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		chips := func() []Chip { return []Chip{meshChip(4, 4), meshChip(6, 6, 7, 14, 15, 28)} }
		cached, err := New(chips())
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()
		cold, err := New(chips(), WithCacheSize(0))
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		model := make([]map[topo.NodeID]bool, 2)
		for i, c := range chips() {
			model[i] = make(map[topo.NodeID]bool)
			for _, id := range c.Free {
				model[i][id] = true
			}
		}
		type held struct {
			chip  int
			nodes []topo.NodeID
		}
		var live []held
		take := func(step, chip int, nodes []topo.NodeID) {
			for _, n := range nodes {
				if !model[chip][n] {
					t.Fatalf("step %d: chip %d core %d handed out while taken", step, chip, n)
				}
				model[chip][n] = false
			}
			live = append(live, held{chip, nodes})
		}
		// sameAsCold holds a rank's candidates to the cacheless engine's
		// answer on the same free sets; partial lists (cached chips only,
		// exact fits only) must agree chip by chip.
		sameAsCold := func(step int, req Request, cands []Candidate) {
			want, _ := cold.Place(req)
			for _, c := range cands {
				i := slices.IndexFunc(want, func(w Candidate) bool { return w.Chip == c.Chip })
				if i < 0 || want[i] != c {
					t.Fatalf("step %d: candidate %+v, cacheless rank %+v", step, c, want)
				}
				// The mapping behind the candidate sits on free cores.
				cached.mu.Lock()
				_, ent, _, _ := cached.classifyLocked(cached.chips[c.Chip], req, canonicalKey(req.Topology))
				cached.mu.Unlock()
				for _, n := range ent.nodes {
					if !model[c.Chip][n] {
						t.Fatalf("step %d: candidate %+v is mapped onto taken core %d", step, c, n)
					}
				}
			}
		}
		arg := func(i int) int {
			if i < len(ops) {
				return int(ops[i])
			}
			return 0
		}
		for i, step := 0, 0; i < len(ops) && step < 48; i, step = i+3, step+1 {
			chip := arg(i+1) % 2
			req := Request{Topology: reqPool[arg(i+2)%len(reqPool)]}
			switch arg(i) % 6 {
			case 0:
				got, gotErr := cached.Claim(chip, req)
				want, wantErr := cold.Claim(chip, req)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d: claim errors diverge: cached %v, cacheless %v", step, gotErr, wantErr)
				}
				if gotErr != nil {
					break
				}
				if got.Cost != want.Cost || !slices.Equal(got.Nodes, want.Nodes) {
					t.Fatalf("step %d: claim %v at cost %v, cacheless %v at cost %v", step, got.Nodes, got.Cost, want.Nodes, want.Cost)
				}
				take(step, chip, got.Nodes)
			case 1:
				if len(live) == 0 {
					break
				}
				j := arg(i+2) % len(live)
				h := live[j]
				live = slices.Delete(live, j, j+1)
				for _, e := range []*Engine{cached, cold} {
					if err := e.Release(h.chip, h.nodes); err != nil {
						t.Fatalf("step %d: release of held cores: %v", step, err)
					}
				}
				for _, n := range h.nodes {
					model[h.chip][n] = true
				}
			case 2:
				// A foreign commit of one core: booked when the model
				// holds it free, refused with nothing moved otherwise.
				nodes := []topo.NodeID{topo.NodeID(arg(i+2) % cached.chips[chip].graph.NumNodes())}
				wasFree := model[chip][nodes[0]]
				for _, e := range []*Engine{cached, cold} {
					if err := e.Commit(chip, nodes); (err == nil) != wasFree {
						t.Fatalf("step %d: commit of core %d (free=%v): %v", step, nodes[0], wasFree, err)
					}
				}
				if wasFree {
					take(step, chip, nodes)
				}
			case 3:
				cands, pending, _ := cached.Rank(req)
				if pending != nil {
					if len(cands) != 0 {
						t.Fatalf("step %d: a parked rank named candidates %+v", step, cands)
					}
					<-pending
					cands, pending, _ = cached.Rank(req)
					if pending != nil {
						t.Fatalf("step %d: rank parked again on an unchanged free set", step)
					}
				}
				sameAsCold(step, req, cands)
			case 4:
				sameAsCold(step, req, cached.PlaceCached(req))
			default:
				// A release of cores nobody holds is refused, nothing moved.
				if len(live) > 0 {
					break
				}
				if err := cached.Release(chip, []topo.NodeID{0}); err == nil {
					t.Fatalf("step %d: release of a free core succeeded", step)
				}
			}
			for _, e := range []*Engine{cached, cold} {
				if err := checkDeltas(e, model); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
	})
}
