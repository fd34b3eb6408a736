package core

import (
	"errors"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestSharedGuestBaseStaysIsolated holds the isolation that one guest VA
// base for every vNPU relies on: two co-resident vNPUs start their guest
// memory at the same address, yet each core's range translator maps every
// guest address of its own footprint into its own vNPU's blocks, disjoint
// from the neighbour's, and refuses an address past the footprint.
func TestSharedGuestBaseStaysIsolated(t *testing.T) {
	h := newHV(t, npu.FPGAConfig()) // 2x4 mesh
	const size = 3 << 20            // two buddy blocks: 2 MiB + 1 MiB
	a, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2), MemoryBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateVNPU(Request{Topology: topo.Mesh2D(1, 2), MemoryBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if a.MemBase() != GuestVABase || b.MemBase() != GuestVABase {
		t.Fatalf("MemBase = %#x and %#x, want both %#x", a.MemBase(), b.MemBase(), uint64(GuestVABase))
	}

	// owner[pa block] is the vNPU whose translation reached that block.
	owner := map[uint64]VMID{}
	for _, v := range []*VNPU{a, b} {
		for i, node := range v.Nodes() {
			c, err := h.Device().Core(node)
			if err != nil {
				t.Fatal(err)
			}
			tr, ok := c.Translator().(*mem.RangeTranslator)
			if !ok {
				t.Fatalf("vNPU %d core %d: translator %T, want *mem.RangeTranslator", v.ID(), node, c.Translator())
			}
			for off := uint64(0); off < v.MemBytes(); off += minMemBlock {
				pa, _, err := tr.Translate(v.MemBase() + off)
				if err != nil {
					t.Fatalf("vNPU %d core %d: translate +%#x: %v", v.ID(), node, off, err)
				}
				blk := pa &^ (minMemBlock - 1)
				if got, seen := owner[blk]; seen && got != v.ID() {
					t.Fatalf("guest +%#x of vNPU %d reaches PA %#x, which vNPU %d also reaches", off, v.ID(), pa, got)
				}
				if i == 0 {
					owner[blk] = v.ID()
				} else if owner[blk] != v.ID() {
					t.Fatalf("vNPU %d core %d maps guest +%#x to PA %#x, core 0 does not", v.ID(), node, off, pa)
				}
			}
			for _, va := range []uint64{v.MemBase() + v.MemBytes(), v.MemBase() - 1} {
				if _, _, err := tr.Translate(va); !errors.Is(err, mem.ErrUnmapped) {
					t.Fatalf("vNPU %d core %d: translate %#x outside the footprint: err = %v, want mem.ErrUnmapped", v.ID(), node, va, err)
				}
			}
		}
	}
	if want := 2 * size / minMemBlock; len(owner) != want {
		t.Fatalf("the two footprints reach %d distinct %d-byte PA blocks, want %d", len(owner), minMemBlock, want)
	}
}

// createDestroyAllocsBound is what CreateVNPUPlaced plus Destroy of a 2x3
// mesh with range-translated memory allocates per round trip.
const createDestroyAllocsBound = 53

// TestCreateDestroyAllocs guards the allocations of a cold create and its
// destroy: a change that makes the round trip copy something more shows
// here with the count it added.
func TestCreateDestroyAllocs(t *testing.T) {
	h := newHV(t, npu.SimConfig())
	req := Request{Topology: topo.Mesh2D(2, 3), MemoryBytes: 3 << 20}
	mapRes, err := MapTopology(h.Device().Graph(), h.FreeCores(), req.Topology, req.Strategy, req.MapOptions)
	if err != nil {
		t.Fatal(err)
	}
	var roundErr error
	allocs := testing.AllocsPerRun(50, func() {
		v, err := h.CreateVNPUPlaced(req, mapRes)
		if err == nil {
			err = h.Destroy(v.ID())
		}
		if err != nil && roundErr == nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		t.Fatal(roundErr)
	}
	t.Logf("create+destroy of a 2x3 mesh with memory: %.0f allocs", allocs)
	if allocs > createDestroyAllocsBound {
		t.Fatalf("create+destroy allocates %.0f times, bound %d", allocs, createDestroyAllocsBound)
	}
}
