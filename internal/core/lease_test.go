package core

import (
	"errors"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestDestroyRefusesLeasedVNPU is the lease-safe destroy guard: a vNPU
// with an active serving lease cannot be torn down until the lease
// drops, so session-pool eviction can never yank cores out from under a
// running job.
func TestDestroyRefusesLeasedVNPU(t *testing.T) {
	dev, err := npu.NewDevice(npu.FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	hv, err := NewHypervisor(dev)
	if err != nil {
		t.Fatal(err)
	}
	v, err := hv.CreateVNPU(Request{Topology: topo.Mesh2D(2, 2)})
	if err != nil {
		t.Fatal(err)
	}

	v.Lease()
	if !v.Leased() {
		t.Fatal("lease not recorded")
	}
	if err := hv.Destroy(v.ID()); !errors.Is(err, ErrLeased) {
		t.Fatalf("want ErrLeased, got %v", err)
	}
	if freeCores(t, hv) != dev.Config().Cores()-4 {
		t.Fatal("refused destroy must leave the allocation intact")
	}

	v.Unlease()
	if v.Leased() {
		t.Fatal("lease not dropped")
	}
	if err := hv.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
	if freeCores(t, hv) != dev.Config().Cores() {
		t.Fatal("destroy did not free the cores")
	}
}
