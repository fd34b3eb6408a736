package core

import (
	"testing"

	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

func topoMesh22() *topo.Graph { return topo.Mesh2D(2, 2) }

func TestTimeShareBasic(t *testing.T) {
	cfg := npu.FPGAConfig()
	res, err := TimeShare(1_000_000, 1_000_000, 4, cfg, TimeSharePlan{SliceCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchCycles <= 0 {
		t.Fatal("switch must cost something")
	}
	// Both tenants finish after their solo runtime (sharing never helps).
	if res.TenantCycles[0] < 1_000_000 || res.TenantCycles[1] < 1_000_000 {
		t.Fatalf("tenants finished too early: %v", res.TenantCycles)
	}
	// All work completes: the last finisher bounds both solo runtimes plus
	// switching.
	if res.TenantCycles[1] < 2_000_000 {
		t.Fatalf("second tenant at %v, want >= combined work", res.TenantCycles[1])
	}
	if res.OverheadPct <= 0 || res.OverheadPct >= 100 {
		t.Fatalf("overhead = %v%%", res.OverheadPct)
	}
}

func TestTimeShareLongerSlicesCheaper(t *testing.T) {
	cfg := npu.FPGAConfig()
	var prev float64 = 101
	for _, slice := range []sim.Cycles{10_000, 100_000, 1_000_000} {
		res, err := TimeShare(2_000_000, 2_000_000, 4, cfg, TimeSharePlan{SliceCycles: slice})
		if err != nil {
			t.Fatal(err)
		}
		if res.OverheadPct >= prev {
			t.Fatalf("slice %v: overhead %v%% must shrink as slices grow (prev %v%%)",
				slice, res.OverheadPct, prev)
		}
		prev = res.OverheadPct
	}
}

func TestTimeShareWorkingSetScalesSwap(t *testing.T) {
	cfg := npu.FPGAConfig()
	small, _ := TimeShare(1e6, 1e6, 4, cfg, TimeSharePlan{SliceCycles: 1e5, WorkingSetBytes: 64 << 10})
	big, _ := TimeShare(1e6, 1e6, 4, cfg, TimeSharePlan{SliceCycles: 1e5, WorkingSetBytes: 256 << 10})
	if big.SwitchCycles != 4*small.SwitchCycles {
		t.Fatalf("swap cost must scale with working set: %v vs %v", big.SwitchCycles, small.SwitchCycles)
	}
}

func TestTimeShareUnequalTenants(t *testing.T) {
	cfg := npu.FPGAConfig()
	res, err := TimeShare(100_000, 1_000_000, 4, cfg, TimeSharePlan{SliceCycles: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.TenantCycles[0] >= res.TenantCycles[1] {
		t.Fatalf("short tenant must finish first: %v", res.TenantCycles)
	}
}

func TestTimeShareValidation(t *testing.T) {
	cfg := npu.FPGAConfig()
	if _, err := TimeShare(-1, 0, 4, cfg, TimeSharePlan{SliceCycles: 10}); err == nil {
		t.Fatal("negative runtime must fail")
	}
	if _, err := TimeShare(10, 10, 0, cfg, TimeSharePlan{SliceCycles: 10}); err == nil {
		t.Fatal("zero cores must fail")
	}
	if _, err := TimeShare(10, 10, 4, cfg, TimeSharePlan{}); err == nil {
		t.Fatal("zero slice must fail")
	}
}

func TestKVBufferReservation(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	const kv = 64 << 10
	v, err := h.CreateVNPU(Request{Topology: topoMesh22(), KVBufferBytes: kv})
	if err != nil {
		t.Fatal(err)
	}
	if v.KVBufferBytes() != kv {
		t.Fatalf("KVBufferBytes = %d", v.KVBufferBytes())
	}
	c, _ := h.Device().Core(v.Nodes()[0])
	wantZone := npu.FPGAConfig().ScratchpadBytes - npu.FPGAConfig().MetaZoneBytes - kv
	if c.WeightZoneBytes() != wantZone {
		t.Fatalf("weight zone = %d, want %d", c.WeightZoneBytes(), wantZone)
	}
	// Destroy restores the plain meta zone.
	if err := h.Destroy(v.ID()); err != nil {
		t.Fatal(err)
	}
	if c.WeightZoneBytes() != npu.FPGAConfig().ScratchpadBytes-npu.FPGAConfig().MetaZoneBytes {
		t.Fatalf("weight zone not restored: %d", c.WeightZoneBytes())
	}
}

func TestKVBufferTooLarge(t *testing.T) {
	h := newHV(t, npu.FPGAConfig())
	if _, err := h.CreateVNPU(Request{Topology: topoMesh22(), KVBufferBytes: 1 << 30}); err == nil {
		t.Fatal("oversized KV buffer must fail")
	}
	if freeCores(t, h) != 8 {
		t.Fatal("failed creation must not leak cores")
	}
}
