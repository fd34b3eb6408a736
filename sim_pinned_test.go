package vnpu

import (
	"context"
	"testing"
)

// pinnedSimCase is one of the eight model/topology cases the benchmark's
// sim_solo workload runs (bench/workload_sim.go), with the simulated
// result it must report. The numbers are what the timing core computed
// when the cases were pinned; a change that only makes the simulator
// faster moves none of them.
type pinnedSimCase struct {
	chip, model string
	topology    *Topology
	opts        []Option
	iters       int
	cycles      int64
	warmup      int64
}

func pinnedSimCases() []pinnedSimCase {
	confined := []Option{WithConfinement(true)}
	paged := []Option{WithTranslation(TranslationPage)}
	return []pinnedSimCase{
		{"sim", "alexnet", Mesh(2, 2), nil, 1, 32896308, 2771962},
		{"sim", "resnet18", Mesh(3, 3), confined, 2, 10234966, 290175},
		{"sim", "googlenet", Mesh(2, 3), paged, 1, 19192899, 664664},
		{"sim", "resnet34", Mesh(3, 4), nil, 1, 12904115, 343111},
		{"sim", "gpt2-small", Chain(4), nil, 1, 45082577, 3801148},
		{"sim", "mobilenet", NearMesh(7), confined, 4, 1448920, 93596},
		{"fpga", "resnet18", Mesh(2, 2), nil, 1, 15239790, 3263822},
		{"fpga", "yololite", Mesh(2, 4), paged, 4, 1953639, 142922},
	}
}

// runOneShot is the shipping sequence of one job on a System, as the
// benchmark runs it: create, open a timing domain, compile, reset, run,
// destroy.
func runOneShot(tb testing.TB, sys *System, model string, topology *Topology, iters int, opts ...Option) Report {
	tb.Helper()
	m, err := ModelByName(model)
	if err != nil {
		tb.Fatal(err)
	}
	bytes, err := sys.ModelMemoryBytes(m, topology.NumNodes())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := sys.Create(NewRequest(topology, append([]Option{WithMemory(bytes)}, opts...)...))
	if err != nil {
		tb.Fatal(err)
	}
	if err := v.OpenDomain(); err != nil {
		tb.Fatal(err)
	}
	cm, err := sys.CompileFor(v, m)
	if err != nil {
		tb.Fatal(err)
	}
	v.ResetForRun()
	rep, err := sys.RunCompiled(context.Background(), v, cm, iters)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Destroy(v); err != nil {
		tb.Fatal(err)
	}
	return rep
}

func (c pinnedSimCase) run(tb testing.TB, sys *System) Report {
	tb.Helper()
	return runOneShot(tb, sys, c.model, c.topology, c.iters, c.opts...)
}

func pinnedSimSystems(tb testing.TB) map[string]*System {
	tb.Helper()
	systems := map[string]*System{}
	for name, cfg := range map[string]Config{"sim": SimConfig(), "fpga": FPGAConfig()} {
		sys, err := NewSystem(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		systems[name] = sys
	}
	return systems
}

// TestSimSoloCyclesPinned is the tier-1 half of the benchmark's
// `correct` flag: it names the case whose simulated cycles or warm-up
// cycles a timing-core change bent. The second pass runs every case on
// the storage the first one left behind.
func TestSimSoloCyclesPinned(t *testing.T) {
	systems := pinnedSimSystems(t)
	for pass := 0; pass < 2; pass++ {
		var sum int64
		for _, c := range pinnedSimCases() {
			rep := c.run(t, systems[c.chip])
			if rep.Cycles != c.cycles || rep.WarmupCycles != c.warmup {
				t.Errorf("pass %d %s/%s: cycles %d warm-up %d, pinned %d and %d",
					pass, c.chip, c.model, rep.Cycles, rep.WarmupCycles, c.cycles, c.warmup)
			}
			sum += rep.Cycles
		}
		if want := int64(138953214); sum != want {
			t.Errorf("pass %d: %d cycles over the eight cases, pinned %d", pass, sum, want)
		}
	}
}

// BenchmarkSimSoloPass is one pass over the eight cases: the unit the
// benchmark's sim_solo workload repeats, here for -cpuprofile.
func BenchmarkSimSoloPass(b *testing.B) {
	systems := pinnedSimSystems(b)
	cases := pinnedSimCases()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			c.run(b, systems[c.chip])
		}
	}
}

// pinnedChurnCases are map_churn-shaped one-shots: a small model on a
// chain, near-mesh or small mesh (bench/workload_serve.go draws the same
// kinds), with the simulated result each must report.
func pinnedChurnCases() []pinnedSimCase {
	confined := []Option{WithConfinement(true)}
	return []pinnedSimCase{
		{"sim", "mobilenet", Chain(5), nil, 1, 478756, 93596},
		{"sim", "transformer", NearMesh(7), nil, 1, 176629, 71422},
		{"sim", "yololite", Mesh(2, 3), nil, 1, 182498, 12762},
		{"sim", "transformer", Chain(7), nil, 1, 176620, 71422},
		{"sim", "yololite", NearMesh(5), confined, 1, 180713, 12762},
		{"sim", "mobilenet", Mesh(2, 2), nil, 1, 396384, 187131},
		{"sim", "yololite", Chain(3), nil, 1, 144585, 25464},
		{"sim", "mobilenet", NearMesh(8), nil, 1, 574982, 93596},
		{"sim", "transformer", Mesh(1, 3), nil, 1, 95760, 142783},
		{"sim", "mobilenet", Chain(6), confined, 1, 492531, 93596},
		{"sim", "transformer", NearMesh(3), nil, 1, 95760, 142783},
		{"sim", "yololite", Mesh(2, 3), confined, 1, 182498, 12762},
	}
}

// TestMapChurnCyclesPinned pins the traffic map_churn serves, where
// TestSimSoloCyclesPinned pins eight big models: a dozen small one-shots,
// one after another on one SimConfig chip with ten cores reserved across
// it, so some jobs land on inexact regions (map cost 1 and 2) and route
// several hops through cores they do not own. The second pass runs on
// the routes and the timing storage the first one left behind.
func TestMapChurnCyclesPinned(t *testing.T) {
	sys, err := NewSystem(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.hv.Reserve(1, 8, 10, 13, 16, 21, 23, 26, 31, 34); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range pinnedChurnCases() {
			rep := c.run(t, sys)
			if rep.Cycles != c.cycles || rep.WarmupCycles != c.warmup {
				t.Errorf("pass %d job %d %s on %d cores: cycles %d warm-up %d, pinned %d and %d",
					pass, i, c.model, c.topology.NumNodes(), rep.Cycles, rep.WarmupCycles, c.cycles, c.warmup)
			}
		}
	}
}
