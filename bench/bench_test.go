package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatchBenchmarkJSON holds the harness's metric and
// workload tables equal to what BENCHMARK.json declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkFile(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, harness has %d (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound != endToEnd[i].bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness (must be in (0, 0.25])", m.Name, m.Bound, endToEnd[i].bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, harness has %d (at most 128)", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q [%q] breaks the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func declNames(decls []decl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsAtSmallScale runs every workload untraced and traced, and
// every probe, at 1/200 of the benchmark's size: each run must pass its
// correctness checks and emit exactly the declared metric names, and one
// seed must generate one job sequence.
func TestWorkloadsAtSmallScale(t *testing.T) {
	const scale = 200
	probes, err := runProbes(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer[len(perLayer)-len(probeNames()):] {
		if v := probes.vals[d.name]; v.Value == 0 && d.name != "noc.interference_hops" {
			t.Errorf("probe %s measured nothing", d.name)
		}
	}
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			opt := runOpts{seed: 7, seconds: float64(defaultSeconds) / scale, setupReps: 1, probeScale: scale, probes: probes, shared: true}
			hashes := map[bool]uint64{}
			for _, traced := range []bool{false, true} {
				opt.traced = traced
				res, err := runOne(def, opt)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, v := range res.violations {
					t.Errorf("traced=%v: violation: %s", traced, v)
				}
				if res.attempted < 1 || res.attempted != res.completed+res.failed+res.refused {
					t.Errorf("traced=%v: attempted %d completed %d failed %d refused %d", traced, res.attempted, res.completed, res.failed, res.refused)
				}
				want := declNames(endToEnd)
				if traced {
					want = declNames(perLayer)
				}
				if got := sortedNames(res.metrics); !equalStrings(got, want) {
					t.Errorf("traced=%v: emitted metrics %v, declared %v", traced, got, want)
				}
				if !traced {
					for _, d := range endToEnd {
						if res.metrics.vals[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, res.metrics.vals[d.name].Value)
						}
					}
				}
				hashes[traced] = res.jobHash
			}
			// Same seed, same length: the same generated jobs (the traced
			// run's untraced phase is half as long, which only shortens
			// an open loop's schedule).
			opt.traced, opt.dryRun = false, true
			again, err := runOne(def, opt)
			if err != nil {
				t.Fatal(err)
			}
			if again.jobHash != hashes[false] {
				t.Errorf("seed 7 generated job hash %016x, then %016x", hashes[false], again.jobHash)
			}
			opt.seed = 8
			other, err := runOne(def, opt)
			if err != nil {
				t.Fatal(err)
			}
			if other.jobHash == hashes[false] {
				t.Errorf("seeds 7 and 8 generated the same job hash %016x", other.jobHash)
			}
		})
	}
}

// probeNames lists the metrics the probes fill: everything declared
// after the stage.* block.
func probeNames() []string {
	for i, d := range perLayer {
		if d.name == "sim.calendar_reserve_ns" {
			return declNames(perLayer[i:])
		}
	}
	return nil
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// sortedNames returns the names a metric set holds, in order.
func sortedNames(m *metricSet) []string {
	names := make([]string, 0, len(m.vals))
	for name := range m.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
