package main

import (
	"math"
	"sort"
)

// decl declares one metric the harness emits. The lists below and
// BENCHMARK.json name the same sets; bench_test.go holds them equal.
type decl struct {
	name, unit string
	// bound, on an end-to-end metric, is the share of the median by which
	// it may worsen and the limit its A/A spread must stay within.
	bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from a run with tracing off.
var endToEnd = []decl{
	{"setup_s", "s", 0.25},
	{"jobs_per_s", "1/s", 0.15},
	{"sojourn_us_p50", "us", 0.15},
	{"sojourn_us_p90", "us", 0.15},
	{"sim_kinstr_per_host_s", "kinstr/s", 0.15},
	{"sim_cycles_per_pass", "cycles", 0.05},
}

// perLayer are the single-layer metrics, named <module>.<what>. A
// traced run reports every one of them; a metric whose layer a workload
// bypasses reads 0 there.
var perLayer = []decl{
	// read from the untraced run: public snapshots and harness timers
	{name: "vnpu.submit_call_us_p50", unit: "us"},
	{name: "vnpu.exec_overlap_avg", unit: "count"},
	{name: "vnpu.chip_busy_frac", unit: "ratio"},
	{name: "sched.queue_wait_us_p50", unit: "us"},
	{name: "sched.hits_first_share", unit: "ratio"},
	{name: "sched.map_parked_share", unit: "ratio"},
	{name: "sched.rejected_share", unit: "ratio"},
	{name: "place.hit_ratio", unit: "ratio"},
	{name: "place.map_ms_per_miss", unit: "ms"},
	{name: "place.place_us_per_call", unit: "us"},
	{name: "place.map_cost_mean", unit: "count"},
	{name: "place.map_cpu_share", unit: "ratio"},
	{name: "session.warm_ratio", unit: "ratio"},
	{name: "session.batched_share", unit: "ratio"},
	{name: "session.evicted_pressure", unit: "count"},
	{name: "session.cold_create_us_avg", unit: "us"},
	{name: "session.warm_us_avg", unit: "us"},
	{name: "timing.memo_hit_ratio", unit: "ratio"},
	{name: "timing.memo_bypassed", unit: "count"},
	{name: "fleet.steals", unit: "count"},
	{name: "fleet.rerouted", unit: "count"},
	{name: "fleet.shard_imbalance", unit: "ratio"},
	{name: "load.sojourn_us_p99", unit: "us"},
	{name: "load.warm_sojourn_us_p50", unit: "us"},
	{name: "load.cold_sojourn_us_p50", unit: "us"},
	{name: "load.gen_late_us_p99", unit: "us"},
	{name: "load.slo_miss_share", unit: "ratio"},
	{name: "host.alloc_kb_per_job", unit: "kB"},
	{name: "host.gc_cpu_frac", unit: "ratio"},
	{name: "host.peak_rss_mb", unit: "MB"},
	{name: "core.create_us_p50", unit: "us"},
	{name: "workload.compile_us_p50", unit: "us"},
	{name: "npu.run_ms_p50", unit: "ms"},
	{name: "npu.run_share", unit: "ratio"},
	{name: "core.destroy_us_p50", unit: "us"},
	// read from the traced run: Attribution() and the two p50s
	{name: "stage.admission_us", unit: "us"},
	{name: "stage.queue_wait_us", unit: "us"},
	{name: "stage.session_wait_us", unit: "us"},
	{name: "stage.batching_us", unit: "us"},
	{name: "stage.map_park_us", unit: "us"},
	{name: "stage.chip_wait_us", unit: "us"},
	{name: "stage.execution_us", unit: "us"},
	{name: "stage.forward_us", unit: "us"},
	{name: "obs.trace_overhead_pct", unit: "%"},
	// single-goroutine probes on fixed inputs
	{name: "sim.calendar_reserve_ns", unit: "ns"},
	{name: "sim.calendar_probe_ns", unit: "ns"},
	{name: "sim.calendar_reset_ns", unit: "ns"},
	{name: "mem.port_transfer_ns", unit: "ns"},
	{name: "mem.dma_transfer_ns", unit: "ns"},
	{name: "mem.range_translate_ns", unit: "ns"},
	{name: "mem.page_translate_ns", unit: "ns"},
	{name: "noc.transfer_ns", unit: "ns"},
	{name: "noc.constrained_path_ns", unit: "ns"},
	{name: "npu.run_ns_per_instr", unit: "ns"},
	{name: "npu.compute_cycle_share", unit: "ratio"},
	{name: "npu.dma_cycle_share", unit: "ratio"},
	{name: "npu.comm_cycle_share", unit: "ratio"},
	{name: "mem.range_hit_ratio", unit: "ratio"},
	{name: "mem.translate_stall_cycles", unit: "cycles"},
	{name: "mem.dma_bursts", unit: "count"},
	{name: "noc.packets", unit: "count"},
	{name: "noc.interference_hops", unit: "count"},
	{name: "isa.rebase_us", unit: "us"},
	{name: "isa.fingerprint_us", unit: "us"},
	{name: "workload.compile_us", unit: "us"},
	{name: "core.create_destroy_us", unit: "us"},
	{name: "core.map_empty_us", unit: "us"},
	{name: "core.map_fragmented_us", unit: "us"},
	{name: "core.map_hard_ms", unit: "ms"},
	{name: "ged.exact_us", unit: "us"},
	{name: "ged.lower_bound_ns", unit: "ns"},
	{name: "topo.signature_us", unit: "us"},
	{name: "topo.enumerate_us", unit: "us"},
	{name: "place.hit_us", unit: "us"},
	{name: "place.miss_us", unit: "us"},
	{name: "sched.queue_push_pop_ns", unit: "ns"},
	{name: "session.acquire_warm_ns", unit: "ns"},
	{name: "timing.memo_hit_ns", unit: "ns"},
	{name: "obs.record_ns", unit: "ns"},
	{name: "obs.hist_observe_ns", unit: "ns"},
	{name: "obs.slo_observe_ns", unit: "ns"},
	{name: "fleet.router_owner_ns", unit: "ns"},
	{name: "fleet.replay_kjobs_per_s", unit: "kjobs/s"},
}

// value is one measured metric: the number, its unit and how many
// samples stand behind it (0 for a counter or a ratio of counters).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects values against a declared list, so a typo in a name
// is a panic during the first run rather than a silently missing metric.
type metricSet struct {
	decls []decl
	vals  map[string]value
}

func newMetricSet(decls []decl) *metricSet {
	m := &metricSet{decls: decls, vals: make(map[string]value, len(decls))}
	for _, d := range decls {
		m.vals[d.name] = value{Unit: d.unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64, n int) {
	old, ok := m.vals[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = value{Value: v, Unit: old.Unit, N: n}
}

// merge copies every non-zero value of o into m.
func (m *metricSet) merge(o *metricSet) {
	for name, v := range o.vals {
		if v.Value != 0 || v.N != 0 {
			m.vals[name] = v
		}
	}
}

// quantile reads the q-quantile of an ascending sample by linear
// interpolation between ranks, so a percentile moves with every sample
// around it and does not snap to one observation.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

func sortInt64(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func sortedFloats(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median of a float sample (0 when empty).
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	o := sortedFloats(s)
	if n := len(o); n%2 == 1 {
		return o[n/2]
	}
	return (o[len(o)/2-1] + o[len(o)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver applies to its ten runs.
func quartiles(s []float64) (q1, q3 float64) {
	o := sortedFloats(s)
	n := len(o)
	if n < 2 {
		if n == 1 {
			return o[0], o[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return o[j-1] + (pos-float64(j))*(o[j]-o[j-1])
	}
	return at(0.25), at(0.75)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
