// Command bench is the repository's one benchmark: four named workloads
// that stress different layers of the serving stack and the timing core,
// six end-to-end metrics measured with tracing off, and a per-layer table
// from a traced re-run plus direct probes of every internal package. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// The driver form runs one workload once and prints a JSON result as the
// last line of standard output:
//
//	go run ./bench --workload map_churn --seed 3 --seconds 20 --trace 0
//
// Without -trace it runs the chosen workloads (default all) both untraced
// and traced and prints every metric by name; -aa N repeats the untraced
// set N times and prints each metric's spread beside its bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// defaultSeconds is the measured phase's length when -seconds is not
// given; BENCHMARK.json's run_seconds states the same number.
const defaultSeconds = 20

// setupReps is how often set-up is built for setup_s. The builds take
// 0.15 to 3 ms and jitter by half of that, so it takes about a hundred
// for a median that repeats within a few percent.
const setupReps = 101

func main() {
	// Two processors at most: the numbers in README.md and the bounds in
	// BENCHMARK.json were taken on a 2-core machine, and before Go 1.25
	// GOMAXPROCS ignores a container's CPU quota.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	var (
		workload = flag.String("workload", "", "workload to run: sim_solo, warm_decode, map_churn or fleet_open (default: all)")
		seed     = flag.Int64("seed", 1, "seed of the generated jobs; the program only ever sees the jobs")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured phase in seconds")
		trace    = flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; unset: both")
		aa       = flag.Int("aa", 0, "run the untraced set this many times (seeds seed..seed+N-1) and check every spread against its bound")
		out      = flag.String("out", "", "write every result as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced runs' harness spans as Chrome trace_event JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, "unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fail(2, "unknown workload %q", *workload)
		}
		defs = []workloadDef{def}
	}
	if *seconds <= 0 {
		fail(2, "-seconds must be positive")
	}
	base := runOpts{seed: *seed, seconds: *seconds, setupReps: setupReps, probeScale: 1}

	switch {
	case *aa > 0:
		os.Exit(runAA(os.Stdout, defs, base, *aa))
	case *trace == "0" || *trace == "1":
		if len(defs) != 1 {
			fail(2, "-trace needs -workload")
		}
		base.traced = *trace == "1"
		res, err := runOne(defs[0], base)
		if err != nil {
			fail(exitCode(err), "%s: %v", defs[0].name, err)
		}
		printResult(os.Stdout, res)
		writeOutputs(*out, *traceOut, []*result{res})
		printDriverLine(os.Stdout, res)
		if len(res.violations) > 0 {
			os.Exit(1)
		}
	case *trace == "":
		os.Exit(runAll(os.Stdout, defs, base, *out, *traceOut))
	default:
		fail(2, "-trace must be 0 or 1")
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// exitCode tells an invalid run (3) from any other failure (2).
func exitCode(err error) int {
	if errors.As(err, new(invalidRun)) {
		return 3
	}
	return 2
}

// runOne runs one workload once under the watchdog. A traced run's
// per-layer set is completed with the probes.
func runOne(def workloadDef, opt runOpts) (*result, error) {
	// Expected time: set-up repeats and the drain are small beside the
	// measured phase; a traced run adds the tenth-size re-run and probes.
	expected := time.Duration((opt.seconds + 5) * float64(time.Second))
	if opt.traced {
		expected += 15 * time.Second
		opt.seconds /= 2 // the untraced phase of a traced run is half length
	}
	stop := watchdog(def.name, 5*expected)
	defer stop()
	res, err := def.run(opt)
	if err != nil {
		return nil, err
	}
	if opt.traced {
		probes := opt.probes
		if probes == nil {
			if probes, err = runProbes(opt.probeScale); err != nil {
				return nil, err
			}
		}
		res.metrics.merge(probes)
	}
	return res, nil
}

// watchdog fails the process loudly when a workload runs five times past
// its expected time: a stuck session or dispatcher must not stall
// whatever pipeline runs the benchmark. The limit also stays inside the
// driver's 180 s per run.
func watchdog(name string, limit time.Duration) (stop func()) {
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v; goroutines:\n", name, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(4)
	})
	return func() { t.Stop() }
}

// runAll is the human form: every chosen workload untraced and traced,
// the probes once.
func runAll(w io.Writer, defs []workloadDef, base runOpts, out, traceOut string) int {
	probes, err := runProbes(base.probeScale)
	if err != nil {
		fail(2, "probes: %v", err)
	}
	var all []*result
	code := 0
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			opt := base
			opt.traced = traced
			opt.probes = probes
			res, err := runOne(def, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
				code = exitCode(err)
				continue
			}
			printResult(w, res)
			if len(res.violations) > 0 && code == 0 {
				code = 1
			}
			all = append(all, res)
		}
	}
	writeOutputs(out, traceOut, all)
	return code
}

// printResult prints every metric of a run by name, with its unit and
// the sample count behind it.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end, tracing off"
	if r.traced {
		kind = "per-layer, traced re-run and probes"
	}
	fmt.Fprintf(w, "== %s seed %d (%s)\n", r.workload, r.seed, kind)
	fmt.Fprintf(w, "   jobs: attempted %d completed %d failed %d refused %d, input hash %016x\n",
		r.attempted, r.completed, r.failed, r.refused, r.jobHash)
	for _, d := range r.metrics.decls {
		v := r.metrics.vals[d.name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "   %-28s %16.4f %-8s%s\n", d.name, v.Value, v.Unit, n)
	}
	for _, st := range r.spans.selfTimes() {
		fmt.Fprintf(w, "   span %-24s mean %10.2f us  self %10.2f us  (n=%d)\n", st.name, st.meanUS, st.selfUS, st.count)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
}

// printDriverLine prints the one JSON object the driver reads.
func printDriverLine(w io.Writer, r *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.refused,
		Metrics:   map[string]mv{},
	}
	for name, v := range r.metrics.vals {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fail(2, "encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// writeOutputs writes the -out and -trace-out files, once, at exit.
func writeOutputs(out, traceOut string, results []*result) {
	if out != "" {
		type row struct {
			Workload   string           `json:"workload"`
			Seed       int64            `json:"seed"`
			Traced     bool             `json:"traced"`
			Attempted  int              `json:"attempted"`
			Completed  int              `json:"completed"`
			Failed     int              `json:"failed"`
			Refused    int              `json:"refused"`
			Violations []string         `json:"violations,omitempty"`
			Metrics    map[string]value `json:"metrics"`
		}
		rows := make([]row, 0, len(results))
		for _, r := range results {
			rows = append(rows, row{r.workload, r.seed, r.traced, r.attempted, r.completed, r.failed, r.refused, r.violations, r.metrics.vals})
		}
		b, err := json.MarshalIndent(rows, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fail(2, "writing %s: %v", out, err)
		}
	}
	if traceOut != "" {
		logs := map[string]*spanLog{}
		for _, r := range results {
			if r.spans != nil {
				logs[r.workload] = r.spans
			}
		}
		if err := writeChrome(traceOut, logs); err != nil {
			fail(2, "writing %s: %v", traceOut, err)
		}
	}
}

// runAA runs the untraced set n times on the same code, one seed per
// repeat as the driver does, and prints per workload and metric the
// median, the quartiles, the spread between the quartiles as a share of
// the median and the full range, beside the bound. A spread over its
// bound is a failure, except for setup_s, whose spread the driver does
// not judge either.
func runAA(w io.Writer, defs []workloadDef, base runOpts, n int) int {
	code := 0
	samples := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, def := range defs {
			opt := base
			opt.seed = base.seed + int64(i)
			res, err := runOne(def, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", def.name, opt.seed, err)
				return exitCode(err)
			}
			for _, v := range res.violations {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: VIOLATION: %s\n", def.name, opt.seed, v)
				code = 1
			}
			if samples[def.name] == nil {
				samples[def.name] = map[string][]float64{}
			}
			for name, v := range res.metrics.vals {
				samples[def.name][name] = append(samples[def.name][name], v.Value)
			}
			fmt.Fprintf(w, "# repeat %d/%d %s done\n", i+1, n, def.name)
		}
	}
	fmt.Fprintf(w, "| workload | metric | median | q1 | q3 | IQR/median | range/median | bound |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, def := range defs {
		for _, d := range endToEnd {
			s := samples[def.name][d.name]
			med := median(s)
			q1, q3 := quartiles(s)
			sorted := sortedFloats(s)
			spread := ratio(q3-q1, med)
			full := ratio(sorted[len(sorted)-1]-sorted[0], med)
			verdict := ""
			if spread > d.bound && d.name != "setup_s" {
				verdict = " EXCEEDED"
				code = 1
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%%%s |\n",
				def.name, d.name, med, q1, q3, 100*spread, 100*full, 100*d.bound, verdict)
		}
	}
	return code
}
