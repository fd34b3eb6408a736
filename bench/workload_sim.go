package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/vnpu-sim/vnpu"
	"github.com/vnpu-sim/vnpu/internal/workload"
)

// simCase is one fixed (chip, model, topology, options, iterations) case
// of sim_solo.
type simCase struct {
	chip  string // "sim" or "fpga"
	model string
	topo  *vnpu.Topology
	opts  []vnpu.Option
	iters int
}

func simCases() []simCase {
	confined := []vnpu.Option{vnpu.WithConfinement(true)}
	paged := []vnpu.Option{vnpu.WithTranslation(vnpu.TranslationPage)}
	return []simCase{
		{"sim", "alexnet", vnpu.Mesh(2, 2), nil, 1},
		{"sim", "resnet18", vnpu.Mesh(3, 3), confined, 2},
		{"sim", "googlenet", vnpu.Mesh(2, 3), paged, 1},
		{"sim", "resnet34", vnpu.Mesh(3, 4), nil, 1},
		{"sim", "gpt2-small", vnpu.Chain(4), nil, 1},
		{"sim", "mobilenet", vnpu.NearMesh(7), confined, 4},
		{"fpga", "resnet18", vnpu.Mesh(2, 2), nil, 1},
		{"fpga", "yololite", vnpu.Mesh(2, 4), paged, 4},
	}
}

// simEnv is sim_solo's set-up: the two chips and, per case, the model,
// its sized request and its instruction count.
type simEnv struct {
	systems map[string]*vnpu.System
	cases   []simPrepared
}

type simPrepared struct {
	simCase
	sys    *vnpu.System
	m      vnpu.Model
	req    vnpu.Request
	instrs int64 // instructions one execution simulates (all iterations)
}

// instrCount compiles the model the way System.CompileFor does and
// counts the instructions; the count does not depend on the memory base.
func instrCount(cfg vnpu.Config, m vnpu.Model, cores int) (int64, error) {
	prog, _, err := workload.Compile(m, workload.CompileOptions{
		Cores:           cores,
		WeightZoneBytes: cfg.ScratchpadBytes - cfg.MetaZoneBytes,
	})
	if err != nil {
		return 0, err
	}
	return int64(prog.NumInstrs()), nil
}

func buildSimEnv() (*simEnv, error) {
	env := &simEnv{systems: map[string]*vnpu.System{}}
	for name, cfg := range map[string]vnpu.Config{"sim": vnpu.SimConfig(), "fpga": vnpu.FPGAConfig()} {
		sys, err := vnpu.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		env.systems[name] = sys
	}
	for _, c := range simCases() {
		sys := env.systems[c.chip]
		m, err := vnpu.ModelByName(c.model)
		if err != nil {
			return nil, err
		}
		cores := c.topo.NumNodes()
		bytes, err := sys.ModelMemoryBytes(m, cores)
		if err != nil {
			return nil, err
		}
		n, err := instrCount(sys.Config(), m, cores)
		if err != nil {
			return nil, err
		}
		opts := append([]vnpu.Option{vnpu.WithMemory(bytes)}, c.opts...)
		env.cases = append(env.cases, simPrepared{
			simCase: c, sys: sys, m: m,
			req:    vnpu.NewRequest(c.topo, opts...),
			instrs: n * int64(c.iters),
		})
	}
	return env, nil
}

// simOutcome is what one case execution reports and took.
type simOutcome struct {
	cycles, warmup                       int64
	create, compile, run, destroy, total time.Duration
}

// runCase is the shipping sequence of one job on a System. ResetForRun
// matters: without it repeated runs pile onto the calendars of the
// previous ones and both the cycles and the host time drift upward.
func (c *simPrepared) runCase(ctx context.Context, spans *spanLog, job int64) (simOutcome, error) {
	var o simOutcome
	t0 := time.Now()
	root := spans.reserve("case:"+c.model, job, t0)
	v, err := c.sys.Create(c.req)
	t1 := time.Now()
	if err != nil {
		return o, fmt.Errorf("create %s: %w", c.model, err)
	}
	if err := v.OpenDomain(); err != nil {
		return o, fmt.Errorf("open domain %s: %w", c.model, err)
	}
	t2 := time.Now()
	cm, err := c.sys.CompileFor(v, c.m)
	t3 := time.Now()
	if err != nil {
		return o, fmt.Errorf("compile %s: %w", c.model, err)
	}
	v.ResetForRun()
	t4 := time.Now()
	rep, err := c.sys.RunCompiled(ctx, v, cm, c.iters)
	t5 := time.Now()
	if err != nil {
		return o, fmt.Errorf("run %s: %w", c.model, err)
	}
	if err := c.sys.Destroy(v); err != nil {
		return o, fmt.Errorf("destroy %s: %w", c.model, err)
	}
	t6 := time.Now()
	if spans != nil {
		spans.add("System.Create", job, root, t0, t1)
		spans.add("VirtualNPU.OpenDomain", job, root, t1, t2)
		spans.add("System.CompileFor", job, root, t2, t3)
		spans.add("VirtualNPU.ResetForRun", job, root, t3, t4)
		spans.add("System.RunCompiled", job, root, t4, t5)
		spans.add("System.Destroy", job, root, t5, t6)
		spans.finish(root, t6)
	}
	return simOutcome{
		cycles: rep.Cycles, warmup: rep.WarmupCycles,
		create: t2.Sub(t0), compile: t3.Sub(t2), run: t5.Sub(t4), destroy: t6.Sub(t5), total: t6.Sub(t0),
	}, nil
}

// runSimSolo runs passes over the eight cases on one goroutine until the
// time is up. The cases themselves are the fixed input, which is what
// lets the simulated cycles repeat exactly.
func runSimSolo(opt runOpts) (*result, error) {
	res := &result{workload: "sim_solo", seed: opt.seed, traced: opt.traced}
	// The seed picks where in the fixed cycle of cases the run starts. The
	// order within the cycle stays: a case's host time depends on the heap
	// its predecessor leaves behind (resnet34 takes 22 or 30 ms by that),
	// so shuffling per pass would make each case's median a coin toss.
	cases := simCases()
	first := rand.New(rand.NewSource(opt.seed)).Intn(len(cases))
	hash := fnv.New64a()
	for k := range cases {
		c := cases[(first+k)%len(cases)]
		fmt.Fprintf(hash, "%s/%s/%d;", c.chip, c.model, c.iters)
	}
	res.jobHash = hash.Sum64()
	if opt.dryRun {
		return res, nil
	}
	env, setupS, setupN, err := timeSetup(opt.setupReps, buildSimEnv, func(*simEnv) error { return nil })
	if err != nil {
		return nil, err
	}
	if opt.traced {
		res.spans = newSpanLog(1 << 12)
	}
	ctx := context.Background()

	var (
		digest     []int64 // cycles and warm-up cycles per case, first pass
		passTimes  []float64
		sojourns   []int64
		create     []int64
		compile    []int64
		run        []int64
		destroy    []int64
		runTotal   time.Duration
		passCycles int64
		passInstrs int64
	)
	for _, c := range env.cases {
		passInstrs += c.instrs
	}
	host := readHost()
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		passStart := time.Now()
		for k := range env.cases {
			ci := (first + k) % len(env.cases)
			c := &env.cases[ci]
			res.attempted++
			o, err := c.runCase(ctx, res.spans, int64(res.attempted))
			if err != nil {
				res.failed++
				res.violate("%v", err)
				continue
			}
			res.completed++
			sojourns = append(sojourns, o.total.Nanoseconds())
			create = append(create, o.create.Nanoseconds())
			compile = append(compile, o.compile.Nanoseconds())
			run = append(run, o.run.Nanoseconds())
			destroy = append(destroy, o.destroy.Nanoseconds())
			runTotal += o.run
			if pass == 0 {
				if digest == nil {
					digest = make([]int64, 2*len(env.cases))
				}
				digest[2*ci], digest[2*ci+1] = o.cycles, o.warmup
				passCycles += o.cycles
			} else if digest[2*ci] != o.cycles || digest[2*ci+1] != o.warmup {
				res.violate("pass %d %s/%s: cycles %d warm-up %d, first pass had %d and %d",
					pass, c.chip, c.model, o.cycles, o.warmup, digest[2*ci], digest[2*ci+1])
			}
		}
		passTimes = append(passTimes, time.Since(passStart).Seconds())
	}
	elapsed := time.Since(start)
	cost := host.since()
	for name, sys := range env.systems {
		if n := len(sys.VirtualNPUs()); n != 0 || sys.Utilization() != 0 {
			res.violate("%s chip still holds %d vNPUs (utilization %.2f) after the run", name, n, sys.Utilization())
		}
	}

	sortInt64(sojourns)
	if !opt.traced {
		m := newMetricSet(endToEnd)
		m.set("setup_s", setupS, setupN)
		// A job's sojourn here is its share of a pass: pass time over
		// the number of cases, median and 90th percentile over the
		// passes. Percentiles pooled over the case executions would only
		// say which of the eight fixed cases sits at that rank, and the
		// median would sit on the edge between two cases' clusters, where
		// it moves with the slowest run of one and the fastest of the
		// other.
		perJob := make([]int64, len(passTimes))
		for i, t := range passTimes {
			perJob[i] = int64(t * 1e9 / float64(len(env.cases)))
		}
		sortInt64(perJob)
		m.set("jobs_per_s", ratio(float64(len(env.cases)), median(passTimes)), res.completed)
		m.set("sojourn_us_p50", quantile(perJob, 0.50)/1e3, len(perJob))
		m.set("sojourn_us_p90", quantile(perJob, 0.90)/1e3, len(perJob))
		m.set("sim_kinstr_per_host_s", ratio(float64(passInstrs)/1e3, median(passTimes)), len(passTimes))
		m.set("sim_cycles_per_pass", float64(passCycles), len(passTimes))
		res.metrics = m
		return res, nil
	}
	m := newMetricSet(perLayer)
	cost.report(m, res.completed)
	m.set("load.sojourn_us_p99", quantile(sojourns, 0.99)/1e3, len(sojourns))
	m.set("core.create_us_p50", quantile(sortInt64(create), 0.5)/1e3, len(create))
	m.set("workload.compile_us_p50", quantile(sortInt64(compile), 0.5)/1e3, len(compile))
	m.set("npu.run_ms_p50", quantile(sortInt64(run), 0.5)/1e6, len(run))
	m.set("core.destroy_us_p50", quantile(sortInt64(destroy), 0.5)/1e3, len(destroy))
	m.set("npu.run_share", ratio(runTotal.Seconds(), elapsed.Seconds()), len(run))
	res.metrics = m
	return res, nil
}
