package main

import (
	"fmt"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/fleet"
	"github.com/vnpu-sim/vnpu/internal/ged"
	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/mem"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/sched/queue"
	"github.com/vnpu-sim/vnpu/internal/session"
	"github.com/vnpu-sim/vnpu/internal/sim"
	"github.com/vnpu-sim/vnpu/internal/timing"
	"github.com/vnpu-sim/vnpu/internal/topo"
	"github.com/vnpu-sim/vnpu/internal/workload"
)

// The probes time direct calls into each internal package on fixed
// inputs, one goroutine, no serving stack: the per-layer price list that
// says which layer a changed end-to-end number came from. Every probe
// runs probeBatches batches and reports the median batch, in time per
// call.

const probeBatches = 5

// sink keeps results alive so the compiler cannot drop a probed call.
var sink uint64

// prober runs probes at 1/scale of their full iteration counts.
type prober struct {
	scale int
	m     *metricSet
}

// iters scales a full-size iteration count, never below one.
func (p *prober) iters(full int) int {
	if n := full / p.scale; n > 1 {
		return n
	}
	return 1
}

// per reports metric name as the median over batches of (batch time /
// calls), in the metric's declared unit (ns, us or ms). batch runs one
// batch and returns how many calls it made; set-up inside batch before the
// returned start instant is not timed.
func (p *prober) per(name string, batch func() (calls int, start time.Time)) {
	unit := 1.0
	switch p.m.vals[name].Unit {
	case "us":
		unit = 1e3
	case "ms":
		unit = 1e6
	}
	var samples []float64
	calls := 0
	for b := 0; b < probeBatches; b++ {
		n, start := batch()
		elapsed := time.Since(start)
		calls += n
		samples = append(samples, float64(elapsed.Nanoseconds())/float64(n)/unit)
	}
	p.m.set(name, median(samples), calls)
}

// lcg is the probes' fixed pseudo-random sequence.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

// runProbes runs every probe and returns the filled per-layer set.
func runProbes(scale int) (*metricSet, error) {
	if scale < 1 {
		scale = 1
	}
	p := &prober{scale: scale, m: newMetricSet(perLayer)}
	p.simProbes()
	p.memProbes()
	if err := p.nocProbes(); err != nil {
		return nil, fmt.Errorf("noc probes: %w", err)
	}
	if err := p.npuProbes(); err != nil {
		return nil, fmt.Errorf("npu probes: %w", err)
	}
	if err := p.mapperProbes(); err != nil {
		return nil, fmt.Errorf("mapper probes: %w", err)
	}
	if err := p.servingProbes(); err != nil {
		return nil, fmt.Errorf("serving probes: %w", err)
	}
	if err := p.fleetProbes(); err != nil {
		return nil, fmt.Errorf("fleet probes: %w", err)
	}
	return p.m, nil
}

// simProbes: the gap-filling calendar under every HBM channel.
func (p *prober) simProbes() {
	n := p.iters(20000)
	// Requests arrive in a sliding window, as cores at different cycle
	// counts issue bursts: most land past the schedule's end, some fill
	// gaps in the middle of it.
	fill := func(c *sim.Calendar) {
		r := lcg(1)
		base := sim.Cycles(0)
		for i := 0; i < n; i++ {
			sink += uint64(c.Reserve(base+sim.Cycles(r.next()%4096), 8))
			base += 6
		}
	}
	var cal sim.Calendar
	p.per("sim.calendar_reserve_ns", func() (int, time.Time) {
		cal.Reset()
		start := time.Now()
		fill(&cal)
		return n, start
	})
	p.per("sim.calendar_probe_ns", func() (int, time.Time) {
		r := lcg(2)
		span := uint64(6*n + 4096)
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(cal.Probe(sim.Cycles(r.next()%span), 8))
		}
		return n, start
	})
	// One reset-and-refill cycle of 64 disjoint spans: what a per-job
	// timing reset costs including regrowing the schedule it discards.
	cycles := p.iters(4000)
	p.per("sim.calendar_reset_ns", func() (int, time.Time) {
		var c sim.Calendar
		start := time.Now()
		for i := 0; i < cycles; i++ {
			c.Reset()
			for s := 0; s < 64; s++ {
				sink += uint64(c.Reserve(sim.Cycles(s*16), 8))
			}
		}
		return cycles, start
	})
}

// probeRTT is eight 1 MiB ranges, as a vNPU backed by eight buddy blocks.
func probeRTT() (*mem.RTT, error) {
	var entries []mem.RTTEntry
	for i := uint64(0); i < 8; i++ {
		entries = append(entries, mem.RTTEntry{VA: i << 20, PA: (i + 64) << 20, Size: 1 << 20, Perm: mem.PermRW})
	}
	return mem.NewRTT(entries)
}

// memProbes: the HBM port, the DMA engine in front of it and the two
// translators.
func (p *prober) memProbes() {
	cfg := npu.SimConfig()
	n := p.iters(20000)
	p.per("mem.port_transfer_ns", func() (int, time.Time) {
		hbm := mem.NewHBM(cfg.HBMChannels, cfg.HBMBytesPerCycle, cfg.HBMLatency)
		port, err := hbm.Port()
		if err != nil {
			panic(err)
		}
		r := lcg(3)
		start := time.Now()
		at := sim.Cycles(0)
		for i := 0; i < n; i++ {
			sink += uint64(port.Transfer(at+sim.Cycles(r.next()%512), mem.DefaultBurstBytes))
			at += 2
		}
		return n, start
	})
	rtt, err := probeRTT()
	if err != nil {
		panic(err)
	}
	transfers := p.iters(400)
	p.per("mem.dma_transfer_ns", func() (int, time.Time) {
		hbm := mem.NewHBM(cfg.HBMChannels, cfg.HBMBytesPerCycle, cfg.HBMLatency)
		port, err := hbm.Port()
		if err != nil {
			panic(err)
		}
		dma := mem.NewDMAEngine(port, mem.NewRangeTranslator(rtt))
		start := time.Now()
		at := sim.Cycles(0)
		for i := 0; i < transfers; i++ {
			// 64 KiB = 128 bursts, each one translation and one port burst
			done, err := dma.Transfer(at, uint64(i%112)<<16, 64<<10)
			if err != nil {
				panic(err)
			}
			at = done
		}
		return transfers, start
	})
	p.per("mem.range_translate_ns", func() (int, time.Time) {
		tr := mem.NewRangeTranslator(rtt)
		start := time.Now()
		for i := 0; i < n; i++ {
			pa, stall, err := tr.Translate(uint64(i) * mem.DefaultBurstBytes % (8 << 20))
			if err != nil {
				panic(err)
			}
			sink += pa + uint64(stall)
		}
		return n, start
	})
	pt := mem.NewPageTable()
	if err := pt.Map(0, 64<<20, 8<<20, mem.PermRW); err != nil {
		panic(err)
	}
	p.per("mem.page_translate_ns", func() (int, time.Time) {
		tr := mem.NewPageTranslator(pt, 32)
		start := time.Now()
		for i := 0; i < n; i++ {
			pa, stall, err := tr.Translate(uint64(i) * mem.DefaultBurstBytes % (8 << 20))
			if err != nil {
				panic(err)
			}
			sink += pa + uint64(stall)
		}
		return n, start
	})
}

// nocProbes: one transfer across the 6x6 mesh and one confined route.
func (p *prober) nocProbes() error {
	cfg := npu.SimConfig()
	g := topo.Mesh2D(cfg.MeshRows, cfg.MeshCols)
	last := topo.NodeID(cfg.Cores() - 1)
	path, err := noc.DORPath(g, 0, last)
	if err != nil {
		return err
	}
	n := p.iters(10000)
	p.per("noc.transfer_ns", func() (int, time.Time) {
		net := noc.New(g, cfg.NoC)
		start := time.Now()
		at := sim.Cycles(0)
		for i := 0; i < n; i++ {
			done, err := net.Transfer(at, path, 4096, noc.Unowned)
			if err != nil {
				panic(err)
			}
			sink += uint64(done)
			at += 64
		}
		return n, start
	})
	// An L-shaped 3x3-minus-corner region: the confined route must bend.
	allowed := map[topo.NodeID]bool{}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			allowed[topo.NodeID(r*cfg.MeshCols+c)] = true
		}
	}
	delete(allowed, topo.NodeID(cfg.MeshCols+1))
	src, dst := topo.NodeID(0), topo.NodeID(2*cfg.MeshCols+2)
	routes := p.iters(4000)
	p.per("noc.constrained_path_ns", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < routes; i++ {
			pth, err := noc.ConstrainedPath(g, src, dst, allowed)
			if err != nil {
				panic(err)
			}
			sink += uint64(len(pth))
		}
		return routes, start
	})
	return nil
}

// npuProbes: one Device.Run of resnet18 on a 2x3 vNPU, per instruction,
// plus what the same run says about the modelled hardware; and the ISA,
// compiler and hypervisor calls around a run.
func (p *prober) npuProbes() error {
	cfg := npu.SimConfig()
	dev, err := npu.NewDevice(cfg)
	if err != nil {
		return err
	}
	hv, err := core.NewHypervisor(dev)
	if err != nil {
		return err
	}
	model := workload.ResNet18()
	vtopo := topo.Mesh2D(2, 3)
	copt := workload.CompileOptions{Cores: vtopo.NumNodes(), WeightZoneBytes: cfg.ScratchpadBytes - cfg.MetaZoneBytes}
	_, info, err := workload.Compile(model, copt)
	if err != nil {
		return err
	}
	v, err := hv.CreateVNPU(core.Request{Topology: vtopo, MemoryBytes: info.MemBytes})
	if err != nil {
		return err
	}
	if err := v.OpenDomain(); err != nil {
		return err
	}
	copt.VABase = v.MemBase()
	prog, _, err := workload.Compile(model, copt)
	if err != nil {
		return err
	}
	instrs := prog.NumInstrs()
	runs := p.iters(40)
	var res npu.Result
	var runErr error
	p.per("npu.run_ns_per_instr", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < runs; i++ {
			v.ResetForRun()
			res, runErr = dev.Run(prog, v.Placement(), v.Fabric(), npu.RunOptions{Iterations: 1})
		}
		return runs * instrs, start
	})
	if runErr != nil {
		return runErr
	}
	// The modelled hardware's own numbers from one more run, counted as
	// differences so that earlier runs do not add in.
	type hw struct {
		stalls, bursts uint64
		tlb            mem.TranslateStats
		net            noc.Stats
	}
	read := func() (h hw, err error) {
		for _, node := range v.Nodes() {
			c, err := dev.Core(node)
			if err != nil {
				return h, err
			}
			ds := c.DMA().Stats()
			h.stalls += uint64(ds.StallCycles)
			h.bursts += ds.Bursts
			ts := c.Translator().Stats()
			h.tlb.Hits += ts.Hits
			h.tlb.Misses += ts.Misses
		}
		h.net = dev.NoC().Stats()
		return h, nil
	}
	before, err := read()
	if err != nil {
		return err
	}
	v.ResetForRun()
	if res, err = dev.Run(prog, v.Placement(), v.Fabric(), npu.RunOptions{Iterations: 1}); err != nil {
		return err
	}
	after, err := read()
	if err != nil {
		return err
	}
	var compute, dma, comm sim.Cycles
	for _, cs := range res.PerCore {
		compute += cs.Compute
		dma += cs.DMA
		comm += cs.Comm
	}
	total := float64(compute + dma + comm)
	p.m.set("npu.compute_cycle_share", ratio(float64(compute), total), instrs)
	p.m.set("npu.dma_cycle_share", ratio(float64(dma), total), instrs)
	p.m.set("npu.comm_cycle_share", ratio(float64(comm), total), instrs)
	hits, misses := after.tlb.Hits-before.tlb.Hits, after.tlb.Misses-before.tlb.Misses
	p.m.set("mem.range_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	p.m.set("mem.translate_stall_cycles", float64(after.stalls-before.stalls), 0)
	p.m.set("mem.dma_bursts", float64(after.bursts-before.bursts), 0)
	p.m.set("noc.packets", float64(after.net.Packets-before.net.Packets), 0)
	p.m.set("noc.interference_hops", float64(after.net.InterferenceHops-before.net.InterferenceHops), 0)
	if err := hv.Destroy(v.ID()); err != nil {
		return err
	}

	copies := p.iters(200)
	p.per("isa.rebase_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < copies; i++ {
			sink += uint64(prog.Rebase(copt.VABase, copt.VABase+uint64(i+1)<<20).NumInstrs())
		}
		return copies, start
	})
	p.per("isa.fingerprint_us", func() (int, time.Time) {
		// Fingerprint caches on the program, so each call needs a program
		// that has not been hashed yet; the copies are made untimed.
		fresh := make([]*isa.Program, copies)
		for i := range fresh {
			fresh[i] = prog.Rebase(copt.VABase, copt.VABase+uint64(i+1)<<20)
		}
		start := time.Now()
		for _, f := range fresh {
			sink += f.Fingerprint()
		}
		return copies, start
	})
	compiles := p.iters(200)
	p.per("workload.compile_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < compiles; i++ {
			pr, _, err := workload.Compile(model, copt)
			if err != nil {
				panic(err)
			}
			sink += uint64(pr.NumInstrs())
		}
		return compiles, start
	})
	creates := p.iters(400)
	req := core.Request{Topology: topo.Mesh2D(2, 2), MemoryBytes: 4 << 20}
	p.per("core.create_destroy_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < creates; i++ {
			v, err := hv.CreateVNPU(req)
			if err != nil {
				panic(err)
			}
			if err := hv.Destroy(v.ID()); err != nil {
				panic(err)
			}
		}
		return creates, start
	})
	return nil
}

// fragmentedFree is the free set of a busy chip: every stride-th core of
// the mesh is taken.
func fragmentedFree(g *topo.Graph, stride int) []topo.NodeID {
	var free []topo.NodeID
	for _, id := range g.Nodes() {
		if int(id)%stride != 0 {
			free = append(free, id)
		}
	}
	return free
}

// mapperProbes: the topology mapper and the pieces under it.
func (p *prober) mapperProbes() error {
	cfg := npu.SimConfig()
	phys := topo.Mesh2D(cfg.MeshRows, cfg.MeshCols)
	// Every fourth core taken leaves no free 2x3 rectangle, so the mapper
	// enumerates candidate regions and scores them by edit distance.
	frag := fragmentedFree(phys, 4)
	mapOnce := func(free []topo.NodeID, req *topo.Graph) error {
		res, err := core.MapTopology(phys, free, req, core.StrategySimilar, ged.Options{})
		sink += uint64(len(res.Nodes))
		return err
	}
	if err := mapOnce(phys.Nodes(), topo.Mesh2D(3, 3)); err != nil {
		return err
	}
	if err := mapOnce(frag, topo.Mesh2D(2, 3)); err != nil {
		return err
	}
	maps := p.iters(100)
	p.per("core.map_empty_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < maps; i++ {
			_ = mapOnce(phys.Nodes(), topo.Mesh2D(3, 3))
		}
		return maps, start
	})
	fragMaps := p.iters(40)
	p.per("core.map_fragmented_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < fragMaps; i++ {
			_ = mapOnce(frag, topo.Mesh2D(2, 3))
		}
		return fragMaps, start
	})

	// The mapper's heavy tail: a 3x3 on the same fragmented chip, which the
	// serving workloads leave out because one such miss costs what
	// thousands of warm jobs do.
	hardMaps := p.iters(4)
	p.per("core.map_hard_ms", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < hardMaps; i++ {
			_ = mapOnce(frag, topo.Mesh2D(3, 3))
		}
		return hardMaps, start
	})

	want := topo.Mesh2D(2, 3)
	// A 6-core region that is not a 2x3 rectangle: an L of 4 plus 2.
	region := phys.Induced([]topo.NodeID{0, 1, 2, 3, 6, 7})
	n := p.iters(400)
	p.per("ged.exact_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < n; i++ {
			d, _ := ged.Exact(want, region, ged.Options{})
			sink += uint64(d)
		}
		return n, start
	})
	lb := ged.NewLowerBounder(want, ged.Options{})
	bounds := p.iters(20000)
	p.per("ged.lower_bound_ns", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < bounds; i++ {
			sink += uint64(lb.Bound(region))
		}
		return bounds, start
	})
	p.per("topo.signature_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += uint64(len(topo.Signature(region, 0)))
		}
		return n, start
	})
	enums := p.iters(100)
	p.per("topo.enumerate_us", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < enums; i++ {
			sets, _ := topo.ConnectedSubgraphs(phys, frag, 4, 3000)
			sink += uint64(len(sets))
		}
		return enums, start
	})

	// One placement decision on one chip, served from the mapping cache
	// and with the cache off.
	chip := func() []place.Chip {
		g := topo.Mesh2D(cfg.MeshRows, cfg.MeshCols)
		return []place.Chip{{Graph: g, Free: fragmentedFree(g, 4), Profile: place.FromConfig(cfg)}}
	}
	req := place.Request{Topology: topo.Mesh2D(2, 3)}
	for _, pr := range []struct {
		name  string
		opts  []place.Option
		calls int
	}{
		{"place.hit_us", nil, p.iters(4000)},
		{"place.miss_us", []place.Option{place.WithCacheSize(0)}, p.iters(40)},
	} {
		e, err := place.New(chip(), pr.opts...)
		if err != nil {
			return err
		}
		if _, err := e.Place(req); err != nil {
			e.Close()
			return err
		}
		calls := pr.calls
		p.per(pr.name, func() (int, time.Time) {
			start := time.Now()
			for i := 0; i < calls; i++ {
				cands, err := e.Place(req)
				if err != nil {
					panic(err)
				}
				sink += uint64(len(cands))
			}
			return calls, start
		})
		e.Close()
	}
	return nil
}

// servingProbes: the per-job steps of the warm serving path.
func (p *prober) servingProbes() error {
	n := p.iters(20000)
	p.per("sched.queue_push_pop_ns", func() (int, time.Time) {
		q := queue.New[int](queue.Config{})
		var seq uint64
		for ; seq < 64; seq++ { // a standing backlog, as under load
			q.Push(int(seq), int(seq%4), time.Time{}, seq)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			q.Push(i, i%4, time.Time{}, seq)
			seq++
			it, _ := q.Pop()
			sink += it.Seq
		}
		return n, start
	})

	pool, err := session.New[int, int](session.Config[int]{
		Destroy: func(int, int) error { return nil },
		TTL:     time.Hour,
	})
	if err != nil {
		return err
	}
	key := session.Key{Tenant: "probe", Model: 1, Topo: "2x2", Opts: 1}
	lease, _, err := pool.Acquire(key, func() (int, int, error) { return 0, 1, nil })
	if err != nil {
		return err
	}
	lease.Next() // micro-queue empty: releases the session to the idle pool
	p.per("session.acquire_warm_ns", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < n; i++ {
			l, ok := pool.AcquireWarm(key)
			if !ok {
				panic("bench: warm session missing")
			}
			l.Next()
		}
		return n, start
	})
	if err := pool.Close(); err != nil {
		return err
	}

	memo := timing.NewMemo(0)
	mkey := timing.Key{Prog: 1, Geom: 2, Iters: 1}
	stored := npu.Result{Cycles: 1000, Iterations: 1, PerCore: map[isa.CoreID]npu.CoreStats{0: {}, 1: {}, 2: {}, 3: {}}}
	simulate := func() (npu.Result, error) { return stored, nil }
	if _, err := memo.Run(mkey, true, simulate); err != nil {
		return err
	}
	p.per("timing.memo_hit_ns", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < n; i++ {
			r, _ := memo.Run(mkey, true, simulate)
			sink += uint64(r.Cycles)
		}
		return n, start
	})

	now := time.Unix(0, 0)
	ev := obs.Event{Stage: obs.StageExecuting, Tenant: "probe", At: now}
	p.per("obs.record_ns", func() (int, time.Time) {
		rec := obs.NewRecorder(1, 1<<12)
		start := time.Now()
		for i := 0; i < n; i++ {
			ev.Job = uint64(i)
			rec.Record(0, ev)
		}
		return n, start
	})
	p.per("obs.hist_observe_ns", func() (int, time.Time) {
		h := obs.NewHistogram()
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i%4096) * time.Microsecond)
		}
		return n, start
	})
	// One call is one event; a job feeds the tracker two (submit, done).
	p.per("obs.slo_observe_ns", func() (int, time.Time) {
		tr := slo.NewTracker(func() time.Time { return now }, nil, slo.Objective{Class: -1, Target: 2 * time.Millisecond})
		start := time.Now()
		for i := 0; i < n/2; i++ {
			job := uint64(i + 1)
			tr.Observe(obs.Event{Job: job, Stage: obs.StageSubmit, Tenant: "probe", At: now})
			tr.Observe(obs.Event{Job: job, Stage: obs.StageDone, Tenant: "probe", At: now.Add(time.Millisecond)})
		}
		return 2 * (n / 2), start
	})
	return nil
}

// fleetProbes: the consistent-hash router and the virtual-time replay.
func (p *prober) fleetProbes() error {
	router := fleet.NewRouter(4, 0)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%d\x00model-%d\x004x4", i%64, i%7)
	}
	n := p.iters(20000)
	p.per("fleet.router_owner_ns", func() (int, time.Time) {
		start := time.Now()
		for i := 0; i < n; i++ {
			s, _ := router.Owner(keys[i%len(keys)])
			sink += uint64(s)
		}
		return n, start
	})
	jobs := p.iters(200000)
	cfg := fleet.TraceConfig{
		Shards: 4, ChipsPerShard: 2, CoresPerChip: 36,
		Jobs: jobs, RatePerSec: 1.5 * 4 * 2 * 36 / (3 * 300e-6),
		Tenants: 8, Models: 6, ReuseFraction: 0.6, Seed: 1, DrainShard: -1,
	}
	var samples []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		res, err := fleet.Replay(cfg)
		if err != nil {
			return err
		}
		if res.Completed+res.Rejected != jobs {
			return fmt.Errorf("replay finished %d + %d of %d jobs", res.Completed, res.Rejected, jobs)
		}
		samples = append(samples, float64(jobs)/1e3/time.Since(start).Seconds())
	}
	p.m.set("fleet.replay_kjobs_per_s", median(samples), probeBatches*jobs)
	return nil
}
