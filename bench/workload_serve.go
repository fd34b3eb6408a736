package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/vnpu-sim/vnpu"
)

// The three serving workloads. Each is a serveSpec — how to build and warm
// the stack, how to generate the seeded load — handed to runServe.

// submitWait runs one job to completion — set-up's cold job per key.
func submitWait(st *stack, j vnpu.Job) error {
	ctx := context.Background()
	h, err := st.submit(ctx, j)
	if err != nil {
		return err
	}
	_, err = h.Wait(ctx)
	return err
}

func traceOpts(traceBuf int) []vnpu.ClusterOption {
	if traceBuf <= 0 {
		return nil
	}
	return []vnpu.ClusterOption{vnpu.WithTracing(), vnpu.WithTraceBufferSize(traceBuf)}
}

// clientRNG gives every (seed, client) pair its own stream.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

func runWarmDecode(opt runOpts) (*result, error) {
	cfg := vnpu.FPGAConfig()
	model := vnpu.DecodeModel(1, 64, 16)
	mesh := vnpu.Mesh(2, 2)
	const clients, keys = 2, 4
	instrs := newInstrTable(cfg).of(model, mesh)
	var jobs [keys]jobSpec
	for k := range jobs {
		jobs[k] = jobSpec{key: k, instrs: instrs, job: vnpu.Job{
			Tenant: fmt.Sprintf("decode-%d", k), Model: model, Topology: mesh, Reusable: true,
		}}
	}
	// Set-up ends with a warm-up of this many warm jobs. Without it
	// setup_s is a handful of goroutine wake-ups, which take 0.4 ms in one
	// process and 0.6 ms in the next.
	const warmJobs = 2000
	spec := serveSpec{
		name: "warm_decode", reuse: true, closed: true, sameKeyCycles: true, warmJobs: warmJobs,
		build: func(traceBuf int) (*stack, error) {
			opts := append([]vnpu.ClusterOption{
				vnpu.WithSessionReuse(), vnpu.WithSessionIdleTTL(time.Hour),
				vnpu.WithTimingBackend(vnpu.FastTimingBackend(0)),
			}, traceOpts(traceBuf)...)
			c, err := vnpu.NewCluster(cfg, 2, opts...)
			if err != nil {
				return nil, err
			}
			st := clusterStack(c)
			// One cold job per session key, then the warm-up.
			for i := 0; i < keys+warmJobs; i++ {
				if err := submitWait(st, jobs[i%keys].job); err != nil {
					_ = c.Close()
					return nil, err
				}
			}
			return st, nil
		},
		load: func(seed int64, _ float64) load {
			ld := load{clients: clients, window: 1}
			for c := 0; c < clients; c++ {
				c, rng := c, clientRNG(seed, c)
				// Two keys private to each client, so no two clients ever
				// queue on one session.
				ld.streams = append(ld.streams, func() jobSpec { return jobs[2*c+rng.Intn(2)] })
			}
			return ld
		},
		maxTraced: 60000,
	}
	return runServe(spec, opt)
}

// churnShapes are the topologies map_churn draws from: a third meshes of
// 1..3 x 2..3 without the 3x3, a third chains of 3..7, a third
// near-meshes of 3..8. One mapping miss of a 3x3 on a fragmented 6x6 chip
// costs 15 to 150 ms, so a handful of them decide a 3 s slice's
// throughput: with it, slices of one run differ by 7 %, without by 1.5 %.
// The probe core.map_hard_ms prices that miss on its own.
func churnShapes() [3][]*vnpu.Topology {
	var shapes [3][]*vnpu.Topology
	for r := 1; r <= 3; r++ {
		for c := 2; c <= 3; c++ {
			if r*c < 9 {
				shapes[0] = append(shapes[0], vnpu.Mesh(r, c))
			}
		}
	}
	for n := 3; n <= 7; n++ {
		shapes[1] = append(shapes[1], vnpu.Chain(n))
	}
	for n := 3; n <= 8; n++ {
		shapes[2] = append(shapes[2], vnpu.NearMesh(n))
	}
	return shapes
}

// smallModels take 40-180 us of host time to simulate on the SimConfig
// chip, so serving costs are visible beside them.
func smallModels() []vnpu.Model {
	var models []vnpu.Model
	for _, name := range []string{"mobilenet", "transformer", "yololite"} {
		m, err := vnpu.ModelByName(name)
		if err != nil {
			panic(err) // the names are zoo constants
		}
		models = append(models, m)
	}
	return models
}

func runMapChurn(opt runOpts) (*result, error) {
	cfg := vnpu.SimConfig()
	models := smallModels()
	shapes := churnShapes()
	// stream generates one client's jobs. A unique tenant per job: nothing
	// repeats, so nothing is promoted to a session.
	stream := func(rng *rand.Rand, tenant string) func() jobSpec {
		instrs := newInstrTable(cfg)
		i := 0
		return func() jobSpec {
			i++
			kind := shapes[rng.Intn(len(shapes))]
			t := kind[rng.Intn(len(kind))]
			m := models[rng.Intn(len(models))]
			return jobSpec{key: -1, instrs: instrs.of(m, t), job: vnpu.Job{
				Tenant: fmt.Sprintf("%s-%07d", tenant, i), Model: m, Topology: t,
			}}
		}
	}
	// Set-up ends with a warm-up of this many jobs of the same kind, which
	// fills the placement cache: started cold, the first seconds of the
	// measured phase run 8 % slower than the rest.
	const warmJobs, window = 400, 8
	spec := serveSpec{
		name: "map_churn", closed: true, warmJobs: warmJobs,
		build: func(traceBuf int) (*stack, error) {
			opts := append([]vnpu.ClusterOption{vnpu.WithQueueDepth(256)}, traceOpts(traceBuf)...)
			c, err := vnpu.NewCluster(cfg, 1, opts...)
			if err != nil {
				return nil, err
			}
			st := clusterStack(c)
			warm := load{clients: 1, window: window, maxJobs: warmJobs,
				streams: []func() jobSpec{stream(clientRNG(opt.seed, 1), "warm")}}
			for _, r := range drive(st, warm, 60, nil).recs {
				if r.failed+r.refused > 0 {
					_ = c.Close()
					return nil, fmt.Errorf("warm-up: %d failed, %d refused: %w", r.failed, r.refused, r.firstErr)
				}
			}
			return st, nil
		},
		load: func(seed int64, _ float64) load {
			return load{clients: 1, window: window, streams: []func() jobSpec{stream(clientRNG(seed, 0), "churn")}}
		},
		maxTraced: 20000,
	}
	return runServe(spec, opt)
}

// fleetRate is the arrival rate in jobs/s: below the knee of this
// 2-shard fleet on a 2-core host (at 1500/s p90 swings fourfold between
// identical runs).
const fleetRate = 1000

func runFleetOpen(opt runOpts) (*result, error) {
	cfg := vnpu.SimConfig()
	models := smallModels()
	warmTopos := []*vnpu.Topology{vnpu.Mesh(2, 2), vnpu.Mesh(2, 3), vnpu.Chain(4)}
	// No one-shot is larger than 6 cores: the resident sessions leave 6 and
	// 10 cores free on the two shards, and a Mesh(3,3) among the one-shots
	// evicts sessions and parks on the mapper on every arrival — p99 then
	// reaches 100 ms at any rate and the generator runs milliseconds late.
	coldTopos := []*vnpu.Topology{vnpu.Mesh(1, 2), vnpu.Chain(3), vnpu.Chain(4), vnpu.Mesh(2, 2), vnpu.Mesh(2, 3)}
	const keys = 12
	// Session key k: tenant k%6, variant k/6; the two variants of one
	// tenant differ in model and topology.
	warmJob := func(k int) vnpu.Job {
		tenant, variant := k%6, k/6
		return vnpu.Job{
			Tenant:   fmt.Sprintf("svc-%d", tenant),
			Model:    models[(tenant+variant)%3],
			Topology: warmTopos[(tenant+2*variant)%3],
			Reusable: true,
		}
	}
	// 10/20/40/30 % critical/high/normal/best-effort.
	priority := func(rng *rand.Rand) vnpu.Priority {
		switch p := rng.Intn(10); {
		case p < 1:
			return vnpu.PriorityCritical
		case p < 3:
			return vnpu.PriorityHigh
		case p < 7:
			return vnpu.PriorityNormal
		}
		return vnpu.PriorityBestEffort
	}
	spec := serveSpec{
		name: "fleet_open", reuse: true,
		build: func(traceBuf int) (*stack, error) {
			opts := append([]vnpu.ClusterOption{
				vnpu.WithSessionReuse(), vnpu.WithSessionIdleTTL(time.Hour), vnpu.WithQueueDepth(512),
				vnpu.WithTimingBackend(vnpu.FastTimingBackend(0)),
			}, traceOpts(traceBuf)...)
			f, err := vnpu.NewFleet(cfg, 2, 1, opts...)
			if err != nil {
				return nil, err
			}
			st := fleetStack(f)
			for k := 0; k < keys; k++ { // pre-warm every session key
				if err := submitWait(st, warmJob(k)); err != nil {
					_ = f.Close()
					return nil, err
				}
			}
			return st, nil
		},
		load: func(seed int64, seconds float64) load {
			rng := clientRNG(seed, 0)
			instrs := newInstrTable(cfg)
			n := int(seconds * fleetRate)
			if n < 1 {
				n = 1
			}
			sched := make([]jobSpec, 0, n)
			var at float64 // seconds since the schedule's start
			for i := 0; i < n; i++ {
				at += rng.ExpFloat64() / fleetRate
				s := jobSpec{key: -1, due: time.Duration(at * float64(time.Second))}
				if rng.Intn(10) < 7 {
					s.key = rng.Intn(keys)
					s.job = warmJob(s.key)
				} else {
					s.job = vnpu.Job{
						Tenant:   fmt.Sprintf("once-%07d", i),
						Model:    models[rng.Intn(len(models))],
						Topology: coldTopos[rng.Intn(len(coldTopos))],
					}
				}
				s.job.Priority = priority(rng)
				s.instrs = instrs.of(s.job.Model, s.job.Topology)
				sched = append(sched, s)
			}
			return load{schedule: sched}
		},
		maxTraced: 20000,
	}
	return runServe(spec, opt)
}
