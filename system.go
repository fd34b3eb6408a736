package vnpu

import (
	"context"
	"fmt"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/timing"
	"github.com/vnpu-sim/vnpu/internal/workload"
)

// System is a physical NPU chip under hypervisor control — the top-level
// object applications interact with.
type System struct {
	dev *npu.Device
	hv  *core.Hypervisor
	// timing is the backend every RunCompiled outcome flows through
	// (nil = the analytic reference, with zero indirection overhead).
	// Set before serving traffic; not synchronized against in-flight runs.
	timing timing.Backend
}

// NewSystem boots a chip with the given configuration and takes hypervisor
// ownership of it (hyper mode, meta zones).
func NewSystem(cfg Config) (*System, error) {
	dev, err := npu.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	hv, err := core.NewHypervisor(dev)
	if err != nil {
		return nil, err
	}
	return &System{dev: dev, hv: hv}, nil
}

// Config returns the chip configuration.
func (s *System) Config() Config { return s.dev.Config() }

// Create allocates a virtual NPU. A request without MemoryBytes gets no
// global memory, so a workload cannot run on it — size the request with
// ModelMemoryBytes (Cluster jobs are sized automatically). Create is safe
// for concurrent use; failures wrap the package's typed errors
// (ErrNoCapacity, ErrTopologyUnsatisfiable, ErrMemoryExceeded).
func (s *System) Create(req Request) (*VirtualNPU, error) {
	return s.hv.CreateVNPU(req)
}

// Destroy releases a virtual NPU's cores, memory and meta tables.
func (s *System) Destroy(v *VirtualNPU) error { return s.hv.Destroy(v.ID()) }

// Utilization reports the fraction of physical cores currently allocated.
func (s *System) Utilization() float64 { return s.hv.Utilization() }

// FreeCores reports how many cores remain unallocated.
func (s *System) FreeCores() int { return s.hv.FreeCount() }

// VirtualNPUs lists live virtual NPUs in creation order.
func (s *System) VirtualNPUs() []*VirtualNPU { return s.hv.VNPUs() }

// Report summarizes one workload execution.
type Report struct {
	// Cycles is the total makespan of all iterations.
	Cycles int64
	// Iterations echoes the run length.
	Iterations int
	// FPS is inference throughput at the chip clock.
	FPS float64
	// WarmupCycles is the initial weight-load time through the virtual
	// NPU's memory interfaces.
	WarmupCycles int64
	// Streaming reports whether weights were re-streamed every iteration
	// (small-scratchpad regime) or stayed resident after warm-up.
	Streaming bool
}

// RunModel compiles the model for the virtual NPU (pipelining its layers
// over the virtual cores) and executes iters inferences, returning the
// performance report.
//
// RunModel requires the virtual NPU to have enough memory for the model's
// weights and I/O — a shortfall fails with ErrMemoryExceeded. A vNPU
// created without Request.MemoryBytes cannot hold any; size the request
// with System.ModelMemoryBytes before Create.
func (s *System) RunModel(v *VirtualNPU, m Model, iters int) (Report, error) {
	return s.RunModelContext(context.Background(), v, m, iters)
}

// RunModelContext is RunModel with cancellation: the simulator's
// execution loop polls ctx between timeline events and aborts with its
// error, so canceling a long-running job frees the chip promptly rather
// than after the full simulated workload.
func (s *System) RunModelContext(ctx context.Context, v *VirtualNPU, m Model, iters int) (Report, error) {
	cm, err := s.CompileFor(v, m)
	if err != nil {
		return Report{}, err
	}
	return s.RunCompiled(ctx, v, cm, iters)
}

// CompiledModel is a model compiled for a virtual NPU shape: its
// instruction streams address that core count and a guest memory
// footprint starting at the guest base every vNPU shares. A resident
// session reuses it across jobs (compile-once); RunCompiled accepts it on
// any vNPU with the same core count whose memory holds the footprint.
type CompiledModel struct {
	prog        *isa.Program
	model       string
	cores       int
	memBytes    uint64
	weightBytes int64
	streaming   bool
}

// Model reports the compiled model's name.
func (cm *CompiledModel) Model() string { return cm.model }

// Streaming reports whether the compiled program re-streams weights
// every iteration (small-scratchpad regime).
func (cm *CompiledModel) Streaming() bool { return cm.streaming }

// CompileFor compiles the model for the given virtual NPU, validating
// that the vNPU's memory holds the compiled footprint (ErrMemoryExceeded
// otherwise). The result can be executed any number of times with
// RunCompiled — the serving layer's resident sessions compile once per
// (session, model) and skip this cost on every warm job.
func (s *System) CompileFor(v *VirtualNPU, m Model) (*CompiledModel, error) {
	prog, info, err := s.compileAt(m, v.NumCores())
	if err != nil {
		return nil, err
	}
	if err := checkFootprint(m.Name, info.MemBytes, v); err != nil {
		return nil, err
	}
	return &CompiledModel{
		prog:        prog,
		model:       m.Name,
		cores:       v.NumCores(),
		memBytes:    info.MemBytes,
		weightBytes: m.WeightBytes(),
		streaming:   info.Streaming,
	}, nil
}

// SetTimingBackend installs the timing backend every later RunCompiled
// flows through (nil restores the direct analytic path). The cluster
// wires WithTimingBackend through here; direct System users may call it
// themselves. Install before running traffic — the field is read
// without synchronization on the execution paths.
func (s *System) SetTimingBackend(b timing.Backend) { s.timing = b }

// TimingBackendName reports the active backend ("analytic" when none is
// installed).
func (s *System) TimingBackendName() string {
	if s.timing == nil {
		return "analytic"
	}
	return s.timing.Name()
}

// RunCompiled executes a precompiled model on a virtual NPU of the shape
// it was compiled for. A vNPU with a different core count is rejected,
// and one whose memory cannot hold the model's footprint fails with
// ErrMemoryExceeded. The memory base needs no check: every vNPU's guest
// memory starts at the same base, and each translates it only into its
// own blocks.
//
// The run's timing outcome flows through the system's timing backend
// (SetTimingBackend): the default analytic backend always walks the
// full simulation, while the fast backend may replay a memoized result
// when the run is memoable — executing inside the vNPU's private timing
// domain (freshly reset by the caller via ResetForRun), where the
// outcome is a pure function of (program, geometry, iterations).
func (s *System) RunCompiled(ctx context.Context, v *VirtualNPU, cm *CompiledModel, iters int) (Report, error) {
	if cm.cores != v.NumCores() {
		return Report{}, fmt.Errorf("vnpu: model %q was compiled for %d cores, vNPU has %d",
			cm.model, cm.cores, v.NumCores())
	}
	if err := checkFootprint(cm.model, cm.memBytes, v); err != nil {
		return Report{}, err
	}
	simulate := func() (npu.Result, error) {
		return s.dev.Run(cm.prog, v.Placement(), v.Fabric(), npu.RunOptions{Iterations: iters, Ctx: ctx})
	}
	var res npu.Result
	var err error
	if s.timing == nil {
		res, err = simulate()
	} else {
		keyIters := iters
		if keyIters <= 0 {
			keyIters = 1 // the executor normalizes 0 to 1; key identically
		}
		key := timing.Key{Prog: cm.prog.Fingerprint(), Geom: v.TimingFingerprint(), Iters: keyIters}
		// Memoable only inside a private timing domain: the domain-less
		// (serialized, shared-timeline) model deliberately couples timing
		// across vNPUs to observe contention, so its results are not a
		// pure function of the key.
		res, err = s.timing.Run(key, v.HasDomain(), simulate)
	}
	if err != nil {
		return Report{}, err
	}
	return Report{
		Cycles:       int64(res.Cycles),
		Iterations:   res.Iterations,
		FPS:          res.FPSAt(s.dev.Config().FreqMHz),
		WarmupCycles: int64(v.WarmupCycles(cm.weightBytes)),
		Streaming:    cm.streaming,
	}, nil
}

// ResetTransients clears the vNPU's per-job microarchitectural
// transients (translation TLBs, RTT lookup hints, bandwidth-cap
// buckets). The serving layer calls it — together with the chip-wide
// timing reset — before every job on a resident vNPU, so a reused vNPU
// is cycle-identical to a freshly created one. It must not run while a
// job executes on the vNPU.
func (s *System) ResetTransients(v *VirtualNPU) {
	s.dev.ResetCoreTransients(v.Nodes())
}

// ModelMemoryBytes reports the global memory a model needs on a virtual
// NPU with the given core count — use it to size Request.MemoryBytes.
func (s *System) ModelMemoryBytes(m Model, cores int) (uint64, error) {
	_, info, err := s.compileAt(m, cores)
	if err != nil {
		return 0, err
	}
	return info.MemBytes, nil
}

// compileAt compiles the model for the given core count with its guest
// memory region at the guest base every vNPU shares. The cluster's
// compile-once cache uses it directly so it can keep the program a sizing
// pass produces instead of discarding it.
func (s *System) compileAt(m Model, cores int) (*isa.Program, workload.Info, error) {
	return workload.Compile(m, workload.CompileOptions{
		Cores:           cores,
		VABase:          core.GuestVABase,
		WeightZoneBytes: s.weightZone(),
	})
}

// checkFootprint fails with ErrMemoryExceeded when the vNPU's memory
// cannot hold a program's memBytes footprint.
func checkFootprint(model string, memBytes uint64, v *VirtualNPU) error {
	if memBytes > v.MemBytes() {
		return fmt.Errorf("vnpu: model %q needs %d bytes, vNPU has %d (set Request.MemoryBytes, e.g. from System.ModelMemoryBytes): %w",
			model, memBytes, v.MemBytes(), ErrMemoryExceeded)
	}
	return nil
}

func (s *System) weightZone() int64 {
	cfg := s.dev.Config()
	return cfg.ScratchpadBytes - cfg.MetaZoneBytes
}
