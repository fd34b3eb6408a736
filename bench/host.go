package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostMeter measures what the measured phase cost the host: bytes
// allocated, the share of CPU time the collector took, process CPU time
// and the peak resident set. It reads counters before and after; nothing
// runs during the phase.
type hostMeter struct {
	alloc      uint64
	gcCPU, cpu float64
	rusageCPU  time.Duration
}

var hostSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), hostSamples...)
	metrics.Read(s)
	h := hostMeter{alloc: ms.TotalAlloc, rusageCPU: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.cpu = s[1].Value.Float64()
	}
	return h
}

// processCPU is user plus system time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCost is what a phase cost the host between two readings.
type hostCost struct {
	allocBytes uint64
	gcFrac     float64       // collector CPU time over all Go CPU time
	cpu        time.Duration // process user + system time
}

func (before hostMeter) since() hostCost {
	after := readHost()
	return hostCost{
		allocBytes: after.alloc - before.alloc,
		gcFrac:     ratio(after.gcCPU-before.gcCPU, after.cpu-before.cpu),
		cpu:        after.rusageCPU - before.rusageCPU,
	}
}

// report sets the host.* metrics for a phase that ran jobs jobs.
func (c hostCost) report(m *metricSet, jobs int) {
	m.set("host.alloc_kb_per_job", ratio(float64(c.allocBytes)/1024, float64(jobs)), jobs)
	m.set("host.gc_cpu_frac", c.gcFrac, 0)
	m.set("host.peak_rss_mb", peakRSSMB(), 0)
}
