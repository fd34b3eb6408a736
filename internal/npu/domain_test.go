package npu

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// TestOpenDomainRejectsOverlap pins the spatial-isolation invariant at
// its enforcement point: a timing domain whose core set intersects an
// open domain's must be refused at creation. The hypervisor never hands
// out overlapping core sets, so this device-level check is the only
// place the violation can surface.
func TestOpenDomainRejectsOverlap(t *testing.T) {
	d, err := NewDevice(FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}

	first, err := d.OpenDomain([]topo.NodeID{0, 1})
	if err != nil {
		t.Fatalf("OpenDomain({0,1}): %v", err)
	}
	if _, err := d.OpenDomain([]topo.NodeID{1, 2}); !errors.Is(err, ErrDomainOverlap) {
		t.Fatalf("OpenDomain({1,2}) over held core 1 = %v, want ErrDomainOverlap", err)
	}
	// Disjoint cores are unaffected by the conflict.
	second, err := d.OpenDomain([]topo.NodeID{2, 3})
	if err != nil {
		t.Fatalf("OpenDomain({2,3}) disjoint: %v", err)
	}
	second.Close()

	// Closing releases the cores for a future claimant.
	first.Close()
	retry, err := d.OpenDomain([]topo.NodeID{1, 2})
	if err != nil {
		t.Fatalf("OpenDomain({1,2}) after Close: %v", err)
	}
	retry.Close()

	if _, err := d.OpenDomain([]topo.NodeID{0, 99}); err == nil {
		t.Fatal("OpenDomain over a nonexistent core must fail")
	}
}

// nodePlacement places ISA core i on the i-th listed node.
type nodePlacement []topo.NodeID

func (p nodePlacement) Node(id isa.CoreID) (topo.NodeID, error) {
	if int(id) >= len(p) {
		return 0, fmt.Errorf("no node for core %d", id)
	}
	return p[id], nil
}

// runInDomain runs the program on the given cores inside a timing domain
// of their own — fresh ports on the given HBM channels, bound to the
// domain's bank, as core.VNPU.OpenDomain does — and closes the domain.
func runInDomain(d *Device, nodes []topo.NodeID, channels []int, prog *isa.Program) (Result, error) {
	dom, err := d.OpenDomain(nodes)
	if err != nil {
		return Result{}, err
	}
	defer dom.Close()
	for _, n := range nodes {
		port, err := d.HBM().Port(channels...)
		if err != nil {
			return Result{}, err
		}
		d.cores[n].SetPort(port)
		port.UseBank(dom.Bank())
	}
	dom.Reset()
	return d.Run(prog, nodePlacement(nodes), &NoCFabric{Net: d.NoC()}, RunOptions{})
}

// dmaProgram has each of the cores stream `loads` tensors of size bytes
// from global memory with a little compute between them; nothing crosses
// the NoC, so every cycle of contention comes from the HBM calendars.
func dmaProgram(cores, loads, size int) *isa.Program {
	p := isa.NewProgram()
	for c := 0; c < cores; c++ {
		for l := 0; l < loads; l++ {
			p.Append(isa.CoreID(c), isa.Instr{Op: isa.OpDMALoad, VAddr: uint64(c)<<32 | uint64(l*size), Size: uint32(size)})
			p.Append(isa.CoreID(c), isa.Instr{Op: isa.OpMatmul, M: 16, K: int32(16 + c), N: 16})
		}
	}
	return p
}

// TestReopenedDomainMatchesFreshDevice: a domain that opens on a bank an
// earlier, larger job on other cores and other channels grew reports
// exactly what it reports on a chip nothing has run on — the recycled
// calendars are empty calendars.
func TestReopenedDomainMatchesFreshDevice(t *testing.T) {
	newDevice := func() *Device {
		d, err := NewDevice(SimConfig())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	big, small := dmaProgram(4, 12, 48<<10), dmaProgram(3, 5, 20<<10)
	bigNodes, bigCh := []topo.NodeID{0, 1, 6, 7}, []int{0, 1, 2}
	smallNodes, smallCh := []topo.NodeID{14, 15, 16}, []int{5, 1}

	fresh := func(nodes []topo.NodeID, ch []int, prog *isa.Program) Result {
		t.Helper()
		res, err := runInDomain(newDevice(), nodes, ch, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantBig, wantSmall := fresh(bigNodes, bigCh, big), fresh(smallNodes, smallCh, small)

	d := newDevice()
	for round, step := range []struct {
		nodes []topo.NodeID
		ch    []int
		prog  *isa.Program
		want  Result
	}{
		{bigNodes, bigCh, big, wantBig},
		{smallNodes, smallCh, small, wantSmall}, // fewer calendars than the bank holds
		{bigNodes, bigCh, big, wantBig},
		{smallNodes, bigCh, small, fresh(smallNodes, bigCh, small)},
	} {
		got, err := runInDomain(d, step.nodes, step.ch, step.prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, step.want) {
			t.Fatalf("round %d on the reused device: %+v, fresh device %+v", round, got, step.want)
		}
	}
	if n := len(d.idle); n != 1 {
		t.Fatalf("%d idle timing scopes after one domain at a time, want 1", n)
	}
}

// TestConcurrentDomainsRecycleBanks opens, runs and closes domains on
// disjoint regions from several goroutines: banks pass between regions
// through the device's idle list, and every run must still report the
// solo result. Run under -race.
func TestConcurrentDomainsRecycleBanks(t *testing.T) {
	d, err := NewDevice(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	const regions, rounds = 4, 6
	prog := dmaProgram(2, 6, 16<<10)
	ref, err := NewDevice(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runInDomain(ref, []topo.NodeID{0, 1}, []int{0}, prog)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < regions; r++ {
		nodes := []topo.NodeID{topo.NodeID(6 * r), topo.NodeID(6*r + 1)}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := runInDomain(d, nodes, []int{(r + i) % d.cfg.HBMChannels}, prog)
				if err != nil {
					t.Errorf("region %d round %d: %v", r, i, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("region %d round %d: %+v, solo %+v", r, i, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := len(d.idle); n < 1 || n > regions {
		t.Fatalf("%d idle timing scopes, want between 1 and the %d domains that can be open at once", n, regions)
	}
	if len(d.domOwner) != 0 {
		t.Fatalf("%d cores still owned after every domain closed", len(d.domOwner))
	}
}

// TestReopenedDomainGrowsNoCalendarStorage: one core streaming through
// one channel leaves its bursts an access latency apart, so they never
// coalesce and the calendar holds one interval per burst. The first job
// on a device grows that storage; the second, in a reopened domain, must
// find it grown.
func TestReopenedDomainGrowsNoCalendarStorage(t *testing.T) {
	d, err := NewDevice(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	const loads, size = 256, 64 << 10
	prog := dmaProgram(1, loads, size)
	intervalBytes := uint64(loads * (size / 512) * 16) // one (start, end) pair per 512 B burst
	allocated := func(nodes []topo.NodeID, ch int) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runInDomain(d, nodes, []int{ch}, prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated([]topo.NodeID{0}, 0)
	second := allocated([]topo.NodeID{7}, 3)
	t.Logf("first %d B, second %d B, intervals %d B", first, second, intervalBytes)
	if first < intervalBytes {
		t.Fatalf("first job allocated %d B, less than its %d B of intervals: the program no longer fills a calendar", first, intervalBytes)
	}
	if second > intervalBytes/8 {
		t.Fatalf("second job allocated %d B (first %d B, intervals %d B): the reopened domain regrew its calendar", second, first, intervalBytes)
	}
}
