package vnpu

import (
	"context"
	"errors"
	"testing"
)

// TestRunCompiledChecksFootprint: a model compiled for a vNPU with more
// memory is refused on one whose memory cannot hold its footprint, with
// ErrMemoryExceeded, and a model compiled for another core count is
// refused too.
func TestRunCompiledChecksFootprint(t *testing.T) {
	sys, err := NewSystem(FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelByName("yololite")
	if err != nil {
		t.Fatal(err)
	}
	need, err := sys.ModelMemoryBytes(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: need})
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: need / 2})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sys.CompileFor(big, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCompiled(context.Background(), small, cm, 1); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("footprint %d on a vNPU with %d bytes: err = %v, want ErrMemoryExceeded", need, small.MemBytes(), err)
	}
	if err := sys.Destroy(small); err != nil {
		t.Fatal(err)
	}
	two, err := sys.Create(Request{Topology: Mesh(1, 2), MemoryBytes: need})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCompiled(context.Background(), two, cm, 1); err == nil {
		t.Fatal("a 4-core program ran on a 2-core vNPU")
	}
}

// TestRunCompiledAcrossVNPUsOfOneShape: every vNPU's guest memory starts
// at the same base, so a model compiled on one vNPU runs on another of the
// same core count whose memory holds it, and reports exactly what that
// vNPU's own compilation reports.
func TestRunCompiledAcrossVNPUsOfOneShape(t *testing.T) {
	sys, err := NewSystem(FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelByName("yololite")
	if err != nil {
		t.Fatal(err)
	}
	need, err := sys.ModelMemoryBytes(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: need})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: 2 * need})
	if err != nil {
		t.Fatal(err)
	}
	cmA, err := sys.CompileFor(a, m)
	if err != nil {
		t.Fatal(err)
	}
	cmB, err := sys.CompileFor(b, m)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := cmA.prog.Fingerprint(), cmB.prog.Fingerprint(); fa != fb {
		t.Fatalf("one model at one shape compiled to two programs (%#x on vNPU %d, %#x on vNPU %d)", fa, a.ID(), fb, b.ID())
	}
	b.ResetForRun()
	foreign, err := sys.RunCompiled(context.Background(), b, cmA, 2)
	if err != nil {
		t.Fatalf("model compiled on vNPU %d refused on vNPU %d: %v", a.ID(), b.ID(), err)
	}
	b.ResetForRun()
	own, err := sys.RunCompiled(context.Background(), b, cmB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if foreign != own {
		t.Fatalf("vNPU %d reports %+v with vNPU %d's program, %+v with its own", b.ID(), foreign, a.ID(), own)
	}
}
