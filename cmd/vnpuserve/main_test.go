package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/vnpu-sim/vnpu"
)

// serve parses args as the command line would, runs the serving mode
// they select with stdout captured, and returns the report text plus the
// decoded -json summary.
func serve(t *testing.T, args ...string) (string, map[string]any) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "summary.json")
	rc, err := parseFlags(append(args, "-json", jsonPath))
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	report := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		report <- string(b)
	}()
	err = rc.serve()
	os.Stdout = stdout
	w.Close()
	out := <-report
	if err != nil {
		t.Fatalf("vnpuserve %v: %v\n%s", args, err, out)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("-json summary does not unmarshal: %v\n%s", err, raw)
	}
	for k := range sum {
		if strings.HasPrefix(k, "regret_") || strings.HasPrefix(k, "prewarm_") || k == "placement_regret" {
			t.Errorf("vnpuserve %v: -json summary still carries %q", args, k)
		}
	}
	return out, sum
}

// wantNumber asserts one numeric key of a -json summary.
func wantNumber(t *testing.T, sum map[string]any, key string, want float64) {
	t.Helper()
	if got, ok := sum[key].(float64); !ok || got != want {
		t.Errorf("summary %q = %v, want %v", key, sum[key], want)
	}
}

var finalAlloc = regexp.MustCompile(`final core alloc +(\d+)%`)

// TestServeSmoke drives each serving mode with a tiny trace: every job
// completes, nothing fails, and a run without resident sessions hands
// every core back.
func TestServeSmoke(t *testing.T) {
	t.Run("single cluster", func(t *testing.T) {
		out, sum := serve(t, "-chips", "2", "-jobs", "12", "-rate", "0")
		wantNumber(t, sum, "jobs", 12)
		wantNumber(t, sum, "failed", 0)
		allocs := finalAlloc.FindAllStringSubmatch(out, -1)
		if len(allocs) != 2 {
			t.Fatalf("report has %d per-chip lines, want 2:\n%s", len(allocs), out)
		}
		for _, m := range allocs {
			if m[1] != "0" {
				t.Errorf("final core alloc %s%%, want 0%%:\n%s", m[1], out)
			}
		}
	})
	t.Run("reuse", func(t *testing.T) {
		_, sum := serve(t, "-chips", "2", "-jobs", "12", "-rate", "0", "-tenants", "2", "-reuse")
		wantNumber(t, sum, "jobs", 12)
		wantNumber(t, sum, "failed", 0)
		if reuse, _ := sum["reuse"].(bool); !reuse {
			t.Errorf("summary does not report the session pool: %v", sum["reuse"])
		}
	})
	t.Run("shards", func(t *testing.T) {
		_, sum := serve(t, "-shards", "2", "-chips", "1", "-jobs", "12", "-rate", "0")
		wantNumber(t, sum, "completed", 12)
		wantNumber(t, sum, "rejected", 0)
	})
	t.Run("virtual", func(t *testing.T) {
		_, sum := serve(t, "-shards", "2", "-chips", "1", "-virtual", "-jobs", "200")
		wantNumber(t, sum, "completed", 200)
		wantNumber(t, sum, "rejected", 0)
	})
}

var deadlineMissed = regexp.MustCompile(`(\d+) deadline-missed`)

// TestPriomixDeadlineInBothModes: under -priomix -deadline every high and
// critical job carries the deadline, in the single-cluster and the -shards
// submit loop alike. A 1ns deadline has passed before any of them can
// run, so the report counts exactly the high and critical jobs the seeded
// trace draws as deadline-missed.
func TestPriomixDeadlineInBothModes(t *testing.T) {
	for _, mode := range [][]string{{"-chips", "2"}, {"-shards", "2", "-chips", "1"}} {
		args := append(mode, "-jobs", "24", "-rate", "0", "-priomix", "-deadline", "1ns")
		rc, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := chipConfig(rc.chipName)
		if err != nil {
			t.Fatal(err)
		}
		mixes, err := buildMix(cfg.Cores())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(rc.seed))
		want := 0
		for i := 0; i < rc.jobs; i++ {
			job, _ := buildJob(rng, mixes, rc)
			if high := job.Priority >= vnpu.PriorityHigh; high != !job.Deadline.IsZero() {
				t.Fatalf("job %d: priority %v, deadline %v", i, job.Priority, job.Deadline)
			}
			if !job.Deadline.IsZero() {
				want++
			}
		}
		if want == 0 {
			t.Fatalf("seed %d draws no high or critical job in %d", rc.seed, rc.jobs)
		}
		out, _ := serve(t, args...)
		m := deadlineMissed.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("vnpuserve %v: report has no deadline-missed count:\n%s", args, out)
		}
		if got, _ := strconv.Atoi(m[1]); got != want {
			t.Errorf("vnpuserve %v: %d deadline-missed, want %d (every high and critical job)", args, got, want)
		}
	}
}
