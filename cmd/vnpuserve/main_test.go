package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
