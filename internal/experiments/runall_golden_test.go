package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunAllGolden pins every reproduced figure and table byte for byte:
// RunAll is deterministic, so a change that claims identical cycles proves
// it on all of the paper's figures here, and a change that moves a figure
// shows the first line that drifted. Regenerate with
// `go test -run TestRunAllGolden ./internal/experiments -update` only when
// a figure is meant to move, and say why beside the change.
func TestRunAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runall.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("RunAll drifted from %s at line %d (got %d lines, want %d):\n got: %q\nwant: %q",
				golden, i+1, len(got), len(wantLines), g, w)
		}
	}
}
