package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRunStdoutMatchesGolden pins plain `lumina run` stdout — the trace
// summary, the analyzer details and the verdicts — for every checked-in
// scenario. Rerun with -update to rewrite testdata/run.golden.
func TestRunStdoutMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, g := range []string{"configs/*.yaml", "corpus/*/scenario.yaml", "bench/workloads/*.yaml", "examples/*/*.yaml"} {
		files, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			abs, err := filepath.Abs(f)
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runMain(t, "run", abs)
			if code != 0 {
				t.Fatalf("lumina run %s: exit %d: %s", f, code, stderr)
			}
			rel, _ := filepath.Rel(filepath.Join("..", ".."), f)
			fmt.Fprintf(&got, "=== lumina run %s ===\n%s", filepath.ToSlash(rel), stdout)
		}
	}
	const golden = "testdata/run.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("lumina run stdout differs from %s; rerun with -update and review the diff", golden)
	}
}
