package trace_test

import (
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/trace"
)

// TestAccessorsMatchDecodeOnCheckedInRuns runs every checked-in
// scenario and benchmark workload and holds each header accessor of
// every trace entry to packet.DecodeHeaders over the entry's bytes.
func TestAccessorsMatchDecodeOnCheckedInRuns(t *testing.T) {
	var files []string
	for _, g := range []string{"configs/*.yaml", "bench/workloads/*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in scenarios found")
	}
	for _, f := range files {
		cfg, err := config.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(rep.Trace.Entries) == 0 {
			t.Fatalf("%s: empty trace", f)
		}
		for i := range rep.Trace.Entries {
			if err := trace.CheckHeaders(&rep.Trace.Entries[i]); err != nil {
				t.Fatalf("%s: entry %d: %v", f, i, err)
			}
		}
	}
}
