package corpus

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// TestVerdictsHoldAtShiftedSeeds re-runs every checked-in entry on every
// profile with its seed shifted by 1 to 8 and requires each cell's golden
// verdict set and timeout flag. The summary digest moves with the seed
// and is not compared: a verdict that flips with the seed judges the
// RNG, not the NIC. Under -short only the first shift runs.
func TestVerdictsHoldAtShiftedSeeds(t *testing.T) {
	entries, err := List(filepath.Join("..", "..", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	shifts := int64(8)
	if testing.Short() {
		shifts = 1
	}
	for shift := int64(1); shift <= shifts; shift++ {
		var jobs []engine.Job
		var golden []ProfileExpectation
		for i := range entries {
			e := &entries[i]
			for _, p := range AllProfiles() {
				cfg := withProfile(e.Config, p)
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				cfg.Seed += shift
				jobs = append(jobs, engine.Job{
					Label: fmt.Sprintf("%s@%s seed %d", e.ID, p, cfg.Seed),
					Cfg:   cfg,
					Opts:  orchestrator.Options{Deadline: e.deadline(), Lineage: true},
				})
				golden = append(golden, e.Expected.Profiles[p])
			}
		}
		if len(jobs) < 70 {
			t.Fatalf("%d cells, want the corpus' 70", len(jobs))
		}
		for k, r := range engine.Run(context.Background(), jobs, engine.Options{Workers: 2}) {
			if r.Err != nil {
				t.Errorf("%s: %v", jobs[k].Label, r.Err)
				continue
			}
			got, err := r.Report.Outcome()
			if err != nil {
				t.Fatal(err)
			}
			if d := verdictDiff(golden[k], got); d != "" {
				t.Errorf("%s: %s", jobs[k].Label, d)
			}
		}
	}
}
