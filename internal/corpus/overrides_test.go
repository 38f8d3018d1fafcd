package corpus

import (
	"context"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// TestOverridesThatMatchTheModelAreInert: a profile override that sets
// what a model already does changes nothing it simulates, so every cell
// of the checked-in corpus, rerun with it on both hosts, reproduces its
// golden outcome. Each boolean override is tried on the four models it
// does not flip; ack-coalesce: 4 restates the default on all five. The
// content hash moves with each: an override is part of the identity.
func TestOverridesThatMatchTheModelAreInert(t *testing.T) {
	entries, err := List("../../corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries")
	}
	overrides := []struct {
		name   string
		except string // the one model the override changes; "" for none
		o      config.Overrides
	}{
		{"no-ets-clamp", "cx6", config.Overrides{NoETSClamp: true}},
		{"no-strict-apm", "cx5", config.Overrides{NoStrictAPM: true}},
		{"no-slow-path-wedge", "cx4", config.Overrides{NoSlowPathWedge: true}},
		{"ack-coalesce: 4", "", config.Overrides{AckCoalesce: 4}},
	}
	type cell struct {
		entry    *Entry
		profile  string
		override string
	}
	var cells []cell
	var cfgs []config.Test
	for i := range entries {
		e := &entries[i]
		for _, p := range AllProfiles() {
			for _, ov := range overrides {
				if p == ov.except {
					continue
				}
				cfg := withProfile(e.Config, p)
				cfg.Requester.NIC.Profile = &ov.o
				cfg.Responder.NIC.Profile = &ov.o
				if id, err := ID(cfg); err != nil || id == e.ID {
					t.Errorf("%s %s with %s: content hash %s (%v) did not move", e.ID, p, ov.name, id, err)
				}
				cells = append(cells, cell{e, p, ov.name})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	// Each entry's goldens were recorded under its own deadline; runs
	// that share one go to the engine together.
	byDeadline := map[sim.Duration][]int{}
	for i, c := range cells {
		d := c.entry.deadline()
		byDeadline[d] = append(byDeadline[d], i)
	}
	for d, idx := range byDeadline {
		batch := make([]config.Test, len(idx))
		for j, i := range idx {
			batch[j] = cfgs[i]
		}
		reps, err := engine.RunConfigs(context.Background(), batch,
			orchestrator.Options{Deadline: d, Lineage: true},
			engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range idx {
			c := cells[i]
			got, err := reps[j].Outcome()
			if err != nil {
				t.Fatal(err)
			}
			want := c.entry.Expected.Profiles[c.profile]
			if got.SummarySHA256 != want.SummarySHA256 {
				t.Errorf("%s (%s) on %s with %s: summary digest %s, golden %s",
					c.entry.ID, c.entry.Expected.Name, c.profile, c.override, got.SummarySHA256, want.SummarySHA256)
			}
		}
	}
	t.Logf("%d cells rerun with an inert override", len(cells))
}
