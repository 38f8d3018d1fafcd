// Package corpus is Lumina's regression corpus: a content-addressed,
// on-disk store of minimized anomalous scenarios together with the
// behaviour they are expected to reproduce. The paper's payoff is
// turning one-off anomaly observations into repeatable tests of RNIC
// micro-behaviour; the corpus is where those tests live once the fuzzer
// (internal/fuzz) finds them and the minimizer (internal/minimize)
// shrinks them.
//
// Layout: one directory per entry under the corpus root, named by the
// entry's content address — the SHA-256 of the canonical scenario YAML
// (name field cleared, keys sorted by the marshaller), truncated to 16
// hex digits. Each entry holds:
//
//	<id>/scenario.yaml   the scenario, replayable with `lumina run`
//	<id>/expected.json   per-profile golden behaviour: the analyzer
//	                     verdict set, the timeout flag, and the SHA-256
//	                     of the run's summary.json
//
// Content addressing makes admission idempotent (the same minimized
// scenario hashes to the same entry, so fuzzer re-discoveries dedup for
// free) and makes on-disk tampering detectable without running anything
// (the recomputed hash of scenario.yaml must match the directory name).
//
// Golden digests are stable because every run is a pure function of
// (config, seed): summary.json serializes with fixed field order and
// sorted map keys, so the digest recorded at admission is reproduced on
// any machine, at any worker count, on any later checkout — until the
// simulator's behaviour actually drifts, which is exactly what Replay
// exists to catch.
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Schema versions expected.json; bump on incompatible layout changes.
const Schema = "lumina-corpus/1"

// ID computes a configuration's content address. It is the canonical
// scenario hash (config.ContentHash) — the same identity the result
// cache and the serve daemon key on, so an entry directory name, a
// cache key's scenario dimension and a served run ID can never drift
// from one another.
func ID(cfg config.Test) (string, error) {
	id, err := config.ContentHash(cfg)
	if err != nil {
		return "", fmt.Errorf("corpus: %w", err)
	}
	return id, nil
}

// ProfileExpectation is the golden behaviour of one entry under one NIC
// profile, recorded at admission: the run's judged outcome (verdict set,
// timeout flag, canonical summary digest). It is the same type a cached
// result.json embeds, so a replay compares like with like whether the
// cell was simulated or served from the cache.
type ProfileExpectation = orchestrator.Outcome

// Expected is the expected.json document.
type Expected struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Name   string `json:"name"`
	// Target records provenance (fuzz target name, or "manual").
	Target string `json:"target,omitempty"`
	// Score is the fuzzer's anomaly score at discovery, if any.
	Score float64 `json:"score,omitempty"`
	// DeadlineNs is the virtual-time deadline the goldens were recorded
	// under; replays must use the same value (timeouts are
	// deadline-relative).
	DeadlineNs int64 `json:"deadline_ns"`
	// Profiles maps NIC model name → golden behaviour.
	Profiles map[string]ProfileExpectation `json:"profiles"`
}

// Entry is one loaded corpus entry.
type Entry struct {
	ID       string
	Config   config.Test
	Expected Expected
}

// deadline is the virtual-time bound the goldens were recorded under;
// an entry that records none replays under the orchestrator default.
func (e *Entry) deadline() sim.Duration {
	if e.Expected.DeadlineNs <= 0 {
		return orchestrator.DefaultOptions().Deadline
	}
	return sim.Duration(e.Expected.DeadlineNs)
}

// Meta is admission provenance.
type Meta struct {
	Name   string // display name; empty = cfg.Name
	Target string
	Score  float64
}

// RunOptions tune the simulations Add and Replay execute.
type RunOptions struct {
	// Deadline bounds each run's virtual time (default 600 s).
	Deadline sim.Duration
	// Profiles are the NIC models goldens are recorded for (default:
	// every built-in model, sorted).
	Profiles []string
	// Workers is the engine pool size (0 = one per CPU, 1 = serial).
	Workers int
}

func (o *RunOptions) fill() {
	if o.Deadline <= 0 {
		o.Deadline = orchestrator.DefaultOptions().Deadline
	}
	if len(o.Profiles) == 0 {
		o.Profiles = AllProfiles()
	}
}

// AllProfiles returns every built-in NIC model name, sorted — the
// default replay matrix columns.
func AllProfiles() []string {
	names := rnic.ModelNames()
	sort.Strings(names)
	return names
}

// withProfile retargets both hosts at one NIC model.
func withProfile(cfg config.Test, profile string) config.Test {
	out := cfg
	out.Requester.NIC.Type = profile
	out.Responder.NIC.Type = profile
	return out
}

// Add admits cfg into the corpus at dir, recording golden behaviour for
// every requested profile. It returns the entry and whether it was
// newly created: an entry whose content address already exists is a
// duplicate and is returned as-is without re-running anything.
func Add(dir string, cfg config.Test, meta Meta, opts RunOptions) (*Entry, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, fmt.Errorf("corpus: %w", err)
	}
	opts.fill()
	id, err := ID(cfg)
	if err != nil {
		return nil, false, err
	}
	entryDir := filepath.Join(dir, id)
	if existing, err := loadEntry(entryDir); err == nil {
		return existing, false, nil
	}

	name := meta.Name
	if name == "" {
		name = cfg.Name
	}
	exp := Expected{
		Schema:     Schema,
		ID:         id,
		Name:       name,
		Target:     meta.Target,
		Score:      meta.Score,
		DeadlineNs: int64(opts.Deadline),
		Profiles:   map[string]ProfileExpectation{},
	}
	reps, err := runProfiles(cfg, opts)
	if err != nil {
		return nil, false, fmt.Errorf("corpus: recording goldens for %s: %w", id, err)
	}
	for i, p := range opts.Profiles {
		pe, err := reps[i].Outcome()
		if err != nil {
			return nil, false, fmt.Errorf("corpus: digesting %s under %s: %w", id, p, err)
		}
		exp.Profiles[p] = pe
	}

	yml, err := cfg.MarshalYAML()
	if err != nil {
		return nil, false, fmt.Errorf("corpus: %w", err)
	}
	js, err := json.MarshalIndent(&exp, "", "  ")
	if err != nil {
		return nil, false, err
	}
	js = append(js, '\n')
	if err := os.MkdirAll(entryDir, 0o755); err != nil {
		return nil, false, err
	}
	if err := os.WriteFile(filepath.Join(entryDir, "scenario.yaml"), yml, 0o644); err != nil {
		return nil, false, err
	}
	if err := os.WriteFile(filepath.Join(entryDir, "expected.json"), js, 0o644); err != nil {
		return nil, false, err
	}
	return &Entry{ID: id, Config: cfg, Expected: exp}, true, nil
}

// loadEntry reads one entry directory.
func loadEntry(entryDir string) (*Entry, error) {
	cfg, err := config.Load(filepath.Join(entryDir, "scenario.yaml"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", entryDir, err)
	}
	data, err := os.ReadFile(filepath.Join(entryDir, "expected.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", entryDir, err)
	}
	var exp Expected
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("corpus: %s: expected.json: %w", entryDir, err)
	}
	if exp.Schema != Schema {
		return nil, fmt.Errorf("corpus: %s: unsupported schema %q (want %q)", entryDir, exp.Schema, Schema)
	}
	return &Entry{ID: filepath.Base(entryDir), Config: cfg, Expected: exp}, nil
}

// List loads every entry under dir, sorted by ID. Unreadable entries
// abort with an error naming the entry; use Replay for a tolerant walk
// that reports per-entry errors instead.
func List(dir string) ([]Entry, error) {
	ids, err := entryIDs(dir)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(ids))
	for _, id := range ids {
		e, err := loadEntry(filepath.Join(dir, id))
		if err != nil {
			return nil, err
		}
		entries = append(entries, *e)
	}
	return entries, nil
}

// entryIDs returns the entry directory names under dir, sorted.
func entryIDs(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var ids []string
	for _, de := range des {
		if de.IsDir() {
			ids = append(ids, de.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
