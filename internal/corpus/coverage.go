package corpus

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// FrontierSchema versions the frontier.json layout (the per-profile
// coverage union across a whole corpus); bump it when a field changes
// meaning or disappears.
const FrontierSchema = "lumina-coverage-frontier/1"

// FrontierFile is the serialized corpus coverage frontier: for every
// replayed NIC profile, the merged behavioral coverage of all entries.
// JSON object keys marshal sorted, and each profile's report is
// canonical, so the file is byte-identical at any worker count.
type FrontierFile struct {
	Schema   string                      `json:"schema"`
	Profiles map[string]*coverage.Report `json:"profiles"`
}

// Frontier packages the matrix's aggregated coverage as a frontier
// file; nil when the replay ran without coverage.
func (m *Matrix) Frontier() *FrontierFile {
	if m.Coverage == nil {
		return nil
	}
	return &FrontierFile{Schema: FrontierSchema, Profiles: m.Coverage}
}

// Write renders the frontier as indented JSON (the frontier.json
// artifact).
func (f *FrontierFile) Write(w io.Writer) error {
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	_, err = w.Write(js)
	return err
}

// ReadFrontier parses a frontier file, rejecting unknown schemas.
func ReadFrontier(data []byte) (*FrontierFile, error) {
	var f FrontierFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("corpus: frontier: %w", err)
	}
	if f.Schema != FrontierSchema {
		return nil, fmt.Errorf("corpus: frontier: unknown schema %q (want %q)", f.Schema, FrontierSchema)
	}
	return &f, nil
}

// Merged unions every profile's report into one (for diffing a single
// run against the whole-corpus frontier); nil if the file is empty.
func (f *FrontierFile) Merged() *coverage.Report {
	var out *coverage.Report
	names := make([]string, 0, len(f.Profiles))
	for p := range f.Profiles {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		out = coverage.MergeReports(out, f.Profiles[p])
	}
	return out
}

// EntryCoverage is one corpus entry's behavioral coverage under its own
// recorded scenario (native NIC models, no profile retargeting).
type EntryCoverage struct {
	ID      string
	Covered int
	Total   int
}

// CoverageCounts replays every entry once as recorded — native profile,
// golden deadline — with coverage attached, and returns per-entry
// covered-pair counts sorted by count descending, ties broken by entry
// ID (content hash) ascending, so the listing is deterministic.
func CoverageCounts(ctx context.Context, dir string, workers int) ([]EntryCoverage, error) {
	entries, err := List(dir)
	if err != nil {
		return nil, err
	}
	jobs := make([]engine.Job, len(entries))
	for i, e := range entries {
		jobs[i] = engine.Job{
			Label: e.ID,
			Cfg:   e.Config,
			Opts:  orchestrator.Options{Deadline: e.deadline(), Coverage: true},
		}
	}
	results := engine.Run(ctx, jobs, engine.Options{Workers: workers})
	out := make([]EntryCoverage, len(entries))
	for i, e := range entries {
		ec := EntryCoverage{ID: e.ID, Total: coverage.Total()}
		r := &results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("corpus: coverage for %s: %w", e.ID, r.Err)
		}
		if r.Report != nil && r.Report.Coverage != nil {
			ec.Covered = r.Report.Coverage.Covered
		}
		out[i] = ec
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Covered != out[j].Covered {
			return out[i].Covered > out[j].Covered
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
