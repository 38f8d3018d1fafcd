package corpus

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/version"
)

// Status classifies one (entry, profile) replay cell.
type Status int

const (
	// Pass: verdicts and summary digest match the recorded goldens.
	Pass Status = iota
	// VerdictDrift: at least one analyzer verdict flipped — the
	// behaviour the entry guards regressed (or was fixed; either way the
	// golden must be consciously re-recorded).
	VerdictDrift
	// DigestDrift: verdicts match but the summary.json digest does not —
	// quantitative behaviour (latencies, chain structure, counts)
	// changed, or the entry's files were tampered with.
	DigestDrift
	// Error: the entry could not be replayed at all (unreadable files,
	// failing run, no golden for the profile).
	Error
)

func (s Status) String() string {
	switch s {
	case Pass:
		return "pass"
	case VerdictDrift:
		return "verdict-drift"
	case DigestDrift:
		return "digest-drift"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Cell is one (entry, profile) conformance result.
type Cell struct {
	EntryID string `json:"entry"`
	Profile string `json:"profile"`
	Status  Status `json:"-"`
	// StatusName is Status rendered for JSON consumers.
	StatusName string `json:"status"`
	Detail     string `json:"detail,omitempty"`
}

// Row is one entry's replay across every profile.
type Row struct {
	EntryID string `json:"entry"`
	Name    string `json:"name"`
	Cells   []Cell `json:"cells"` // one per Matrix.Profiles, same order
}

// Matrix is the (entry × profile) conformance matrix Replay produces.
// Rows are sorted by entry ID and cells follow the requested profile
// order, so the rendered matrix is byte-identical at any worker count.
type Matrix struct {
	Profiles []string `json:"profiles"`
	Rows     []Row    `json:"rows"`

	// Coverage maps NIC profile → the behavioral coverage merged across
	// every replayed entry (the corpus frontier for that profile); nil
	// unless ReplayOptions.Coverage was set. Merging sums pair counts,
	// which is order-independent, so the frontier is byte-identical at
	// any worker count.
	Coverage map[string]*coverage.Report `json:"coverage,omitempty"`
}

// OK reports whether every cell passed.
func (m *Matrix) OK() bool { return m.Drift() == 0 }

// Drift counts non-pass cells.
func (m *Matrix) Drift() int {
	n := 0
	for _, r := range m.Rows {
		for _, c := range r.Cells {
			if c.Status != Pass {
				n++
			}
		}
	}
	return n
}

// Render writes the matrix as a fixed-width table, one row per entry,
// one column per profile, followed by a drift summary and the detail of
// every non-pass cell.
func (m *Matrix) Render(w io.Writer) error {
	nameW, colW := len("entry"), 4
	for _, r := range m.Rows {
		if n := len(r.EntryID) + 2 + len(r.Name); n > nameW {
			nameW = n
		}
		for _, c := range r.Cells {
			if len(c.Status.String()) > colW {
				colW = len(c.Status.String())
			}
		}
	}
	for _, p := range m.Profiles {
		if len(p) > colW {
			colW = len(p)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameW, "entry")
	for _, p := range m.Profiles {
		fmt.Fprintf(&b, "  %-*s", colW, p)
	}
	b.WriteByte('\n')
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-*s", nameW, r.EntryID+"  "+r.Name)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "  %-*s", colW, c.Status.String())
		}
		b.WriteByte('\n')
	}
	total := len(m.Rows) * len(m.Profiles)
	fmt.Fprintf(&b, "%d cell(s): %d pass, %d drift\n", total, total-m.Drift(), m.Drift())
	for _, r := range m.Rows {
		for _, c := range r.Cells {
			if c.Status != Pass {
				fmt.Fprintf(&b, "  %s [%s] %s: %s\n", c.EntryID, c.Profile, c.Status, c.Detail)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ReplayOptions tune a corpus replay.
type ReplayOptions struct {
	// Profiles are the matrix columns (default: every built-in model,
	// sorted).
	Profiles []string
	// Transports, when non-empty, restricts the matrix rows to entries
	// whose effective transport set (config.Traffic.Transports) contains
	// at least one of the named transports — the -transport axis of the
	// CI transport matrix. Empty replays every entry.
	Transports []string
	// Workers is the engine pool size (0 = one per CPU, 1 = serial).
	// The matrix is byte-identical for every value.
	Workers int
	// Hub, when non-nil, receives one corpus.replay probe per cell in
	// row-major order.
	Hub *telemetry.Hub
	// INT enables in-band telemetry on every replayed cell. INT is
	// observe-only, so cells still judge against the INT-agnostic
	// goldens — an INT-enabled replay that drifts has caught the INT
	// machinery perturbing the simulation.
	INT bool
	// Coverage enables behavioral coverage on every replayed cell and
	// aggregates the per-profile frontier into Matrix.Coverage. Like
	// INT it is observe-only: cells still judge against the
	// coverage-agnostic goldens, so a coverage-enabled replay that
	// drifts has caught the coverage machinery perturbing the
	// simulation.
	Coverage bool
	// ArtifactsDir, when non-empty, writes each runnable cell's dumped
	// artifacts (dumpedArtifacts: summary.json, plus int.json with INT
	// and coverage.json with Coverage) under
	// ArtifactsDir/<entry>/<profile>/ — the raw material for diffing two
	// replays (e.g. different worker counts) byte-for-byte in CI.
	ArtifactsDir string
	// Cache, when non-nil, is consulted before simulating each cell and
	// populated after: a cell whose (entry, profile, options, code
	// version) tuple is cached is judged — and its artifacts dumped —
	// from the stored bytes without running anything, so a warm replay
	// of an unchanged corpus on an unchanged build executes zero
	// simulations. Cache writes are best-effort; a full disk never
	// fails a replay.
	Cache *resultcache.Cache
}

// Replay re-runs every corpus entry under every requested profile and
// reports the conformance matrix. Per-entry problems (tampered or
// unreadable files, failing runs, missing goldens) become error or
// drift cells, never panics, so one rotten entry cannot hide the rest
// of the matrix.
func Replay(ctx context.Context, dir string, opts ReplayOptions) (*Matrix, error) {
	if len(opts.Profiles) == 0 {
		opts.Profiles = AllProfiles()
	}
	ids, err := entryIDs(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("corpus: no entries under %s", dir)
	}
	if len(opts.Transports) > 0 {
		ids, err = filterByTransport(dir, ids, opts.Transports)
		if err != nil {
			return nil, err
		}
	}
	m := &Matrix{Profiles: opts.Profiles}

	// Load and integrity-check every entry first. A scenario whose
	// recomputed content address no longer matches its directory name
	// was modified on disk: report digest drift without running it.
	type rowState struct {
		entry *Entry
		skip  Status // Pass = replay normally
		why   string
	}
	states := make([]rowState, len(ids))
	for i, id := range ids {
		e, err := loadEntry(entryDir(dir, id))
		if err != nil {
			states[i] = rowState{skip: Error, why: err.Error()}
			continue
		}
		got, err := ID(e.Config)
		if err != nil {
			states[i] = rowState{entry: e, skip: Error, why: err.Error()}
			continue
		}
		if got != id {
			states[i] = rowState{entry: e, skip: DigestDrift,
				why: fmt.Sprintf("scenario.yaml content hash %s does not match entry id %s (file modified?)", got, id)}
			continue
		}
		states[i] = rowState{entry: e}
	}

	// Fan every runnable (entry, profile) cell out over the engine in
	// row-major submission order. Cells whose cache key hits never become
	// jobs: the entry ID is the scenario content hash (verified above), so
	// the key names exactly the run the cell would perform. Either way a
	// cell ends as one cellOutput, and settle is the only place one is
	// judged, dumped and merged into the frontier.
	type cellRef struct{ row, col int }
	var jobs []engine.Job
	var refs []cellRef
	var keys []resultcache.Key
	cells := make(map[cellRef]Cell)
	if opts.Coverage {
		m.Coverage = map[string]*coverage.Report{}
	}
	settle := func(ref cellRef, out cellOutput) {
		e, p := states[ref.row].entry, opts.Profiles[ref.col]
		c := judge(e, p, out)
		if out.err == nil {
			if opts.ArtifactsDir != "" {
				if err := dumpArtifacts(filepath.Join(opts.ArtifactsDir, e.ID, p), out.arts); err != nil && c.Status == Pass {
					c.Status, c.Detail = Error, err.Error()
				}
			}
			if m.Coverage != nil {
				m.Coverage[p] = coverage.MergeReports(m.Coverage[p], out.coverage)
			}
		}
		cells[ref] = c
	}
	stamp := version.Stamp()
	for i, st := range states {
		if st.skip != Pass {
			continue
		}
		e := st.entry
		for j, p := range opts.Profiles {
			cellOpts := orchestrator.Options{Deadline: e.deadline(), Lineage: true, INT: opts.INT, Coverage: opts.Coverage}
			ref := cellRef{i, j}
			var key resultcache.Key
			if opts.Cache != nil {
				key = resultcache.Key{Scenario: e.ID, Profile: p, Options: cellOpts.Fingerprint(), Version: stamp}
				if arts, ok := opts.Cache.Get(key); ok {
					if out, usable := cachedOutput(arts, opts.Coverage); usable {
						settle(ref, out)
						continue
					}
				}
			}
			jobs = append(jobs, engine.Job{
				Label: fmt.Sprintf("%s@%s", e.ID, p),
				Cfg:   withProfile(e.Config, p),
				Opts:  cellOpts,
			})
			refs = append(refs, ref)
			keys = append(keys, key)
		}
	}
	results := engine.Run(ctx, jobs, engine.Options{Workers: opts.Workers})
	for k := range results {
		settle(refs[k], simulatedOutput(&results[k], opts, keys[k]))
	}

	// Assemble rows in ID order.
	for i, id := range ids {
		st := states[i]
		row := Row{EntryID: id}
		if st.entry != nil {
			row.Name = st.entry.Expected.Name
		}
		for j, p := range opts.Profiles {
			var c Cell
			if st.skip != Pass {
				c = Cell{EntryID: id, Profile: p, Status: st.skip, Detail: st.why}
			} else {
				c = cells[cellRef{i, j}]
			}
			c.StatusName = c.Status.String()
			opts.Hub.EmitArgs(telemetry.KindCorpusCell, "corpus", id,
				telemetry.S("profile", p),
				telemetry.S("status", c.StatusName),
				telemetry.S("detail", c.Detail))
			row.Cells = append(row.Cells, c)
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}

func entryDir(dir, id string) string { return filepath.Join(dir, id) }

// filterByTransport keeps the entries whose effective transport set
// intersects want. Unreadable entries are kept — Replay will surface
// them as error rows instead of silently hiding them from every
// filtered matrix.
func filterByTransport(dir string, ids, want []string) ([]string, error) {
	wanted := map[string]bool{}
	for _, t := range want {
		if _, err := rnic.ParseTransport(t); err != nil {
			return nil, err
		}
		wanted[strings.ToLower(t)] = true
	}
	var out []string
	for _, id := range ids {
		e, err := loadEntry(entryDir(dir, id))
		if err != nil {
			out = append(out, id)
			continue
		}
		for _, t := range e.Config.Traffic.Transports() {
			if wanted[t] {
				out = append(out, id)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus: no entries under %s use transport(s) %s",
			dir, strings.Join(want, ","))
	}
	return out, nil
}

// cellOutput is what one replay cell produced, in the one form Replay
// judges, dumps and merges — whether the cell was simulated or served
// from the cache.
type cellOutput struct {
	err error // the run failed; nothing else is set
	orchestrator.Outcome
	// coverage is the cell's behavioral coverage; nil unless the replay
	// asked for it.
	coverage *coverage.Report
	// arts holds rendered artifact bytes by name: the full cached set
	// when a cache is in play, the dumped subset when only ArtifactsDir
	// is, nil otherwise.
	arts map[string][]byte
}

// dumpedArtifacts are the table entries ArtifactsDir receives per cell:
// the byte-deterministic, diffable ones. Two dump trees from different
// worker counts or cache states must be identical — CI
// diffs them.
var dumpedArtifacts = []string{orchestrator.SummaryName, orchestrator.INTName, orchestrator.CoverageName}

// cachedOutput reads a cell's product out of its cached artifact set.
// usable=false sends the cell to the engine instead — the cached entry
// predates the current result schema or is missing an artifact the
// replay needs, so it will be re-run and re-put.
func cachedOutput(arts map[string][]byte, wantCoverage bool) (out cellOutput, usable bool) {
	res, err := resultcache.ParseResult(arts[resultcache.ResultName])
	if err != nil {
		return cellOutput{}, false
	}
	out = cellOutput{Outcome: res.Outcome, arts: arts}
	if wantCoverage {
		if out.coverage, err = coverage.ReadReport(arts[orchestrator.CoverageName]); err != nil {
			return cellOutput{}, false
		}
	}
	return out, true
}

// simulatedOutput condenses a finished engine job. With a cache, one
// resultcache.Render serves the digest, the dump and the Put; without
// one, only the canonical summary is rendered (for the digest) plus,
// under ArtifactsDir, the dumped entries of the report's artifact table.
func simulatedOutput(res *engine.JobResult, opts ReplayOptions, key resultcache.Key) cellOutput {
	if res.Err != nil {
		return cellOutput{err: res.Err}
	}
	out := cellOutput{coverage: res.Report.Coverage}
	if opts.Cache != nil {
		arts, err := resultcache.Render(res.Report)
		if err != nil {
			return cellOutput{err: err}
		}
		parsed, err := resultcache.ParseResult(arts[resultcache.ResultName])
		if err != nil {
			return cellOutput{err: err}
		}
		// Best-effort: a cache that cannot be written (full disk,
		// permissions) degrades to cold replays, it never fails one.
		_ = opts.Cache.Put(key, arts)
		out.Outcome, out.arts = parsed.Outcome, arts
		return out
	}
	var err error
	if out.Outcome, err = res.Report.Outcome(); err != nil {
		return cellOutput{err: err}
	}
	if opts.ArtifactsDir != "" {
		out.arts = map[string][]byte{}
		for _, a := range res.Report.Artifacts() {
			if !slices.Contains(dumpedArtifacts, a.Name) {
				continue
			}
			if out.arts[a.Name], err = a.Bytes(); err != nil {
				return cellOutput{err: err}
			}
		}
	}
	return out
}

// dumpArtifacts writes the dumped subset of arts into cellDir.
func dumpArtifacts(cellDir string, arts map[string][]byte) error {
	if err := os.MkdirAll(cellDir, 0o755); err != nil {
		return err
	}
	for _, name := range dumpedArtifacts {
		data, ok := arts[name]
		if !ok {
			continue
		}
		if err := os.WriteFile(filepath.Join(cellDir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// judge compares one cell's outcome against its golden expectation.
func judge(e *Entry, profile string, got cellOutput) Cell {
	c := Cell{EntryID: e.ID, Profile: profile}
	golden, ok := e.Expected.Profiles[profile]
	if !ok {
		c.Status, c.Detail = Error, fmt.Sprintf("no golden recorded for profile %s", profile)
		return c
	}
	if got.err != nil {
		c.Status, c.Detail = Error, got.err.Error()
		return c
	}
	if diff := verdictDiff(golden, got.Outcome); diff != "" {
		c.Status, c.Detail = VerdictDrift, diff
		return c
	}
	if got.SummarySHA256 != golden.SummarySHA256 {
		c.Status = DigestDrift
		c.Detail = fmt.Sprintf("summary digest %s, golden %s",
			got.SummarySHA256[:12], golden.SummarySHA256[:12])
		return c
	}
	c.Status = Pass
	return c
}

// verdictDiff describes the first verdict disagreement, or "" if the
// verdict sets (and timeout flags) match.
func verdictDiff(golden, got ProfileExpectation) string {
	if golden.TimedOut != got.TimedOut {
		return fmt.Sprintf("timed_out %t, golden %t", got.TimedOut, golden.TimedOut)
	}
	names := make([]string, 0, len(golden.Verdicts)+len(got.Verdicts))
	for n := range golden.Verdicts {
		names = append(names, n)
	}
	for n := range got.Verdicts {
		if _, ok := golden.Verdicts[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, gok := golden.Verdicts[n]
		r, rok := got.Verdicts[n]
		switch {
		case !gok:
			return fmt.Sprintf("verdict %s appeared (pass=%t), absent from golden", n, r)
		case !rok:
			return fmt.Sprintf("verdict %s missing, golden pass=%t", n, g)
		case g != r:
			return fmt.Sprintf("verdict %s pass=%t, golden pass=%t", n, r, g)
		}
	}
	return ""
}

// runProfiles executes cfg once per requested profile (used by Add to
// record goldens), returning reports in profile order or the first
// failure.
func runProfiles(cfg config.Test, opts RunOptions) ([]*orchestrator.Report, error) {
	cfgs := make([]config.Test, len(opts.Profiles))
	for i, p := range opts.Profiles {
		cfgs[i] = withProfile(cfg, p)
	}
	return engine.RunConfigs(context.Background(), cfgs,
		orchestrator.Options{Deadline: opts.Deadline, Lineage: true},
		engine.Options{Workers: opts.Workers})
}
