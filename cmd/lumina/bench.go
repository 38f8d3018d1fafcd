package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/experiments"
	"github.com/lumina-sim/lumina/internal/perfgate"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// experiment regenerates one of the paper's tables or figures.
type experiment struct {
	name string
	run  func() ([]*experiments.Table, error)
}

// bindBench regenerates the paper's tables and figures (see DESIGN.md's
// per-experiment index) and prints the measured rows; -gate then runs
// the allocation perf gate.
func bindBench(fs *flag.FlagSet) func([]string) error {
	runSel := fs.String("run", "all", "comma-separated `experiments` to run (fig7|fig8|fig9|fig10|fig11|table2|interop|cnp-interval|cnp-scope|adaptive|dumper-lb|overhead|ablation|cache), or 'all'")
	msgs := fs.Int("msgs", 1000, "Figure 7: messages per size/variant")
	lbRuns := fs.Int("lb-runs", 10, "dumper load-balancing: seeds per design")
	workers := workersFlag(fs)
	format := fs.String("format", "table", "output `format`: table | csv")
	jsonOut := fs.Bool("json", false, "also write BENCH_<name>.json per experiment (measured rows + wall time + seed + workers)")
	jsonDir := fs.String("json-dir", ".", "`dir` for -json output files")
	gate := fs.Bool("gate", false, "after experiments, measure the perfgate workloads and fail on any busted allocation budget")
	corpusDir := corpusFlag(fs, "corpus")
	return func([]string) error {
		experiments.SetWorkers(*workers)
		effWorkers := *workers
		if effWorkers <= 0 {
			effWorkers = runtime.NumCPU()
		}
		render := func(t *experiments.Table) string { return t.Render() }
		if *format == "csv" {
			render = func(t *experiments.Table) string { return t.RenderCSV() }
		}
		selected := map[string]bool{}
		for _, s := range strings.Split(*runSel, ",") {
			selected[strings.TrimSpace(s)] = true
		}
		want := func(name string) bool { return selected["all"] || selected[name] }

		exps := []experiment{
			{"fig7", tables(func() ([]experiments.Figure7Point, error) { return experiments.Figure7(*msgs) }, experiments.Figure7Table)},
			{"fig8", tables(fig8and9, experiments.Figure8Table, experiments.Figure9Table)},
			{"fig9", func() ([]*experiments.Table, error) {
				if want("fig8") && (selected["all"] || len(selected) > 1) {
					return nil, nil // already printed with fig8
				}
				return tables(fig8and9, experiments.Figure9Table)()
			}},
			{"fig10", tables(func() ([]experiments.Figure10Point, error) {
				cx6, err := experiments.Figure10(rnic.ModelCX6)
				if err != nil {
					return nil, err
				}
				spec, err := experiments.Figure10(rnic.ModelSpec)
				return append(cx6, spec...), err
			}, experiments.Figure10Table)},
			{"fig11", tables(func() ([]experiments.Figure11Point, error) { return experiments.Figure11(rnic.ModelCX4, nil) }, experiments.Figure11Table)},
			{"interop", tables(func() ([]experiments.InteropPoint, error) {
				pts, err := experiments.Interop(nil, false)
				if err != nil {
					return nil, err
				}
				fixed, err := experiments.Interop([]int{16}, true)
				return append(pts, fixed...), err
			}, experiments.InteropTable)},
			{"cnp-interval", tables(func() ([]experiments.CNPIntervalPoint, error) { return experiments.CNPIntervals(nil) }, experiments.CNPIntervalTable)},
			{"cnp-scope", tables(func() ([]experiments.CNPScopePoint, error) { return experiments.CNPScopes(nil) }, experiments.CNPScopeTable)},
			{"adaptive", tables(func() ([]experiments.AdaptiveRetransPoint, error) {
				on, err := experiments.AdaptiveRetrans(rnic.ModelCX6, true, 7)
				if err != nil {
					return nil, err
				}
				off, err := experiments.AdaptiveRetrans(rnic.ModelCX6, false, 3)
				return append(on, off...), err
			}, experiments.AdaptiveRetransTable)},
			{"dumper-lb", tables(func() ([]experiments.DumperLBPoint, error) { return experiments.DumperLB(*lbRuns) }, experiments.DumperLBTable)},
			{"overhead", tables(experiments.SwitchOverhead, func(p experiments.SwitchOverheadPoint) *experiments.Table {
				return &experiments.Table{
					Title:   "Switch pipeline overhead (paper reports <0.4µs one-way)",
					Columns: []string{"one_way_extra_us", "configured_ns"},
					Rows: [][]string{{
						fmt.Sprintf("%.3f", float64(p.OneWayExtra)/1000),
						fmt.Sprintf("%d", p.PipelineNs),
					}},
				}
			})},
			{"table2", tables(experiments.Table2, func(t *experiments.Table) *experiments.Table { return t })},
			{"ablation", tables(experiments.AblationAll, experiments.AblationTable)},
			{"cache", func() ([]*experiments.Table, error) { return cacheExperiment(*corpusDir, *workers) }},
		}

		ran := 0
		for _, ex := range exps {
			if !want(ex.name) {
				continue
			}
			ran++
			start := time.Now()
			fmt.Printf("=== %s ===\n", ex.name)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tables, err := ex.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("experiment %q failed: %w", ex.name, err)
			}
			for i, t := range tables {
				if i > 0 {
					fmt.Println()
				}
				fmt.Print(render(t))
			}
			wall := time.Since(start)
			fmt.Printf("(%s took %v)\n\n", ex.name, wall.Round(time.Millisecond))
			if *jsonOut && len(tables) > 0 {
				alloc := allocProfile{
					AllocsPerOp: after.Mallocs - before.Mallocs,
					BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
				}
				if err := writeBenchJSON(*jsonDir, ex.name, tables, wall, effWorkers, alloc); err != nil {
					return err
				}
			}
		}
		if ran == 0 && !*gate {
			return usagef("no experiment matches %q", *runSel)
		}
		if *gate {
			return runGate(*jsonOut, *jsonDir)
		}
		return nil
	}
}

// tables is the experiment that measures once and renders the result
// as one table per render function.
func tables[P any](measure func() (P, error), render ...func(P) *experiments.Table) func() ([]*experiments.Table, error) {
	return func() ([]*experiments.Table, error) {
		p, err := measure()
		if err != nil {
			return nil, err
		}
		out := make([]*experiments.Table, len(render))
		for i, r := range render {
			out[i] = r(p)
		}
		return out, nil
	}
}

// fig8and9 measures the points Figures 8 and 9 share.
func fig8and9() ([]experiments.RetransPoint, error) { return experiments.Figures8And9(nil, nil) }

// cacheExperiment measures what the result cache buys a corpus replay:
// the same full matrix replayed twice against a fresh cache — cold
// (every cell simulates and populates the cache) then warm (every cell
// answers from disk, zero simulations). The hits/misses/pass columns
// are deterministic; the wall columns are machine-dependent and
// excluded from any byte-stability expectations.
func cacheExperiment(corpusDir string, workers int) ([]*experiments.Table, error) {
	dir, err := os.MkdirTemp("", "lumina-cache-experiment-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	replay := func() (time.Duration, *corpus.Matrix, error) {
		start := time.Now()
		m, err := corpus.Replay(context.Background(), corpusDir,
			corpus.ReplayOptions{Workers: workers, Cache: cache})
		return time.Since(start), m, err
	}
	row := func(phase string, wall time.Duration, m *corpus.Matrix, prev resultcache.Stats) []string {
		st := cache.Stats()
		cells := len(m.Rows) * len(m.Profiles)
		return []string{
			phase,
			fmt.Sprintf("%.1f", float64(wall.Microseconds())/1000),
			fmt.Sprintf("%d", cells),
			fmt.Sprintf("%d", cells-m.Drift()),
			fmt.Sprintf("%d", st.Hits-prev.Hits),
			fmt.Sprintf("%d", st.Misses-prev.Misses),
			fmt.Sprintf("%d", st.Puts-prev.Puts),
		}
	}
	var st resultcache.Stats
	coldWall, coldM, err := replay()
	if err != nil {
		return nil, err
	}
	coldRow := row("cold", coldWall, coldM, st)
	st = cache.Stats()
	warmWall, warmM, err := replay()
	if err != nil {
		return nil, err
	}
	warmRow := row("warm", warmWall, warmM, st)
	fmt.Printf("cache: warm replay speedup %.1fx (%v -> %v)\n",
		float64(coldWall)/float64(warmWall), coldWall.Round(time.Millisecond), warmWall.Round(time.Millisecond))
	return []*experiments.Table{{
		Title:   "Result cache: corpus replay, cold vs warm (wall_ms is machine-dependent)",
		Columns: []string{"phase", "wall_ms", "cells", "pass", "hits", "misses", "sims"},
		Rows:    [][]string{coldRow, warmRow},
	}}, nil
}

// runGate measures every perfgate workload against the checked-in
// budgets (internal/perfgate/perf_budgets.json) and fails naming each
// offender. Allocation counts are deterministic, so a failure here
// reproduces identically on any machine. With -json the per-workload
// measurements and any violations are also written to
// BENCH_perfgate.json (before failing, so a busted budget still leaves
// the evidence on disk).
func runGate(jsonOut bool, jsonDir string) error {
	fmt.Println("=== perf-gate ===")
	results, violations, err := perfgate.Gate()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-22s %10.2f allocs/op %14.1f bytes/op\n", r.Name, r.AllocsPerOp, r.BytesPerOp)
	}
	if jsonOut {
		out := struct {
			Name       string               `json:"name"`
			Pass       bool                 `json:"pass"`
			Results    []perfgate.Result    `json:"results"`
			Violations []perfgate.Violation `json:"violations,omitempty"`
		}{Name: "perfgate", Pass: len(violations) == 0, Results: results, Violations: violations}
		if err := writeJSON(filepath.Join(jsonDir, "BENCH_perfgate.json"), out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(jsonDir, "BENCH_perfgate.json"))
	}
	if len(violations) > 0 {
		return fmt.Errorf("perf budget violated: %v", violations)
	}
	fmt.Printf("perf-gate: %d budgets OK\n", len(results))
	return nil
}

// benchTable is the serialized form of one result table.
type benchTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// allocProfile is the heap cost of one experiment run: total heap
// allocations and allocated bytes between section start and finish (the
// "op" is the whole experiment). Unlike wall_ms these are deterministic
// per worker count, so diffs between trajectory snapshots are signal.
type allocProfile struct {
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// benchResult is the BENCH_<name>.json schema: the measured rows plus
// the provenance a trajectory tracker needs (wall time, seed, worker
// count, heap cost). Only wall_ms, workers, and the allocation profile
// may differ between runs; the tables are byte-identical for every
// worker count.
type benchResult struct {
	Name    string  `json:"name"`
	Seed    int64   `json:"seed"`
	WallMs  float64 `json:"wall_ms"`
	Workers int     `json:"workers"`
	allocProfile
	Tables []benchTable `json:"tables"`
}

func writeBenchJSON(dir, name string, tables []*experiments.Table, wall time.Duration, workers int, alloc allocProfile) error {
	out := benchResult{
		Name: name,
		// Experiments derive every run from config.Default; its seed is
		// the one knob that would change the measured rows.
		Seed:         config.Default().Seed,
		WallMs:       float64(wall.Microseconds()) / 1000,
		Workers:      workers,
		allocProfile: alloc,
	}
	for _, t := range tables {
		out.Tables = append(out.Tables, benchTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
