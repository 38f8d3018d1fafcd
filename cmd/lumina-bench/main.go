// Command lumina-bench regenerates the paper's tables and figures
// (see DESIGN.md's per-experiment index) and prints the measured rows.
//
// Usage:
//
//	lumina-bench                  # run everything
//	lumina-bench -run fig8        # one experiment: fig7|fig8|fig9|fig10|
//	                              # fig11|table2|interop|cnp-interval|
//	                              # cnp-scope|adaptive|dumper-lb|overhead|
//	                              # ablation|cache
//	lumina-bench -msgs 200        # Figure 7 message count (default 1000)
//	lumina-bench -workers 4       # engine worker-pool size; the measured
//	                              # rows are identical for every value
//	lumina-bench -run fig8 -json  # also write BENCH_fig8.json
//	lumina-bench -gate            # after experiments, run the perf gate:
//	                              # exit non-zero naming any workload over
//	                              # its checked-in allocation budget
//	lumina-bench -gate -json      # also write BENCH_perfgate.json with the
//	                              # per-workload measurements + violations
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
	"github.com/lumina-sim/lumina/internal/version"
)

func main() {
	runSel := flag.String("run", "all", "experiment to run (comma separated), or 'all'")
	msgs := flag.Int("msgs", 1000, "Figure 7: messages per size/variant")
	lbRuns := flag.Int("lb-runs", 10, "dumper load-balancing: seeds per design")
	workers := flag.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial (rows are byte-identical for every value)")
	format := flag.String("format", "table", "output format: table | csv")
	jsonOut := flag.Bool("json", false, "also write BENCH_<name>.json per experiment (measured rows + wall time + seed + workers)")
	jsonDir := flag.String("json-dir", ".", "directory for -json output files")
	gate := flag.Bool("gate", false, "after experiments, measure the perfgate workloads and exit non-zero on any busted allocation budget")
	corpusDir := flag.String("corpus", "corpus", "corpus directory replayed by the cache experiment")
	showVersion := flag.Bool("version", false, "print the build stamp and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("lumina-bench", version.String())
		return
	}

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
	ran := 0
	section := func(name string, fn func() ([]*experiments.Table, error)) {
		if !want(name) {
			return
		}
		ran++
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tables, err := fn()
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lumina-bench: experiment %q failed: %v\n", name, err)
			os.Exit(1)
		}
		for i, t := range tables {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(render(t))
		}
		wall := time.Since(start)
		fmt.Printf("(%s took %v)\n\n", name, wall.Round(time.Millisecond))
		if *jsonOut && len(tables) > 0 {
			alloc := allocProfile{
				AllocsPerOp: after.Mallocs - before.Mallocs,
				BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
			}
			writeBenchJSON(*jsonDir, name, tables, wall, effWorkers, alloc)
		}
	}

	section("fig7", func() ([]*experiments.Table, error) {
		pts, err := experiments.Figure7(*msgs)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.Figure7Table(pts)}, nil
	})
	section("fig8", func() ([]*experiments.Table, error) {
		pts, err := experiments.Figures8And9(nil, nil)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.Figure8Table(pts), experiments.Figure9Table(pts)}, nil
	})
	section("fig9", func() ([]*experiments.Table, error) {
		if want("fig8") && (selected["all"] || len(selected) > 1) {
			return nil, nil // already printed with fig8
		}
		pts, err := experiments.Figures8And9(nil, nil)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.Figure9Table(pts)}, nil
	})
	section("fig10", func() ([]*experiments.Table, error) {
		var pts []experiments.Figure10Point
		for _, model := range []string{rnic.ModelCX6, rnic.ModelSpec} {
			mp, err := experiments.Figure10(model)
			if err != nil {
				return nil, err
			}
			pts = append(pts, mp...)
		}
		return []*experiments.Table{experiments.Figure10Table(pts)}, nil
	})
	section("fig11", func() ([]*experiments.Table, error) {
		pts, err := experiments.Figure11(rnic.ModelCX4, nil)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.Figure11Table(pts)}, nil
	})
	section("interop", func() ([]*experiments.Table, error) {
		pts, err := experiments.Interop(nil, false)
		if err != nil {
			return nil, err
		}
		fixed, err := experiments.Interop([]int{16}, true)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.InteropTable(append(pts, fixed...))}, nil
	})
	section("cnp-interval", func() ([]*experiments.Table, error) {
		pts, err := experiments.CNPIntervals(nil)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.CNPIntervalTable(pts)}, nil
	})
	section("cnp-scope", func() ([]*experiments.Table, error) {
		pts, err := experiments.CNPScopes(nil)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.CNPScopeTable(pts)}, nil
	})
	section("adaptive", func() ([]*experiments.Table, error) {
		on, err := experiments.AdaptiveRetrans(rnic.ModelCX6, true, 7)
		if err != nil {
			return nil, err
		}
		off, err := experiments.AdaptiveRetrans(rnic.ModelCX6, false, 3)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.AdaptiveRetransTable(append(on, off...))}, nil
	})
	section("dumper-lb", func() ([]*experiments.Table, error) {
		pts, err := experiments.DumperLB(*lbRuns)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.DumperLBTable(pts)}, nil
	})
	section("overhead", func() ([]*experiments.Table, error) {
		p, err := experiments.SwitchOverhead()
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{{
			Title:   "Switch pipeline overhead (paper reports <0.4µs one-way)",
			Columns: []string{"one_way_extra_us", "configured_ns"},
			Rows: [][]string{{
				fmt.Sprintf("%.3f", float64(p.OneWayExtra)/1000),
				fmt.Sprintf("%d", p.PipelineNs),
			}},
		}}, nil
	})
	section("table2", func() ([]*experiments.Table, error) {
		t, err := experiments.Table2()
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{t}, nil
	})
	section("ablation", func() ([]*experiments.Table, error) {
		pts, err := experiments.AblationAll()
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.AblationTable(pts)}, nil
	})
	section("cache", func() ([]*experiments.Table, error) {
		return cacheExperiment(*corpusDir, *workers)
	})

	if ran == 0 && !*gate {
		fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *runSel)
		os.Exit(2)
	}

	if *gate {
		runGate(*jsonOut, *jsonDir)
	}
}

// cacheExperiment measures what the result cache buys a corpus replay:
// the same full matrix replayed twice against a fresh cache — cold
// (every cell simulates and populates the cache) then warm (every cell
// answers from disk, zero simulations). The hits/misses/pass columns
// are deterministic; the wall columns are machine-dependent and
// excluded from any byte-stability expectations.
func cacheExperiment(corpusDir string, workers int) ([]*experiments.Table, error) {
	dir, err := os.MkdirTemp("", "lumina-bench-cache-")
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
// budgets (internal/perfgate/perf_budgets.json) and exits non-zero
// naming each offender. Allocation counts are deterministic, so a
// failure here reproduces identically on any machine. With -json the
// per-workload measurements and any violations are also written to
// BENCH_perfgate.json (before exiting, so a busted budget still leaves
// the evidence on disk).
func runGate(jsonOut bool, jsonDir string) {
	fmt.Println("=== perf-gate ===")
	results, violations, err := perfgate.Gate()
	if err != nil {
		fatal(err)
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
		js, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(jsonDir, "BENCH_perfgate.json")
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "lumina-bench: perf budget violated: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perf-gate: %d budgets OK\n", len(results))
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

func writeBenchJSON(dir, name string, tables []*experiments.Table, wall time.Duration, workers int, alloc allocProfile) {
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
	js, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lumina-bench:", err)
	os.Exit(1)
}
