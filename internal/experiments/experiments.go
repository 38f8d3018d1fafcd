// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 Figure 7; §6.1 Figures 8–9; §6.2 Figures 10–11 and the
// interoperability/counter findings; §6.3 hidden behaviours; Table 2).
// Each experiment builds test configurations, drives the orchestrator,
// runs the relevant analyzers, and returns printable rows. Paper lists
// them at the paper's parameters: `lumina bench` prints it,
// BenchmarkExperiments times it and testdata/experiments.golden.csv pins
// every row it renders.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// RenderCSV formats the table as CSV (header + rows), for plotting
// pipelines.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// workerCount is the package-level engine parallelism: 0 (default)
// means one worker per CPU, 1 forces the serial path. Because every
// run is an independent deterministic simulation, the measured rows
// are byte-identical for every worker count — see runAll.
var workerCount atomic.Int32

// SetWorkers sets the engine worker-pool size used by every experiment
// in this package (0 = all CPUs, 1 = serial).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int32(n))
}

// Workers reports the configured engine worker-pool size.
func Workers() int { return int(workerCount.Load()) }

// runAll executes a declarative job matrix — the configurations of one
// experiment, in its natural sweep order — on the shared run engine
// and returns the reports in submission order. Each configuration is
// an independent deterministic simulation, so fanning the matrix out
// over the worker pool cannot change any measured row; the first
// failure aborts the experiment with the offending job named.
func runAll(name string, cfgs []config.Test) ([]*orchestrator.Report, error) {
	reps, err := engine.RunConfigs(context.Background(), cfgs,
		orchestrator.DefaultOptions(),
		engine.Options{Workers: Workers()})
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", name, err)
	}
	return reps, nil
}

// run executes a single configuration on the engine (panic-isolated,
// same deadline as runAll) and returns orchestration errors instead of
// panicking, so every figure/table function can thread them up.
func run(cfg config.Test) (*orchestrator.Report, error) {
	reps, err := runAll(cfg.Name, []config.Test{cfg})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

func us(d sim.Duration) string { return fmt.Sprintf("%.2f", d.Microseconds()) }

func msStr(d sim.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(sim.Millisecond))
}

func gbps(v float64) string { return fmt.Sprintf("%.1f", v) }
