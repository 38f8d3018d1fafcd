package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/lumina-sim/lumina/internal/experiments"
)

// bindBench regenerates the paper's tables and figures, experiments.Paper
// in its order (see DESIGN.md's per-experiment index), and prints the
// measured rows.
func bindBench(fs *flag.FlagSet) func([]string) error {
	var names []string
	for _, ex := range experiments.Paper {
		names = append(names, ex.Name)
	}
	runSel := fs.String("run", "all", "comma-separated `experiments` to run ("+strings.Join(names, "|")+"), or 'all'")
	workers := workersFlag(fs)
	format := fs.String("format", "table", "output `format`: table | csv")
	return func([]string) error {
		selected := map[string]bool{}
		for _, s := range strings.Split(*runSel, ",") {
			s = strings.TrimSpace(s)
			if s != "all" && !slices.Contains(names, s) {
				return usagef("unknown experiment %q", s)
			}
			selected[s] = true
		}
		render := (*experiments.Table).Render
		if *format == "csv" {
			render = (*experiments.Table).RenderCSV
		}
		experiments.SetWorkers(*workers)
		for _, ex := range experiments.Paper {
			if !selected["all"] && !selected[ex.Name] {
				continue
			}
			start := time.Now()
			fmt.Printf("=== %s ===\n", ex.Name)
			t, err := ex.Run()
			if err != nil {
				return fmt.Errorf("experiment %q failed: %w", ex.Name, err)
			}
			fmt.Print(render(t))
			fmt.Printf("(%s took %v)\n\n", ex.Name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
}
