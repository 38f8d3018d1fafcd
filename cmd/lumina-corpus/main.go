// Command lumina-corpus drives the regression corpus: the on-disk,
// content-addressed store of minimized anomalous scenarios with golden
// verdicts and summary digests (internal/corpus), closing the paper's
// fuzz → minimize → admit → replay loop.
//
// Usage:
//
//	lumina-corpus add     [-corpus dir] [-minimize] [-workers N] cfg.yaml...
//	lumina-corpus minimize [-workers N] [-out file] cfg.yaml
//	lumina-corpus replay  [-corpus dir] [-profiles cx4,cx5,...] [-workers N]
//	                      [-int] [-coverage] [-artifacts dir]
//	                      [-cache dir] [-cache-max-mb N]
//	lumina-corpus coverage [-corpus dir] [-profiles cx4,cx5,...] [-workers N]
//	                      [-out frontier.json]
//	lumina-corpus list    [-corpus dir] [-coverage] [-workers N]
//
// replay exits non-zero if any (entry, profile) cell drifts from its
// golden, making the corpus a CI gate against behavioural regressions.
// coverage replays the corpus with the behavioral coverage map attached
// and reports each profile's frontier — the union of (site, transition)
// pairs the corpus exercises — optionally serialized as frontier.json
// for `lumina-trace coverage` diffing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/minimize"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "add":
		err = cmdAdd(os.Args[2:])
	case "minimize":
		err = cmdMinimize(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "coverage":
		err = cmdCoverage(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println("lumina-corpus", version.String())
		return
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lumina-corpus: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lumina-corpus:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lumina-corpus add      [-corpus dir] [-minimize] [-workers N] cfg.yaml...
  lumina-corpus minimize [-workers N] [-out file] cfg.yaml
  lumina-corpus replay   [-corpus dir] [-profiles cx4,cx5,...] [-transport rc,uc,ud] [-workers N] [-int] [-coverage] [-artifacts dir] [-cache dir] [-cache-max-mb N]
  lumina-corpus coverage [-corpus dir] [-profiles cx4,cx5,...] [-workers N] [-out frontier.json]
  lumina-corpus list     [-corpus dir] [-coverage] [-workers N]`)
}

// parseTransports validates a comma-separated transport list (empty =
// no filter, replay every entry).
func parseTransports(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	var out []string
	for _, t := range strings.Split(csv, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if _, err := rnic.ParseTransport(t); err != nil {
			return nil, err
		}
		out = append(out, strings.ToLower(t))
	}
	return out, nil
}

// parseProfiles validates a comma-separated model list against the
// built-in profile table (empty = all models).
func parseProfiles(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	var out []string
	for _, p := range strings.Split(csv, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if _, err := rnic.ProfileByName(p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func cmdAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	dir := fs.String("corpus", "corpus", "corpus directory")
	doMin := fs.Bool("minimize", false, "delta-debug each scenario to a minimal reproducer before admitting")
	workers := fs.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return errors.New("add: no scenario files given")
	}
	for _, path := range fs.Args() {
		cfg, err := config.Load(path)
		if err != nil {
			return err
		}
		meta := corpus.Meta{Name: cfg.Name, Target: "manual"}
		if *doMin {
			res, err := minimize.Minimize(cfg, minimize.Options{Workers: *workers})
			switch {
			case errors.Is(err, minimize.ErrNoAnomaly):
				fmt.Printf("%s: no anomaly; admitting unminimized\n", path)
			case err != nil:
				return fmt.Errorf("%s: %w", path, err)
			default:
				fmt.Printf("%s: minimized %d→%d events (%d evaluations, anomaly %s)\n",
					path, res.InitialEvents, res.FinalEvents, res.Evaluations, res.Anomaly)
				cfg = res.Config
			}
		}
		entry, added, err := corpus.Add(*dir, cfg, meta, corpus.RunOptions{Workers: *workers})
		if err != nil {
			return err
		}
		if added {
			fmt.Printf("added %s  %s  (%d profiles)\n", entry.ID, entry.Expected.Name, len(entry.Expected.Profiles))
		} else {
			fmt.Printf("duplicate %s  %s (already in corpus)\n", entry.ID, entry.Expected.Name)
		}
	}
	return nil
}

func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ExitOnError)
	workers := fs.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial")
	out := fs.String("out", "", "write the minimized scenario YAML here (default: stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("minimize: exactly one scenario file required")
	}
	cfg, err := config.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := minimize.Minimize(cfg, minimize.Options{Workers: *workers})
	if err != nil {
		return err
	}
	for _, s := range res.Steps {
		kept := " "
		if s.Kept {
			kept = "*"
		}
		fmt.Printf("%s round %2d %-11s %-40s events=%d\n", kept, s.Round, s.Action, s.Detail, s.Events)
	}
	fmt.Printf("minimized %d→%d events in %d evaluations; preserved anomaly: %s\n",
		res.InitialEvents, res.FinalEvents, res.Evaluations, res.Anomaly)
	yml, err := res.Config.MarshalYAML()
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(string(yml))
		return nil
	}
	if err := os.WriteFile(*out, yml, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (replay with: lumina -config %s)\n", *out, *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("corpus", "corpus", "corpus directory")
	profCSV := fs.String("profiles", "", "comma-separated NIC models to replay against (default: all)")
	transCSV := fs.String("transport", "", "comma-separated transports (rc,uc,ud): replay only entries exercising at least one of them (default: all entries)")
	workers := fs.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial (matrix is identical for every value)")
	intFlag := fs.Bool("int", false, "replay with in-band telemetry enabled (observe-only: cells still judge against the INT-agnostic goldens)")
	covFlag := fs.Bool("coverage", false, "replay with behavioral coverage enabled (observe-only, like -int) and report per-profile frontiers")
	artifacts := fs.String("artifacts", "", "write each cell's summary.json (and int.json with -int, coverage.json with -coverage) under this directory for byte-level diffing")
	cacheDir := fs.String("cache", "", "result-cache directory: cells already cached for this build skip simulation; fresh cells are cached for the next replay")
	cacheMaxMB := fs.Int64("cache-max-mb", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
	fs.Parse(args)
	profiles, err := parseProfiles(*profCSV)
	if err != nil {
		return err
	}
	transports, err := parseTransports(*transCSV)
	if err != nil {
		return err
	}
	var cache *resultcache.Cache
	if *cacheDir != "" {
		if cache, err = resultcache.Open(*cacheDir, *cacheMaxMB<<20); err != nil {
			return err
		}
	}
	m, err := corpus.Replay(context.Background(), *dir,
		corpus.ReplayOptions{Profiles: profiles, Transports: transports, Workers: *workers,
			INT: *intFlag, Coverage: *covFlag, ArtifactsDir: *artifacts, Cache: cache})
	if err != nil {
		return err
	}
	if err := m.Render(os.Stdout); err != nil {
		return err
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Printf("cache: %d hit(s), %d miss(es), %d entr%s (%d bytes)\n",
			st.Hits, st.Misses, st.Entries, plural(st.Entries), st.Bytes)
	}
	if m.Coverage != nil {
		renderFrontier(m)
	}
	if !m.OK() {
		return fmt.Errorf("%d cell(s) drifted from golden behaviour", m.Drift())
	}
	return nil
}

// renderFrontier prints each profile's corpus-wide coverage, profiles
// in matrix column order.
func renderFrontier(m *corpus.Matrix) {
	for _, p := range m.Profiles {
		if rep := m.Coverage[p]; rep != nil {
			fmt.Printf("coverage [%s]: %d/%d pairs\n", p, rep.Covered, rep.Total)
		}
	}
}

func cmdCoverage(args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	dir := fs.String("corpus", "corpus", "corpus directory")
	profCSV := fs.String("profiles", "", "comma-separated NIC models (default: all)")
	workers := fs.Int("workers", 0, "engine worker-pool size: 0 = one per CPU, 1 = serial (the frontier is identical for every value)")
	out := fs.String("out", "", "write the per-profile frontier as JSON here (schema "+corpus.FrontierSchema+")")
	fs.Parse(args)
	profiles, err := parseProfiles(*profCSV)
	if err != nil {
		return err
	}
	m, err := corpus.Replay(context.Background(), *dir,
		corpus.ReplayOptions{Profiles: profiles, Workers: *workers, Coverage: true})
	if err != nil {
		return err
	}
	for _, p := range m.Profiles {
		rep := m.Coverage[p]
		if rep == nil {
			fmt.Printf("%-8s  (no runnable entries)\n", p)
			continue
		}
		fmt.Printf("%-8s  %d/%d pairs covered\n", p, rep.Covered, rep.Total)
		for _, s := range rep.Sites {
			if len(s.Covered) == 0 {
				continue
			}
			fmt.Printf("  %-16s %d/%d", s.Name, len(s.Covered), s.Transitions)
			for _, t := range s.Covered {
				fmt.Printf(" %s", t.Name)
			}
			fmt.Println()
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		err = m.Frontier().Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("frontier written to %s\n", *out)
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("corpus", "corpus", "corpus directory")
	covFlag := fs.Bool("coverage", false, "replay each entry (native profile) with coverage and add a covered-pairs column; rows sort by coverage descending, ties by entry hash")
	workers := fs.Int("workers", 0, "engine worker-pool size for -coverage replays")
	fs.Parse(args)
	entries, err := corpus.List(*dir)
	if err != nil {
		return err
	}
	byID := make(map[string]corpus.Entry, len(entries))
	for _, e := range entries {
		byID[e.ID] = e
	}
	order := entries
	cov := map[string]corpus.EntryCoverage{}
	if *covFlag {
		counts, err := corpus.CoverageCounts(context.Background(), *dir, *workers)
		if err != nil {
			return err
		}
		order = order[:0:0]
		for _, c := range counts {
			cov[c.ID] = c
			order = append(order, byID[c.ID])
		}
	}
	for _, e := range order {
		fmt.Printf("%s  %-24s %d event(s), %d profile(s), target=%s",
			e.ID, e.Expected.Name, len(e.Config.Traffic.Events), len(e.Expected.Profiles), e.Expected.Target)
		if e.Expected.Score != 0 {
			fmt.Printf(", score=%.2f", e.Expected.Score)
		}
		if c, ok := cov[e.ID]; ok {
			fmt.Printf(", coverage=%d/%d", c.Covered, c.Total)
		}
		fmt.Println()
	}
	fmt.Printf("%d entr%s\n", len(entries), plural(len(entries)))
	return nil
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
