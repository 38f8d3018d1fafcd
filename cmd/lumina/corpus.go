package main

// The corpus subcommands drive the regression corpus: the on-disk,
// content-addressed store of minimized anomalous scenarios with golden
// verdicts and summary digests (internal/corpus). With fuzz they close
// the paper's fuzz → minimize → admit → replay loop. replay fails if
// any (entry, profile) cell drifts from its golden, making the corpus a
// CI gate against behavioural regressions.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/fuzz"
	"github.com/lumina-sim/lumina/internal/minimize"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

func bindCorpusAdd(fs *flag.FlagSet) func([]string) error {
	dir := corpusFlag(fs, "corpus")
	doMin := fs.Bool("minimize", false, "delta-debug each scenario to a minimal reproducer before admitting")
	workers := workersFlag(fs)
	return func(args []string) error {
		for _, path := range args {
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
}

func bindMinimize(fs *flag.FlagSet) func([]string) error {
	workers := workersFlag(fs)
	out := fs.String("out", "", "write the minimized scenario YAML to this `file` (default: stdout)")
	return func(args []string) error {
		cfg, err := config.Load(args[0])
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
		fmt.Printf("wrote %s (replay with: lumina run %s)\n", *out, *out)
		return nil
	}
}

func bindReplay(fs *flag.FlagSet) func([]string) error {
	dir := corpusFlag(fs, "corpus")
	profiles := profilesFlag(fs)
	transports := csvFlag(fs, "transport", "replay only entries exercising one of these comma-separated `transports` (rc,uc,ud; default: all entries)",
		func(s string) (string, error) { _, err := rnic.ParseTransport(s); return strings.ToLower(s), err })
	workers := workersFlag(fs)
	intFlag, covFlag := observeFlags(fs)
	artifacts := fs.String("artifacts", "", "write each cell's summary.json (int.json with -int, coverage.json with -coverage) under this `dir` for byte-level diffing")
	_, openCache := cacheFlag(fs)
	return func([]string) error {
		c, err := openCache()
		if err != nil {
			return err
		}
		m, err := corpus.Replay(context.Background(), *dir,
			corpus.ReplayOptions{Profiles: *profiles, Transports: *transports, Workers: *workers,
				INT: *intFlag, Coverage: *covFlag, ArtifactsDir: *artifacts, Cache: c})
		if err != nil {
			return err
		}
		if err := m.Render(os.Stdout); err != nil {
			return err
		}
		if c != nil {
			st := c.Stats()
			fmt.Printf("cache: %d hit(s), %d miss(es), %d entr%s (%d bytes)\n",
				st.Hits, st.Misses, st.Entries, plural(st.Entries), st.Bytes)
		}
		// Each profile's corpus-wide coverage, in matrix column order.
		for _, p := range m.Profiles {
			if rep := m.Coverage[p]; rep != nil {
				fmt.Printf("coverage [%s]: %d/%d pairs\n", p, rep.Covered, rep.Total)
			}
		}
		if !m.OK() {
			return fmt.Errorf("%d cell(s) drifted from golden behaviour", m.Drift())
		}
		return nil
	}
}

// bindCorpusCoverage replays the corpus with the behavioral coverage
// map attached and reports each profile's frontier — the union of
// (site, transition) pairs the corpus exercises — optionally written as
// frontier.json for `lumina trace coverage` diffing.
func bindCorpusCoverage(fs *flag.FlagSet) func([]string) error {
	dir := corpusFlag(fs, "corpus")
	profiles := profilesFlag(fs)
	workers := workersFlag(fs)
	out := fs.String("out", "", "write the per-profile frontier as JSON (schema "+corpus.FrontierSchema+") to this `file`")
	return func([]string) error {
		m, err := corpus.Replay(context.Background(), *dir,
			corpus.ReplayOptions{Profiles: *profiles, Workers: *workers, Coverage: true})
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
		if *out == "" {
			return nil
		}
		if err := writeFile(*out, m.Frontier().Write); err != nil {
			return err
		}
		fmt.Printf("frontier written to %s\n", *out)
		return nil
	}
}

func bindList(fs *flag.FlagSet) func([]string) error {
	dir := corpusFlag(fs, "corpus")
	covFlag := fs.Bool("coverage", false, "replay each entry (native profile) with coverage and add a covered-pairs column; rows sort by coverage descending, ties by entry hash")
	workers := workersFlag(fs)
	return func([]string) error {
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
}

// fuzzDeadline bounds the virtual time of every fuzz evaluation and of
// the minimization and golden runs that admit its findings: a run that
// times out scores, so a finding's anomaly holds only at the deadline it
// was scored at.
const fuzzDeadline = 300 * sim.Second

// bindFuzz runs the genetic test-case generation module (§4,
// Algorithm 1) against a built-in target.
//
// Findings are always persisted as JSON (-findings, default
// findings.json) so a long run's results survive terminal scrollback;
// with -corpus each finding is additionally delta-debugged to a minimal
// reproducer and admitted into the content-addressed regression corpus
// (duplicates by content hash are skipped). Coverage guidance is on by
// default (-coverage=false for a blind search): the search keeps
// mutants that light up new behavioral (site, transition) pairs, the
// findings file records per-finding coverage deltas and the frontier
// reached (schema lumina-findings/2), and frontier-advancing
// below-threshold seeds are admitted to the corpus alongside anomalies.
func bindFuzz(fs *flag.FlagSet) func([]string) error {
	targetName := fs.String("target", "noisy-neighbor", "`target`: noisy-neighbor | counter-bugs")
	model := fs.String("model", "cx4", "NIC `model` under test")
	iters := fs.Int("iters", 30, "mutation iterations")
	seed := fs.Int64("seed", 1, "search seed")
	stopFirst := fs.Bool("stop-first", false, "stop at the first anomaly")
	saveDir := fs.String("save", "", "`dir` to save anomalous configs in as replayable YAML")
	workers := workersFlag(fs)
	generation := fs.Int("generation", 8, "evaluations drawn per search round (an algorithm knob, unlike -workers)")
	findingsPath := fs.String("findings", "findings.json", "write all findings as JSON to this `file` ('' disables)")
	corpusDir := corpusFlag(fs, "")
	guided := fs.Bool("coverage", true, "coverage-guided search: keep mutants that cover new (site, transition) pairs")
	return func([]string) error {
		var target fuzz.Target
		switch *targetName {
		case "noisy-neighbor":
			target = fuzz.NoisyNeighborTarget(*model)
		case "counter-bugs":
			target = fuzz.CounterBugTarget(*model)
		default:
			return usagef("unknown target %q", *targetName)
		}

		f, err := fuzz.New(target, fuzz.Options{
			Seed: *seed, PoolSize: 6, AcceptProb: 0.2,
			Deadline: fuzzDeadline, StopAtFirstAnomaly: *stopFirst,
			Generation: *generation, Workers: *workers,
			Coverage: *guided,
		})
		if err != nil {
			return err
		}
		mode := "coverage-guided"
		if !*guided {
			mode = "blind"
		}
		fmt.Printf("fuzzing target %q on %s (%d iterations, seed %d, %s)\n", target.Name, *model, *iters, *seed, mode)
		res, err := f.Run(*iters)
		if err != nil {
			return err
		}
		fmt.Printf("evaluations: %d  best score: %.2f  best genome: %v\n", res.Evaluations, res.BestScore, res.BestGenome)
		if *guided {
			for prof, n := range res.Frontier {
				fmt.Printf("coverage frontier [%s]: %d pairs (growth per generation: %v)\n", prof, n, res.FrontierGrowth)
			}
		}

		out := fuzz.NewFindingsFile(target.Name, *model, *seed, *iters, res)
		for i, fd := range res.Findings {
			out.Findings = append(out.Findings, target.Record(i+1, fd, fuzz.FindingKindAnomaly))
		}
		for i, fd := range res.CoverageSeeds {
			out.CoverageSeeds = append(out.CoverageSeeds, target.Record(i+1, fd, fuzz.FindingKindCoverage))
		}

		if len(res.Findings) == 0 {
			fmt.Println("no anomalies crossed the threshold")
		} else {
			fmt.Printf("%d anomalies found:\n", len(res.Findings))
		}
		for i, fd := range res.Findings {
			fmt.Printf("  #%d score=%.2f genome=%v", i+1, fd.Score, fd.Genome)
			for pi, p := range target.Params {
				fmt.Printf(" %s=%d", p.Name, fd.Genome[pi])
			}
			if len(fd.NewPairs) > 0 {
				fmt.Printf(" (+%d coverage pairs)", len(fd.NewPairs))
			}
			fmt.Println()
			if *saveDir != "" && i < 20 {
				if err := saveYAML(*saveDir, &out.Findings[i]); err != nil {
					return err
				}
			}
			if *corpusDir != "" {
				admit(*corpusDir, fd, &out.Findings[i], target.Name, *workers)
			}
			if i >= 9 && *saveDir == "" && *corpusDir == "" {
				fmt.Printf("  … and %d more\n", len(res.Findings)-10)
				break
			}
		}
		if len(res.CoverageSeeds) > 0 {
			fmt.Printf("%d coverage seed(s) advanced the frontier without crossing the threshold\n", len(res.CoverageSeeds))
			if *corpusDir != "" {
				for i := range res.CoverageSeeds {
					admitSeed(*corpusDir, res.CoverageSeeds[i], &out.CoverageSeeds[i], target.Name, *workers)
				}
			}
		}

		if *findingsPath == "" {
			return nil
		}
		if err := writeFile(*findingsPath, out.Write); err != nil {
			return err
		}
		fmt.Printf("findings written to %s (%d finding(s), %d coverage seed(s))\n",
			*findingsPath, len(out.Findings), len(out.CoverageSeeds))
		return nil
	}
}

// saveYAML writes one finding's scenario next to the others in dir.
func saveYAML(dir string, rec *fuzz.FindingRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("finding-%d.yaml", rec.Rank))
	if err := os.WriteFile(path, []byte(rec.ConfigYAML), 0o644); err != nil {
		return err
	}
	fmt.Printf("     saved: %s (replay with: lumina run %s)\n", path, path)
	return nil
}

// admit minimizes one finding and stores it in the regression corpus;
// failures are reported but do not abort the remaining findings.
func admit(dir string, fd fuzz.Finding, rec *fuzz.FindingRecord, targetName string, workers int) {
	cfg := fd.Report.Config
	mres, err := minimize.Minimize(cfg, minimize.Options{Deadline: fuzzDeadline, Workers: workers})
	switch {
	case errors.Is(err, minimize.ErrNoAnomaly):
		fmt.Println("     corpus: no verdict anomaly; admitting unminimized")
	case err != nil:
		fmt.Fprintf(os.Stderr, "     corpus: minimize: %v\n", err)
		return
	default:
		fmt.Printf("     corpus: minimized %d→%d events (%d evaluations, anomaly %s)\n",
			mres.InitialEvents, mres.FinalEvents, mres.Evaluations, mres.Anomaly)
		cfg = mres.Config
	}
	cfg.Name = fmt.Sprintf("%s-finding-%d", targetName, rec.Rank)
	entry, added, err := corpus.Add(dir, cfg, corpus.Meta{
		Name: cfg.Name, Target: targetName, Score: fd.Score,
	}, corpus.RunOptions{Deadline: fuzzDeadline, Workers: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "     corpus: %v\n", err)
		return
	}
	rec.CorpusID = entry.ID
	if added {
		fmt.Printf("     corpus: admitted %s\n", entry.ID)
	} else {
		fmt.Printf("     corpus: duplicate of %s (skipped)\n", entry.ID)
	}
}

// admitSeed stores one new-coverage seed in the regression corpus.
// Coverage seeds carry no verdict anomaly, so there is nothing for the
// minimizer to preserve — they are admitted as-is.
func admitSeed(dir string, fd fuzz.Finding, rec *fuzz.FindingRecord, targetName string, workers int) {
	cfg := fd.Report.Config
	cfg.Name = fmt.Sprintf("%s-covseed-%d", targetName, rec.Rank)
	entry, added, err := corpus.Add(dir, cfg, corpus.Meta{
		Name: cfg.Name, Target: targetName, Score: fd.Score,
	}, corpus.RunOptions{Deadline: fuzzDeadline, Workers: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "     corpus: coverage seed: %v\n", err)
		return
	}
	rec.CorpusID = entry.ID
	if added {
		fmt.Printf("     corpus: admitted coverage seed %s (+%d pairs)\n", entry.ID, len(fd.NewPairs))
	} else {
		fmt.Printf("     corpus: coverage seed duplicate of %s (skipped)\n", entry.ID)
	}
}
