package main

import (
	"flag"
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// bindRun runs one test from a yamlite configuration file (the paper's
// Listings 1–2 schema), prints a summary with analyzer verdicts, and
// optionally writes the collected artifacts (report.json, trace.pcap,
// metrics.json, timeline.json, summary.json, with -int also int.json,
// and with -coverage also coverage.json) to a directory.
func bindRun(fs *flag.FlagSet) func([]string) error {
	outDir := fs.String("out", "", "write every artifact (report.json, trace.pcap, summary.json, ...) to this `dir`")
	analyze := fs.Bool("analyze", true, "run the built-in analyzers on the trace")
	deadline := deadlineFlag(fs)
	timeline := fs.String("timeline", "", "write a Perfetto-compatible timeline (Chrome trace-event JSON) to this `file`")
	metrics := fs.String("metrics", "", "write the telemetry metrics snapshot (JSON) to this `file`")
	intFlag, covFlag := observeFlags(fs)
	transport := fs.String("transport", "", "override every connection's transport: `rc|uc|ud` (default: the scenario's own)")
	return func(args []string) error {
		cfg, err := config.Load(args[0])
		if err != nil {
			return err
		}
		rep, err := orchestrator.Run(cfg, orchestrator.Options{
			Deadline: *deadline,
			// -out implies telemetry so the artifact directory always gets
			// the full set (timeline, metrics, summary with probe-backed
			// lineage chains).
			Telemetry: *timeline != "" || *metrics != "" || *outDir != "",
			Lineage:   true,
			INT:       *intFlag,
			Coverage:  *covFlag,
			Transport: *transport,
		})
		if err != nil {
			return err
		}

		fmt.Printf("test %q: %d connection(s), verb=%s, %d msg(s) × %d B\n",
			cfg.Name, cfg.Traffic.NumConnections, cfg.Traffic.Verb,
			cfg.Traffic.NumMsgsPerQP, cfg.Traffic.MessageSize)
		fmt.Printf("virtual duration: %v  timed-out: %v\n", rep.DurationNs, rep.TimedOut)
		switch {
		case rep.Trace == nil:
			fmt.Println("trace: none collected (mirroring disabled)")
		case rep.IntegrityOK:
			fmt.Printf("trace: %d packets, integrity OK\n", len(rep.Trace.Entries))
		default:
			fmt.Printf("trace: %d packets, INTEGRITY FAILED: %s\n", len(rep.Trace.Entries), rep.IntegrityDetail)
		}
		if rep.Traffic != nil {
			fmt.Printf("aggregate goodput: %.2f Gbps, avg MCT: %v\n", rep.Traffic.TotalGoodputGbps(), rep.Traffic.AvgMCT())
			for i := range rep.Traffic.Conns {
				c := &rep.Traffic.Conns[i]
				fmt.Printf("  conn %2d qpn=%#x: %v  avg MCT %v  goodput %.2f Gbps\n",
					c.Index, c.ReqQPN, statusSummary(c.Statuses), c.AvgMCT(), c.GoodputGbps())
			}
		}

		if *analyze && rep.Trace != nil && len(rep.Trace.Entries) > 0 {
			fmt.Println("\n--- analyzers ---")
			if !rep.IntegrityOK {
				// A trace that fails the integrity check (§3.5) is missing
				// mirrored packets — usually dumper ring overflow. Sequence
				// gaps then look like drops that never happened on the wire,
				// so analyzer verdicts below are advisory, not conclusive.
				fmt.Printf("WARNING: integrity check failed (%s)\n", rep.IntegrityDetail)
				fmt.Println("WARNING: the trace is incomplete; gaps may be capture loss, not network loss.")
				fmt.Println("WARNING: analyzer results on this partial trace are advisory only.")
			}
			an := rep.Analysis
			fmt.Printf("go-back-n logic: %d connection-direction(s), %d gap(s), %d violation(s)\n",
				an.GBN.ConnsChecked, an.GBN.Events, len(an.GBN.Violations))
			for _, v := range an.GBN.Violations {
				fmt.Printf("  VIOLATION %s\n", v)
			}
			for _, ev := range an.Retrans {
				kind := "fast-retransmit"
				if ev.Timeout {
					kind = "timeout"
				}
				fmt.Printf("retransmission psn=%d (%s): gen=%v react=%v total=%v\n",
					ev.DroppedPSN, kind, ev.GenLatency(), ev.ReactLatency(), ev.TotalLatency())
			}
			if cnp := an.CNP; cnp.TotalCNPs() > 0 {
				fmt.Printf("cnp: %d notification(s), min per-port gap %v, orphans %d\n",
					cnp.TotalCNPs(), cnp.MinIntervalPerPort, cnp.Orphans)
			}
			if len(rep.Verdicts) > 0 {
				fmt.Println("\n--- verdicts ---")
				for _, v := range rep.Verdicts {
					fmt.Println(v.Line(8))
				}
				if n := len(rep.Lineage.Chains); n > 0 && *outDir != "" {
					fmt.Printf("%d causal chain(s); inspect one with: lumina trace explain -run %s -psn <psn>\n", n, *outDir)
				}
			}
		}

		if rep.INT != nil {
			fmt.Println("\n--- in-band telemetry ---")
			fmt.Printf("%d per-hop stamp(s) across %d transit(s), %d hop(s), %d lineage bind(s)\n",
				rep.INT.Stamps, rep.INT.Transits, len(rep.INT.Hops), rep.INT.Binds)
			for _, v := range rep.INT.Verdicts {
				fmt.Println(v.Line(12))
			}
			if *outDir != "" && len(rep.INT.Chains) > 0 {
				fmt.Printf("per-hop breakdowns: lumina trace hops -run %s [-lineage <id>]\n", *outDir)
			}
		}

		if rep.Coverage != nil {
			fmt.Println("\n--- behavioral coverage ---")
			fmt.Printf("%d/%d (site, transition) pair(s) covered\n", rep.Coverage.Covered, rep.Coverage.Total)
			for _, s := range rep.Coverage.Sites {
				if len(s.Covered) == 0 {
					continue
				}
				fmt.Printf("  %-16s %d/%d:", s.Name, len(s.Covered), s.Transitions)
				for _, t := range s.Covered {
					fmt.Printf(" %s", t.Name)
				}
				fmt.Println()
			}
			if *outDir != "" {
				fmt.Printf("diff against another run: lumina trace coverage -a %s -b <other>\n", *outDir)
			}
		}

		if *timeline != "" {
			if err := rep.WriteArtifact(orchestrator.TimelineName, *timeline); err != nil {
				return err
			}
			fmt.Printf("timeline (%d events) written to %s\n", len(rep.Events), *timeline)
		}
		if *metrics != "" {
			if err := rep.WriteArtifact(orchestrator.MetricsName, *metrics); err != nil {
				return err
			}
			fmt.Printf("metrics written to %s\n", *metrics)
		}
		if *outDir != "" {
			if err := rep.WriteArtifacts(*outDir); err != nil {
				return err
			}
			fmt.Printf("\nartifacts written to %s\n", *outDir)
		}
		return nil
	}
}

func statusSummary(st map[string]int) string {
	if len(st) == 1 {
		for k, v := range st {
			return fmt.Sprintf("%d×%s", v, k)
		}
	}
	return fmt.Sprintf("%v", st)
}
