package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
)

// bindTrace inspects a pcap written by `lumina run -out` (trace.pcap):
// it re-derives the mirror metadata, prints a packet-level listing,
// reconstructs ITER rounds offline (Figure 3's arithmetic), and re-runs
// the trace-only analyzers.
func bindTrace(fs *flag.FlagSet) func([]string) error {
	pcapPath := fs.String("pcap", "", "pcap `file` written by the orchestrator")
	maxPkts := fs.Int("n", 40, "list the first `N` packets (0 = all)")
	analyze := fs.Bool("analyze", true, "run trace analyzers")
	return func([]string) error {
		tr, err := loadTrace(*pcapPath)
		if err != nil {
			return err
		}
		iters := analyzer.ReconstructITER(tr)

		fmt.Printf("%s: %d packets\n", *pcapPath, len(tr.Entries))
		first, last := tr.Span()
		fmt.Printf("span: %v .. %v (%v)\n\n", first, last, last.Sub(first))

		limit := *maxPkts
		if limit == 0 || limit > len(tr.Entries) {
			limit = len(tr.Entries)
		}
		fmt.Printf("%-6s %-14s %-5s %-6s %s\n", "seq", "time", "iter", "event", "packet")
		for i := 0; i < limit; i++ {
			e := &tr.Entries[i]
			iter := "-"
			if iters[i] > 0 {
				iter = fmt.Sprintf("%d", iters[i])
			}
			ev := "-"
			if e.Meta.Event != 0 {
				ev = e.Meta.Event.String()
			}
			fmt.Printf("%-6d %-14v %-5s %-6s %s\n", e.Meta.Seq, e.Time(), iter, ev, e.Pkt.String())
		}
		if limit < len(tr.Entries) {
			fmt.Printf("… %d more packets (-n 0 for all)\n", len(tr.Entries)-limit)
		}

		if !*analyze {
			return nil
		}
		fmt.Println("\n--- analyzers ---")
		gbn := analyzer.CheckGoBackN(tr)
		fmt.Printf("go-back-n: %d connection-direction(s), %d gap(s), %d violation(s)\n",
			gbn.ConnsChecked, gbn.Events, len(gbn.Violations))
		for _, v := range gbn.Violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
		for _, st := range analyzer.RetransmissionStats(tr) {
			if st.Retransmitted == 0 {
				continue
			}
			fmt.Printf("conn %s->%s qp=%d: %d/%d packets retransmitted, max round %d, first at %v\n",
				st.Conn.Src, st.Conn.Dst, st.Conn.DstQPN,
				st.Retransmitted, st.DataPackets, st.MaxIter, st.FirstRetrans)
		}
		for _, ev := range analyzer.AnalyzeRetransmissions(tr) {
			kind := "fast-retransmit"
			if ev.Timeout {
				kind = "timeout"
			}
			fmt.Printf("drop psn=%d (%s): gen=%v react=%v total=%v\n",
				ev.DroppedPSN, kind, ev.GenLatency(), ev.ReactLatency(), ev.TotalLatency())
		}
		cnp := analyzer.AnalyzeCNP(tr)
		if cnp.TotalCNPs() > 0 {
			fmt.Printf("cnp: %d notification(s), min gaps port/ip/qp = %v/%v/%v, orphans %d\n",
				cnp.TotalCNPs(), cnp.MinIntervalPerPort, cnp.MinIntervalPerIP, cnp.MinIntervalPerQP, cnp.Orphans)
		}
		return nil
	}
}

// loadTrace rebuilds trace entries from the raw capture: the pcap bytes
// are the trimmed mirror copies, metadata intact.
func loadTrace(path string) (*trace.Trace, error) {
	if path == "" {
		return nil, usagef("-pcap is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pkts, err := trace.ReadPcap(f)
	if err != nil {
		return nil, err
	}
	recs := make([]dumper.Record, 0, len(pkts))
	for _, p := range pkts {
		recs = append(recs, dumper.Record{Wire: p.Data})
	}
	return trace.Reconstruct(recs)
}

// bindTimeline renders a captured trace as Chrome trace-event JSON: one
// track per connection direction, one instant per packet (named by
// opcode), with PSN / mirror-seq / ITER args and the injected event
// type where one fired. The result loads in Perfetto or chrome://tracing.
func bindTimeline(fs *flag.FlagSet) func([]string) error {
	pcapPath := fs.String("pcap", "", "pcap `file` written by the orchestrator")
	outPath := fs.String("out", "", "output `file` (default stdout)")
	return func([]string) error {
		tr, err := loadTrace(*pcapPath)
		if err != nil {
			return err
		}
		if len(tr.Entries) == 0 {
			return fmt.Errorf("%s holds no packets; refusing to write an empty timeline", *pcapPath)
		}
		iters := analyzer.ReconstructITER(tr)

		hub := telemetry.NewHub()
		var e *trace.Entry
		hub.SetClock(func() int64 { return e.Meta.Timestamp })
		for i := range tr.Entries {
			e = &tr.Entries[i]
			k := e.Key()
			args := []telemetry.Field{
				telemetry.I("psn", int64(e.Pkt.BTH.PSN)),
				telemetry.I("seq", int64(e.Meta.Seq)),
			}
			if iters[i] > 0 {
				args = append(args, telemetry.I("iter", int64(iters[i])))
			}
			if e.Meta.Event != 0 {
				args = append(args, telemetry.S("event", e.Meta.Event.String()))
			}
			hub.EmitArgs(telemetry.KindTracePkt, fmt.Sprintf("%s->%s/qp-0x%06x", k.Src, k.Dst, k.DstQPN),
				e.Pkt.BTH.Opcode.String(), args...)
		}
		events := hub.Events()

		if *outPath == "" {
			return telemetry.WriteTimeline(os.Stdout, events)
		}
		if err := writeFile(*outPath, func(w io.Writer) error { return telemetry.WriteTimeline(w, events) }); err != nil {
			return err
		}
		fmt.Printf("timeline (%d packets) written to %s\n", len(events), *outPath)
		return nil
	}
}

// bindExplain prints the causal story of each injected event: which
// packet it hit and the NACK/rewind/CNP/retransmission chain it
// provoked, with virtual-time latencies on every step, optionally
// narrowed to one packet by QPN and PSN. It reads summary.json when
// available — that carries the endpoint-internal nodes only probes can
// see — and falls back to rebuilding wire-visible chains from the pcap.
func bindExplain(fs *flag.FlagSet) func([]string) error {
	runDir := fs.String("run", "", "artifact `dir` from `lumina run -out` (summary.json preferred, trace.pcap fallback)")
	sumPath := fs.String("summary", "", "summary.json `file` to read chains from")
	pcapPath := fs.String("pcap", "", "pcap `file` to rebuild wire-visible chains from")
	qpStr := fs.String("qp", "", "`QPN` to match, hex (0x…) or decimal; either side of the connection")
	psn := fs.Int("psn", -1, "`PSN` to match (-1 = every chain)")
	return func([]string) error {
		if *runDir != "" {
			s := filepath.Join(*runDir, orchestrator.SummaryName)
			if st, err := os.Stat(s); *sumPath == "" && err == nil && !st.IsDir() {
				*sumPath = s
			} else if p := filepath.Join(*runDir, orchestrator.TraceName); *pcapPath == "" {
				*pcapPath = p
			}
		}
		if *sumPath == "" && *pcapPath == "" {
			return usagef("one of -run, -summary or -pcap is required")
		}
		var qpn uint32
		if *qpStr != "" {
			v, err := strconv.ParseUint(*qpStr, 0, 32)
			if err != nil {
				return usagef("bad -qp %q: %v", *qpStr, err)
			}
			qpn = uint32(v)
		}

		var items []lineage.ChainItem
		if *sumPath != "" {
			var sum orchestrator.Summary
			if err := readArtifact(*sumPath, orchestrator.SummarySchema, &sum); err != nil {
				return err
			}
			if sum.Chains != nil {
				items = sum.Chains.Items
			}
		} else {
			// Wire-only fallback: the pcap carries no probe stream, so the
			// chains lack endpoint-internal nodes (rewind, completion).
			tr, err := loadTrace(*pcapPath)
			if err != nil {
				return err
			}
			items = lineage.Build(tr, nil).Summarize().Items
		}

		matched := 0
		for i := range items {
			it := &items[i]
			if *psn >= 0 && it.PSN != uint32(*psn) {
				continue
			}
			if qpn != 0 && !connMatches(it, qpn) {
				continue
			}
			if matched > 0 {
				fmt.Println()
			}
			fmt.Print(it.Story())
			matched++
		}
		switch {
		case matched > 0:
		case *psn >= 0 || qpn != 0:
			return fmt.Errorf("no causal chain matches qp=%s psn=%d (%d chain(s) in the run)",
				cmp.Or(*qpStr, "any"), *psn, len(items))
		default:
			fmt.Println("no injected events in this run: nothing to explain")
		}
		return nil
	}
}

// readArtifact parses the JSON document at path into v, refusing it
// unless its "schema" field is want.
func readArtifact(path, want string, v any) error {
	js, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct{ Schema string }
	if err := json.Unmarshal(js, &head); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if head.Schema != want {
		return fmt.Errorf("%s: schema %q, expected %q", path, head.Schema, want)
	}
	return json.Unmarshal(js, v)
}

// bindHops prints the in-band telemetry view of a run made with
// `lumina run -int -out`: the hop table with queue/utilization
// aggregates and, per causal chain, every packet's per-hop crossings
// (timestamp, queue depth ahead, link utilization, latency to the next
// hop), reading int.json from the artifact directory.
func bindHops(fs *flag.FlagSet) func([]string) error {
	runDir := fs.String("run", "", "artifact `dir` from `lumina run -int -out`")
	intPath := fs.String("int", "", "int.json `file` to read (overrides -run)")
	lineageID := fs.Uint64("lineage", 0, "print only the chain with this lineage `ID` (0 = all)")
	return func([]string) error {
		if *intPath == "" && *runDir != "" {
			*intPath = filepath.Join(*runDir, orchestrator.INTName)
		}
		if *intPath == "" {
			return usagef("-run or -int is required")
		}
		var ir orchestrator.INTReport
		if err := readArtifact(*intPath, orchestrator.INTSchema, &ir); err != nil {
			return err
		}

		fmt.Printf("%d stamp(s), %d transit(s), %d lineage bind(s)\n\n", ir.Stamps, ir.Transits, ir.Binds)
		fmt.Printf("%-3s %-12s %-6s %8s %12s %10s\n", "id", "hop", "origin", "stamps", "max-queue-B", "max-util")
		for _, h := range ir.Hops {
			origin := "-"
			if h.Origin {
				origin = "yes"
			}
			fmt.Printf("%-3d %-12s %-6s %8d %12d %7d/1000\n",
				h.ID, h.Name, origin, h.Stamps, h.MaxQueueBytes, h.MaxUtilPermille)
		}
		for _, v := range ir.Verdicts {
			fmt.Printf("\n%s\n", v.Line(12))
		}

		matched := 0
		for i := range ir.Chains {
			ch := &ir.Chains[i]
			if *lineageID != 0 && ch.Lineage != *lineageID {
				continue
			}
			matched++
			status := "incomplete"
			if ch.Completed {
				status = "completed"
			}
			fmt.Printf("\nchain %d (%s, psn %d, %s):\n", ch.Lineage, ch.Event, ch.PSN, status)
			for j := range ch.Nodes {
				n := &ch.Nodes[j]
				fmt.Printf("  %-12s @%-10d psn=%d", n.Kind, n.AtNs, n.PSN)
				if n.Seq != 0 {
					fmt.Printf(" seq=%d", n.Seq)
				}
				if n.Transit != 0 {
					fmt.Printf(" transit=%d", n.Transit)
				}
				fmt.Println()
				for _, cr := range n.Hops {
					lat := ""
					if cr.LatencyNs > 0 {
						lat = fmt.Sprintf("  +%dns to next hop", cr.LatencyNs)
					}
					fmt.Printf("    %-12s @%-10d queue %6dB  util %4d/1000%s\n",
						cr.Hop, cr.AtNs, cr.QueueBytes, cr.UtilPermille, lat)
				}
			}
			for _, d := range ch.PerHop {
				fmt.Printf("  per-hop %-12s %d crossing(s), max queue %dB, max util %d/1000, total latency %dns\n",
					d.Hop, d.Crossings, d.MaxQueueBytes, d.MaxUtilPermille, d.TotalLatencyNs)
			}
		}
		switch {
		case matched > 0:
		case *lineageID != 0:
			return fmt.Errorf("no chain with lineage ID %d (%d chain(s) in %s)", *lineageID, len(ir.Chains), *intPath)
		default:
			fmt.Println("\nno causal chains in this run (no injected events, or run made without -int/lineage)")
		}
		return nil
	}
}

// bindTraceCoverage prints one behavioral coverage report, or diffs two:
// which pairs only run A exercised, which only run B. Diffing a run
// against the corpus frontier shows exactly what new behavior the run
// found, or what corpus behavior it misses.
func bindTraceCoverage(fs *flag.FlagSet) func([]string) error {
	aPath := fs.String("a", "", "run `dir`, coverage.json, or frontier.json")
	bPath := fs.String("b", "", "second `input` to diff against (optional)")
	return func([]string) error {
		if *aPath == "" {
			return usagef("-a is required")
		}
		a, err := loadCoverage(*aPath)
		if err != nil {
			return err
		}
		if *bPath == "" {
			fmt.Printf("%s: %d/%d pairs covered\n", *aPath, a.Covered, a.Total)
			for _, s := range a.Sites {
				if len(s.Covered) == 0 {
					continue
				}
				fmt.Printf("  %-16s %d/%d:", s.Name, len(s.Covered), s.Transitions)
				for _, t := range s.Covered {
					fmt.Printf(" %s(%d)", t.Name, t.Count)
				}
				fmt.Println()
			}
			return nil
		}

		b, err := loadCoverage(*bPath)
		if err != nil {
			return err
		}
		d := coverage.DiffReports(a, b)
		fmt.Printf("A %s: %d/%d pairs\n", *aPath, d.CoveredA, a.Total)
		fmt.Printf("B %s: %d/%d pairs\n", *bPath, d.CoveredB, b.Total)
		if len(d.OnlyA) == 0 && len(d.OnlyB) == 0 {
			fmt.Println("identical coverage")
			return nil
		}
		for _, k := range d.OnlyA {
			fmt.Printf("  only A: %s\n", k)
		}
		for _, k := range d.OnlyB {
			fmt.Printf("  only B: %s\n", k)
		}
		return nil
	}
}

// loadCoverage resolves one coverage input: directories read their
// coverage.json; files parse as a coverage report first, then as a
// corpus frontier (unioned across profiles).
func loadCoverage(path string) (*coverage.Report, error) {
	p := path
	if st, err := os.Stat(p); err == nil && st.IsDir() {
		p = filepath.Join(p, orchestrator.CoverageName)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	if rep, err := coverage.ReadReport(data); err == nil {
		return rep, nil
	}
	fr, err := corpus.ReadFrontier(data)
	if err != nil {
		return nil, fmt.Errorf("%s: neither a coverage report (%s) nor a frontier (%s)",
			p, coverage.Schema, corpus.FrontierSchema)
	}
	if rep := fr.Merged(); rep != nil {
		return rep, nil
	}
	return nil, fmt.Errorf("%s: frontier holds no profiles", p)
}

func connMatches(it *lineage.ChainItem, qpn uint32) bool {
	if it.ActorQPN == qpn {
		return true
	}
	// The serialized conn string ends in "/qp-0x%06x" (the DestQP of the
	// packet the event hit).
	return len(it.Conn) > 8 && it.Conn[len(it.Conn)-6:] == fmt.Sprintf("%06x", qpn)
}
