// Command lumina-trace inspects a pcap written by the orchestrator
// (trace.pcap from `lumina -out`): it re-derives the mirror metadata,
// prints a packet-level listing, reconstructs ITER rounds offline
// (Figure 3's arithmetic), and re-runs the trace-only analyzers.
//
// The timeline subcommand instead converts the capture into Chrome
// trace-event JSON (one track per connection direction), loadable in
// Perfetto or chrome://tracing.
//
// The explain subcommand prints the causal story of an injected event:
// which packet it hit and the NACK/rewind/CNP/retransmission chain it
// provoked, with virtual-time latencies on every step. It reads
// summary.json (written by `lumina -out`) when available — that carries
// the endpoint-internal nodes only probes can see — and falls back to
// rebuilding wire-visible chains from the pcap alone.
//
// Usage:
//
// The hops subcommand prints the in-band telemetry view of a run made
// with `lumina -int -out`: the hop table with queue/utilization
// aggregates and, per causal chain, every packet's per-hop crossings
// (timestamp, queue depth ahead, link utilization, latency to the next
// hop) — reading int.json from the artifact directory.
//
// Usage:
//
// The coverage subcommand reads behavioral coverage artifacts — a
// run's coverage.json (from `lumina -coverage -out`) or a corpus
// frontier.json (from `lumina-corpus coverage -out`) — prints the
// covered (site, transition) pairs, and with two inputs diffs them:
// which pairs only run A exercised, which only run B. Diffing a run
// against the corpus frontier shows exactly what new behavior the run
// found (or what corpus behavior it misses).
//
// Usage:
//
//	lumina-trace -pcap results/trace.pcap [-n 50] [-analyze]
//	lumina-trace timeline -pcap results/trace.pcap -out timeline.json
//	lumina-trace explain -run results -qp 0x1a2b3c -psn 5
//	lumina-trace hops -run results [-lineage 3]
//	lumina-trace coverage -a results-a [-b results-b|frontier.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	"github.com/lumina-sim/lumina/internal/version"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "timeline":
			timelineCmd(os.Args[2:])
			return
		case "explain":
			explainCmd(os.Args[2:])
			return
		case "hops":
			hopsCmd(os.Args[2:])
			return
		case "coverage":
			coverageCmd(os.Args[2:])
			return
		case "-version", "--version", "version":
			fmt.Println("lumina-trace", version.String())
			return
		}
	}

	pcapPath := flag.String("pcap", "", "pcap file written by the orchestrator")
	maxPkts := flag.Int("n", 40, "packets to list (0 = all)")
	analyze := flag.Bool("analyze", true, "run trace analyzers")
	flag.Parse()
	if *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "usage: lumina-trace -pcap trace.pcap")
		fmt.Fprintln(os.Stderr, "       lumina-trace timeline -pcap trace.pcap -out timeline.json")
		os.Exit(2)
	}

	tr := loadTrace(*pcapPath)
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
		return
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
}

// loadTrace rebuilds trace entries from the raw capture: the pcap bytes
// are the trimmed mirror copies, metadata intact.
func loadTrace(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	pkts, err := trace.ReadPcap(f)
	if err != nil {
		fatal(err)
	}
	recs := make([]dumper.Record, 0, len(pkts))
	for _, p := range pkts {
		recs = append(recs, dumper.Record{Wire: p.Data})
	}
	tr, err := trace.Reconstruct(recs)
	if err != nil {
		fatal(err)
	}
	return tr
}

// timelineCmd renders a captured trace as Chrome trace-event JSON: one
// track per connection direction, one instant per packet (named by
// opcode), with PSN / mirror-seq / ITER args and the injected event
// type where one fired.
func timelineCmd(argv []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	pcapPath := fs.String("pcap", "", "pcap file written by the orchestrator")
	outPath := fs.String("out", "", "output file (default stdout)")
	fs.Parse(argv)
	if *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "usage: lumina-trace timeline -pcap trace.pcap [-out timeline.json]")
		os.Exit(2)
	}

	tr := loadTrace(*pcapPath)
	if len(tr.Entries) == 0 {
		fatal(fmt.Errorf("%s holds no packets; refusing to write an empty timeline", *pcapPath))
	}
	iters := analyzer.ReconstructITER(tr)

	events := make([]telemetry.Event, 0, len(tr.Entries))
	for i := range tr.Entries {
		e := &tr.Entries[i]
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
		events = append(events, telemetry.Event{
			At:    e.Meta.Timestamp,
			Kind:  telemetry.KindTracePkt,
			Track: fmt.Sprintf("%s->%s/qp-0x%06x", k.Src, k.Dst, k.DstQPN),
			Name:  e.Pkt.BTH.Opcode.String(),
			Args:  args,
		})
	}

	if *outPath == "" {
		if err := telemetry.WriteTimeline(os.Stdout, events); err != nil {
			fatal(err)
		}
		return
	}
	// Write via a temp file + rename so a failure mid-write (or the
	// truncated-pcap fatals above) can never leave a partial timeline
	// at the destination path.
	tmp := *outPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fatal(err)
	}
	if err := telemetry.WriteTimeline(f, events); err != nil {
		f.Close()
		os.Remove(tmp)
		fatal(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		fatal(err)
	}
	if err := os.Rename(tmp, *outPath); err != nil {
		os.Remove(tmp)
		fatal(err)
	}
	fmt.Printf("timeline (%d packets) written to %s\n", len(events), *outPath)
}

// explainCmd prints the causal chains lineage reconstruction found,
// optionally narrowed to one packet by QPN and PSN.
func explainCmd(argv []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	runDir := fs.String("run", "", "artifact directory from `lumina -out` (summary.json preferred, trace.pcap fallback)")
	sumPath := fs.String("summary", "", "summary.json to read chains from")
	pcapPath := fs.String("pcap", "", "pcap to rebuild wire-visible chains from")
	qpStr := fs.String("qp", "", "QPN to match, hex (0x…) or decimal; either side of the connection")
	psn := fs.Int("psn", -1, "PSN to match (-1 = every chain)")
	fs.Parse(argv)

	if *runDir != "" {
		if s := filepath.Join(*runDir, orchestrator.SummaryName); *sumPath == "" && fileExists(s) {
			*sumPath = s
		} else if p := filepath.Join(*runDir, orchestrator.TraceName); *pcapPath == "" {
			*pcapPath = p
		}
	}
	if *sumPath == "" && *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "usage: lumina-trace explain (-run dir | -summary summary.json | -pcap trace.pcap) [-qp N] [-psn M]")
		os.Exit(2)
	}

	var qpn uint32
	if *qpStr != "" {
		v, err := strconv.ParseUint(*qpStr, 0, 32)
		if err != nil {
			fatal(fmt.Errorf("bad -qp %q: %v", *qpStr, err))
		}
		qpn = uint32(v)
	}

	var items []lineage.ChainItem
	if *sumPath != "" {
		js, err := os.ReadFile(*sumPath)
		if err != nil {
			fatal(err)
		}
		var sum orchestrator.Summary
		if err := json.Unmarshal(js, &sum); err != nil {
			fatal(fmt.Errorf("%s: %v", *sumPath, err))
		}
		if sum.Chains != nil {
			items = sum.Chains.Items
		}
	} else {
		// Wire-only fallback: the pcap carries no probe stream, so the
		// chains lack endpoint-internal nodes (rewind, completion).
		items = lineage.Build(loadTrace(*pcapPath), nil).Summarize().Items
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
	if matched == 0 {
		if *psn >= 0 || qpn != 0 {
			fatal(fmt.Errorf("no causal chain matches qp=%s psn=%d (%d chain(s) in the run)",
				orAny(*qpStr), *psn, len(items)))
		}
		fmt.Println("no injected events in this run: nothing to explain")
	}
}

// hopsCmd prints the per-hop INT breakdown of a run: the hop table,
// then each causal chain's nodes with the hop crossings of the packet
// behind them.
func hopsCmd(argv []string) {
	fs := flag.NewFlagSet("hops", flag.ExitOnError)
	runDir := fs.String("run", "", "artifact directory from `lumina -int -out`")
	intPath := fs.String("int", "", "int.json to read (overrides -run)")
	lineageID := fs.Uint64("lineage", 0, "print only the chain with this lineage ID (0 = all)")
	fs.Parse(argv)

	if *intPath == "" && *runDir != "" {
		*intPath = filepath.Join(*runDir, orchestrator.INTName)
	}
	if *intPath == "" {
		fmt.Fprintln(os.Stderr, "usage: lumina-trace hops (-run dir | -int int.json) [-lineage N]")
		os.Exit(2)
	}
	js, err := os.ReadFile(*intPath)
	if err != nil {
		fatal(err)
	}
	var ir orchestrator.INTReport
	if err := json.Unmarshal(js, &ir); err != nil {
		fatal(fmt.Errorf("%s: %v", *intPath, err))
	}
	if ir.Schema != orchestrator.INTSchema {
		fmt.Fprintf(os.Stderr, "lumina-trace: warning: %s has schema %q, expected %q\n",
			*intPath, ir.Schema, orchestrator.INTSchema)
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
	if matched == 0 {
		if *lineageID != 0 {
			fatal(fmt.Errorf("no chain with lineage ID %d (%d chain(s) in %s)",
				*lineageID, len(ir.Chains), *intPath))
		}
		fmt.Println("\nno causal chains in this run (no injected events, or run made without -int/lineage)")
	}
}

// coverageCmd prints one behavioral coverage report, or diffs two.
// Each input is an artifact directory (coverage.json inside), a
// coverage.json, or a corpus frontier.json (whose per-profile reports
// are unioned before diffing).
func coverageCmd(argv []string) {
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	aPath := fs.String("a", "", "run dir, coverage.json, or frontier.json")
	bPath := fs.String("b", "", "second input to diff against (optional)")
	fs.Parse(argv)
	if *aPath == "" {
		fmt.Fprintln(os.Stderr, "usage: lumina-trace coverage -a (dir|coverage.json|frontier.json) [-b ...]")
		os.Exit(2)
	}

	a := loadCoverage(*aPath)
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
		return
	}

	b := loadCoverage(*bPath)
	d := coverage.DiffReports(a, b)
	fmt.Printf("A %s: %d/%d pairs\n", *aPath, d.CoveredA, a.Total)
	fmt.Printf("B %s: %d/%d pairs\n", *bPath, d.CoveredB, b.Total)
	if len(d.OnlyA) == 0 && len(d.OnlyB) == 0 {
		fmt.Println("identical coverage")
		return
	}
	for _, k := range d.OnlyA {
		fmt.Printf("  only A: %s\n", k)
	}
	for _, k := range d.OnlyB {
		fmt.Printf("  only B: %s\n", k)
	}
}

// loadCoverage resolves one coverage input: directories read their
// coverage.json; files parse as a coverage report first, then as a
// corpus frontier (unioned across profiles).
func loadCoverage(path string) *coverage.Report {
	p := path
	if st, err := os.Stat(p); err == nil && st.IsDir() {
		p = filepath.Join(p, orchestrator.CoverageName)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		fatal(err)
	}
	if rep, err := coverage.ReadReport(data); err == nil {
		return rep
	}
	fr, err := corpus.ReadFrontier(data)
	if err != nil {
		fatal(fmt.Errorf("%s: neither a coverage report (%s) nor a frontier (%s)",
			p, coverage.Schema, corpus.FrontierSchema))
	}
	rep := fr.Merged()
	if rep == nil {
		fatal(fmt.Errorf("%s: frontier holds no profiles", p))
	}
	return rep
}

func connMatches(it *lineage.ChainItem, qpn uint32) bool {
	if it.ActorQPN == qpn {
		return true
	}
	// The serialized conn string ends in "/qp-0x%06x" (the DestQP of the
	// packet the event hit).
	return len(it.Conn) > 8 && it.Conn[len(it.Conn)-6:] == fmt.Sprintf("%06x", qpn)
}

func orAny(s string) string {
	if s == "" {
		return "any"
	}
	return s
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lumina-trace:", err)
	os.Exit(1)
}
