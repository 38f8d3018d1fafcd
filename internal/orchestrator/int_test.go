package orchestrator

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

func intOpts() Options {
	opts := DefaultOptions()
	opts.Telemetry = true
	opts.Lineage = true
	opts.INT = true
	return opts
}

func TestINTReportEndToEnd(t *testing.T) {
	rep, err := Run(lineageCfg(), intOpts())
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.INT
	if ir == nil {
		t.Fatal("Options.INT set but Report.INT is nil")
	}
	if ir.Schema != INTSchema {
		t.Fatalf("schema = %q, want %q", ir.Schema, INTSchema)
	}
	if ir.Stamps == 0 || ir.Transits == 0 || ir.Binds == 0 {
		t.Fatalf("stamps/transits/binds = %d/%d/%d, want all nonzero", ir.Stamps, ir.Transits, ir.Binds)
	}
	if len(ir.Hops) != 5 {
		t.Fatalf("hop table = %+v, want 5 hops (2 NIC origins, 2 switch egress, pipeline)", ir.Hops)
	}
	for _, h := range ir.Hops {
		if h.Stamps == 0 {
			t.Fatalf("hop %s collected no stamps", h.Name)
		}
	}
	if len(ir.Chains) == 0 {
		t.Fatal("no annotated chains despite lineage being on")
	}
	// The drop chain's wire nodes must join to per-hop stamps.
	joined := false
	for _, ch := range ir.Chains {
		for _, n := range ch.Nodes {
			if n.Seq != 0 && len(n.Hops) > 0 {
				joined = true
			}
		}
	}
	if !joined {
		t.Fatal("no wire node joined to any INT stamp")
	}
	// Both hop-level analyzers must report, pass, and cite chains.
	if len(ir.Verdicts) != 2 {
		t.Fatalf("INT verdicts = %+v, want int-coverage and int-pressure", ir.Verdicts)
	}
	for _, v := range ir.Verdicts {
		if !v.Pass {
			t.Fatalf("verdict %s failed: %s", v.Analyzer, v.Reason)
		}
		if v.Reason == "" {
			t.Fatalf("verdict %s has no reason", v.Analyzer)
		}
	}
	// The pressure verdict attributes the drop's retransmission, citing
	// the chain it judged.
	var pressure *analyzer.Verdict
	for i := range ir.Verdicts {
		if ir.Verdicts[i].Analyzer == "int-pressure" {
			pressure = &ir.Verdicts[i]
		}
	}
	if pressure == nil || len(pressure.Chains) == 0 {
		t.Fatalf("int-pressure cites no lineage chains: %+v", ir.Verdicts)
	}
	// INT verdicts stay out of the main verdict list (corpus goldens are
	// INT-agnostic) but do appear as probes on the "int" track.
	for _, v := range rep.Verdicts {
		if v.Analyzer == "int-coverage" || v.Analyzer == "int-pressure" {
			t.Fatal("INT verdict leaked into Report.Verdicts")
		}
	}
	probes := 0
	for _, ev := range rep.Events {
		if ev.Kind() == telemetry.KindVerdict && ev.Track() == "int" {
			probes++
		}
	}
	if probes != len(ir.Verdicts) {
		t.Fatalf("%d INT verdict probes for %d verdicts", probes, len(ir.Verdicts))
	}
}

func TestINTArtifactRoundTrips(t *testing.T) {
	rep, err := Run(lineageCfg(), intOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "int.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got INTReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != INTSchema || got.Stamps != rep.INT.Stamps || len(got.Chains) != len(rep.INT.Chains) {
		t.Fatalf("int.json round-trip mismatch: %+v", got)
	}
}

// INT is observe-only: it never perturbs the simulated behaviour, so
// summary.json — the artifact corpus goldens digest — stays
// byte-identical with INT on and off, and the reconstructed trace tells
// the same packet story (same entries, PSNs, opcodes, timestamps,
// verdicts). The raw capture bytes differ only in the three
// iCRC-masked header fields stamps ride in — exactly what a real
// postcard-INT deployment's pcaps look like — and timeline.json /
// metrics.json legitimately gain the INT probes and roll-ups.
func TestINTIsObserveOnly(t *testing.T) {
	cfg := lineageCfg()
	plainRep, plain := runArtifacts(t, cfg)

	rep, err := Run(cfg, intOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain["summary.json"], b) {
		t.Fatal("enabling INT changed summary.json bytes")
	}
	if len(rep.Trace.Entries) != len(plainRep.Trace.Entries) {
		t.Fatalf("trace entry count changed: %d vs %d", len(rep.Trace.Entries), len(plainRep.Trace.Entries))
	}
	for i := range rep.Trace.Entries {
		a, p := &rep.Trace.Entries[i], &plainRep.Trace.Entries[i]
		if a.Meta != p.Meta || a.Pkt.BTH.PSN != p.Pkt.BTH.PSN || a.Pkt.BTH.Opcode != p.Pkt.BTH.Opcode {
			t.Fatalf("trace entry %d diverged with INT on: %+v vs %+v", i, a.Meta, p.Meta)
		}
	}
	if len(rep.Verdicts) != len(plainRep.Verdicts) {
		t.Fatal("enabling INT changed the main verdict list")
	}
	for i := range rep.Verdicts {
		if rep.Verdicts[i].Pass != plainRep.Verdicts[i].Pass || rep.Verdicts[i].Reason != plainRep.Verdicts[i].Reason {
			t.Fatalf("verdict %d diverged with INT on", i)
		}
	}
}

func TestPortGaugesPublishedWithoutINT(t *testing.T) {
	opts := DefaultOptions()
	opts.Telemetry = true
	rep, err := Run(lineageCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.INT != nil {
		t.Fatal("INT report built without Options.INT")
	}
	found := 0
	for _, g := range rep.Metrics.Gauges {
		switch g.Name {
		case "port.req-nic.max_queue_bytes", "port.req-nic.util_permille",
			"port.sw-req.max_queue_bytes", "port.sw-resp.util_permille":
			found++
		}
	}
	if found != 4 {
		t.Fatalf("per-port gauges missing from metrics registry (found %d/4): %v", found, rep.Metrics.Gauges)
	}
}

// joinEveryTransit is the specification Collector.Join is held to — the
// join it replaced: index every stamp of the run by transit, then
// annotate the chains from that index. Written against the collector's
// public surface only.
func joinEveryTransit(c *inband.Collector, g *lineage.Graph) []inband.ChainHops {
	if g == nil || len(g.Chains) == 0 {
		return nil
	}
	stamps, hops := c.Stamps(), c.Hops()
	byTransit := map[uint64][]int{}
	for i := range stamps {
		byTransit[stamps[i].Transit] = append(byTransit[stamps[i].Transit], i)
	}
	var out []inband.ChainHops
	for _, ch := range g.Chains {
		ah := inband.ChainHops{Lineage: ch.Lineage, Event: ch.Event.String(), PSN: ch.PSN, Completed: ch.Completed}
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			nh := inband.NodeHops{Kind: string(n.Kind), AtNs: int64(n.At), PSN: n.PSN, Seq: n.Seq}
			if transit, ok := c.TransitOf(n.Seq); ok && n.Seq != 0 {
				nh.Transit = transit
				idx := byTransit[transit]
				for k, si := range idx {
					s := &stamps[si]
					cr := inband.HopCrossing{Hop: hops[s.Hop].Name, AtNs: s.AtNs, QueueBytes: s.QueueBytes, UtilPermille: s.UtilPermille}
					if k+1 < len(idx) {
						cr.LatencyNs = stamps[idx[k+1]].AtNs - s.AtNs
					}
					nh.Hops = append(nh.Hops, cr)
				}
			}
			ah.Nodes = append(ah.Nodes, nh)
		}
		out = append(out, ah)
	}
	return out
}

// TestJoinMatchesIndexEverythingJoin runs two corpus entries with INT on
// — the pair testbed's listing2 (ECN mark, double drop) and the 16-host
// leaf-spine incast — and requires the chain-driven join's annotations,
// node for node and crossing for crossing, to equal the reference's. A
// fabric takes no injected events, so its run has no chains of its own:
// the join is also driven over its stamp log (four stamping hops per
// packet and more) by a graph that makes every 7th captured packet a
// chain, with a probe-derived node beside the wire-visible one.
func TestJoinMatchesIndexEverythingJoin(t *testing.T) {
	for _, entry := range []string{"a982ccd565a57c48", "c563496672a52ab8"} {
		cfg, err := config.Load(filepath.Join("..", "..", "corpus", entry, "scenario.yaml"))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := Build(cfg, intOpts())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tb.Execute()
		if err != nil {
			t.Fatal(err)
		}
		col := tb.obs.col
		if got, want := rep.INT.Chains, joinEveryTransit(col, rep.Lineage); (cfg.Fabric == nil) != (len(want) > 0) {
			t.Fatalf("%s: the reference joined %d chains", cfg.Name, len(want))
		} else {
			compareJoins(t, cfg.Name, got, want)
		}

		sampled := &lineage.Graph{}
		for i := 0; i < len(rep.Trace.Entries); i += 7 {
			e := &rep.Trace.Entries[i]
			wire := lineage.Node{ID: len(sampled.Nodes), Kind: lineage.NodeInject, At: e.Time(), PSN: e.Pkt.BTH.PSN, Seq: e.Meta.Seq}
			probe := lineage.Node{ID: wire.ID + 1, Kind: lineage.NodeRewind, At: e.Time() + 1, PSN: e.Pkt.BTH.PSN}
			sampled.Nodes = append(sampled.Nodes, wire, probe)
			sampled.Chains = append(sampled.Chains, lineage.Chain{Lineage: e.Meta.Seq, PSN: e.Pkt.BTH.PSN, Nodes: []int{wire.ID, probe.ID}})
		}
		want := joinEveryTransit(col, sampled)
		crossings := 0
		for _, ch := range want {
			crossings += len(ch.Nodes[0].Hops)
		}
		if len(want) < 10 || crossings < 3*len(want) {
			t.Fatalf("%s: reference joined %d sampled chains to %d crossings", cfg.Name, len(want), crossings)
		}
		compareJoins(t, cfg.Name+" (sampled)", col.Join(sampled), want)
	}
}

// compareJoins requires got to equal want up to PerHop, which both sides
// would derive from the nodes by the same digest: the join proper is the
// nodes.
func compareJoins(t *testing.T, what string, got, want []inband.ChainHops) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chains joined, the index-everything join gives %d", what, len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.PerHop = nil
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("%s: chain %d joined as\n%+v\nthe index-everything join gives\n%+v", what, i, g, want[i])
		}
	}
}
