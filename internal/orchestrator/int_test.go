package orchestrator

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
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
		if a.Meta() != p.Meta() || a.PSN() != p.PSN() || a.Opcode() != p.Opcode() {
			t.Fatalf("trace entry %d diverged with INT on: %+v vs %+v", i, a.Meta(), p.Meta())
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

// intReplay is the specification Collector.Join is held to: every
// transit's crossings rebuilt from the run's StampWire calls, recorded
// at the ports as they happen, and its pipeline stamps, read back from
// the capture (the mirror copy leaves the pipeline with the transit's
// tag, the mirror sequence number and the pipeline's instant). It
// follows inband's refCollector: transits are minted and tagged per
// origin hop, utilization is windowed per hop, and each transit keeps
// its crossings in a plain list. Nothing of it reads the stamp log.
type intReplay struct {
	hops     []inband.HopSummary // names and origin flags
	pipeline uint8
	mint     []uint64
	lastAt   []int64
	lastBusy []int64
	lastUtil []uint16
	// recent names the transit each on-wire tag carries, transits each
	// transit's crossings in call order and binds each mirror sequence
	// number's transit.
	recent   map[uint16]uint64
	transits map[uint64][]inband.HopCrossing
	binds    map[uint64]uint64
	// stamps are the recorded StampWire calls not yet replayed.
	stamps []wireStamp
}

// wireStamp is one recorded StampWire call: the hop, its arguments and
// the tag the frame arrived with.
type wireStamp struct {
	hop       uint8
	tag       uint16
	at, queue int64
	busy      int64
}

// recordINT wraps the stamper of every INT hop port of tb so each call
// is recorded before the collector sees it. Call it after Build and
// before Execute.
func recordINT(t *testing.T, tb *Testbed) *intReplay {
	col := tb.obs.col
	r := &intReplay{hops: col.Hops(), recent: map[uint16]uint64{}, transits: map[uint64][]inband.HopCrossing{}, binds: map[uint64]uint64{}}
	n := len(r.hops)
	r.mint, r.lastAt, r.lastBusy, r.lastUtil = make([]uint64, n), make([]int64, n), make([]int64, n), make([]uint16, n)
	ports := 0
	for i, h := range r.hops {
		if h.Name == "sw-pipeline" {
			r.pipeline = uint8(i)
			continue
		}
		for _, p := range tb.Ports {
			if p.Name != h.Name {
				continue
			}
			hop := uint8(i)
			p.SetStamper(func(data []byte, at sim.Time, queued int64, busy sim.Duration) {
				if packet.WireIsRoCE(data) {
					r.stamps = append(r.stamps, wireStamp{hop: hop, tag: packet.INTTransit(data), at: int64(at), queue: queued, busy: int64(busy)})
				}
				col.StampWire(data, hop, int64(at), queued, busy)
			})
			ports++
		}
	}
	if ports != n-1 {
		t.Fatalf("recorded %d of the %d stamping ports", ports, n-1)
	}
	return r
}

// replay runs the recorded calls and the trace's pipeline stamps
// through the reference in virtual-time order, a pipeline stamp ahead
// of the port stamps of its own instant (ingress precedes egress).
func (r *intReplay) replay(tr *trace.Trace) {
	pipes := slices.Clone(tr.Entries)
	slices.SortFunc(pipes, func(a, b trace.Entry) int { return cmp.Compare(a.Meta().Seq, b.Meta().Seq) })
	k := 0
	for _, s := range r.stamps {
		for ; k < len(pipes) && pipes[k].Time() <= sim.Time(s.at); k++ {
			r.pipe(&pipes[k])
		}
		r.stamp(s)
	}
	for ; k < len(pipes); k++ {
		r.pipe(&pipes[k])
	}
	r.stamps = nil
}

func (r *intReplay) stamp(s wireStamp) {
	var transit uint64
	if r.hops[s.hop].Origin {
		r.mint[s.hop]++
		transit = (uint64(s.hop)+1)<<32 | r.mint[s.hop]
		s.tag = (uint16(s.hop)+1)<<10 | uint16((r.mint[s.hop]-1)%1024)
		r.recent[s.tag] = transit
	} else if transit = r.recent[s.tag]; transit == 0 {
		return
	}
	util := r.lastUtil[s.hop]
	if elapsed := s.at - r.lastAt[s.hop]; elapsed > 0 {
		util = uint16(min(max((s.busy-r.lastBusy[s.hop])*1000/elapsed, 0), 1000))
		r.lastAt[s.hop], r.lastBusy[s.hop], r.lastUtil[s.hop] = s.at, s.busy, util
	}
	r.cross(transit, inband.HopCrossing{Hop: r.hops[s.hop].Name, AtNs: s.at, QueueBytes: max(s.queue, 0), UtilPermille: util})
}

// pipe replays the pipeline stamp a captured mirror copy records.
func (r *intReplay) pipe(e *trace.Entry) {
	transit := r.recent[packet.INTTransit(e.Bytes())]
	if transit == 0 {
		return
	}
	r.binds[e.Meta().Seq] = transit
	r.cross(transit, inband.HopCrossing{Hop: r.hops[r.pipeline].Name, AtNs: int64(e.Time())})
}

// cross appends a crossing to the transit's list and closes the
// latency of the one before it.
func (r *intReplay) cross(transit uint64, c inband.HopCrossing) {
	l := r.transits[transit]
	if len(l) > 0 {
		l[len(l)-1].LatencyNs = c.AtNs - l[len(l)-1].AtNs
	}
	r.transits[transit] = append(l, c)
}

// join annotates g's chains from the replayed transits; PerHop is left
// to the digest both sides share.
func (r *intReplay) join(g *lineage.Graph) []inband.ChainHops {
	if g == nil || len(g.Chains) == 0 {
		return nil
	}
	var out []inband.ChainHops
	for _, ch := range g.Chains {
		ah := inband.ChainHops{Lineage: ch.Lineage, Event: ch.Event.String(), PSN: ch.PSN, Completed: ch.Completed}
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			nh := inband.NodeHops{Kind: string(n.Kind), AtNs: int64(n.At), PSN: n.PSN, Seq: n.Seq}
			if transit, ok := r.binds[n.Seq]; ok && n.Seq != 0 {
				nh.Transit = transit
				nh.Hops = slices.Clone(r.transits[transit])
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
		ref := recordINT(t, tb)
		rep, err := tb.Execute()
		if err != nil {
			t.Fatal(err)
		}
		ref.replay(rep.Trace)
		col := tb.obs.col
		if got, want := rep.INT.Chains, ref.join(rep.Lineage); (cfg.Fabric == nil) != (len(want) > 0) {
			t.Fatalf("%s: the reference joined %d chains", cfg.Name, len(want))
		} else {
			compareJoins(t, cfg.Name, got, want)
		}

		sampled := &lineage.Graph{}
		for i := 0; i < len(rep.Trace.Entries); i += 7 {
			e := &rep.Trace.Entries[i]
			wire := lineage.Node{ID: len(sampled.Nodes), Kind: lineage.NodeInject, At: e.Time(), PSN: e.PSN(), Seq: e.Meta().Seq}
			probe := lineage.Node{ID: wire.ID + 1, Kind: lineage.NodeRewind, At: e.Time() + 1, PSN: e.PSN()}
			sampled.Nodes = append(sampled.Nodes, wire, probe)
			sampled.Chains = append(sampled.Chains, lineage.Chain{Lineage: e.Meta().Seq, PSN: e.PSN(), Nodes: []int{wire.ID, probe.ID}})
		}
		want := ref.join(sampled)
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
		t.Fatalf("%s: %d chains joined, the replay gives %d", what, len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.PerHop = nil
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("%s: chain %d joined as\n%+v\nthe replay gives\n%+v", what, i, g, want[i])
		}
	}
}
