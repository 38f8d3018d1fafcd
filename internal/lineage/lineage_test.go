package lineage_test

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/trace"
)

func runScenario(t *testing.T, mutate func(*config.Test)) *orchestrator.Report {
	t.Helper()
	cfg := config.Default()
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 3
	cfg.Traffic.MessageSize = 10240
	if mutate != nil {
		mutate(&cfg)
	}
	opts := orchestrator.DefaultOptions()
	opts.Telemetry = true
	opts.Lineage = true
	rep, err := orchestrator.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut {
		t.Fatal("run timed out")
	}
	if rep.Lineage == nil {
		t.Fatal("no lineage graph on the report")
	}
	return rep
}

// chainByID returns the chain with the given lineage ID, or nil.
func chainByID(g *lineage.Graph, id uint64) *lineage.Chain {
	for i := range g.Chains {
		if g.Chains[i].Lineage == id {
			return &g.Chains[i]
		}
	}
	return nil
}

func kinds(g *lineage.Graph, ch *lineage.Chain) []lineage.NodeKind {
	var out []lineage.NodeKind
	for _, id := range ch.Nodes {
		out = append(out, g.Nodes[id].Kind)
	}
	return out
}

// The acceptance scenario: a dropped data packet must yield the full
// causal chain — injection, NACK, rewind, retransmission, completion —
// with non-negative virtual-time latencies on every edge.
func TestDropChainHasFullCausalStory(t *testing.T) {
	rep := runScenario(t, func(c *config.Test) {
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
	})
	g := rep.Lineage
	ids := g.ChainsOf(packet.EventDrop)
	if len(ids) != 1 {
		t.Fatalf("drop chains = %v, want exactly 1", ids)
	}
	ch := chainByID(g, ids[0])
	if ch == nil || !ch.Completed {
		t.Fatalf("drop chain not completed: %+v", ch)
	}

	got := map[lineage.NodeKind]bool{}
	for _, k := range kinds(g, ch) {
		got[k] = true
	}
	for _, k := range []lineage.NodeKind{
		lineage.NodeInject, lineage.NodeNack, lineage.NodeRewind,
		lineage.NodeRetransmit, lineage.NodeComplete,
	} {
		if !got[k] {
			t.Fatalf("chain misses %q node; has %v", k, kinds(g, ch))
		}
	}
	if len(ch.Edges) != len(ch.Nodes)-1 {
		t.Fatalf("%d edges for %d nodes", len(ch.Edges), len(ch.Nodes))
	}
	for _, e := range ch.Edges {
		if e.Latency < 0 {
			t.Fatalf("edge %q has negative latency %v", e.Label, e.Latency)
		}
		if e.Label == "" {
			t.Fatal("edge without label")
		}
	}
	if ch.ActorQPN == 0 {
		t.Fatal("chain did not identify the reacting QPN")
	}

	// The rendered story, as `lumina trace explain` prints it, names
	// every lifecycle stage.
	var story string
	for _, it := range g.Summarize().Items {
		if it.Lineage == ch.Lineage {
			story = it.Story()
		}
	}
	for _, want := range []string{"inject", "nack", "rewind", "retransmit", "complete", "µs"} {
		if !strings.Contains(story, want) {
			t.Fatalf("story misses %q:\n%s", want, story)
		}
	}
}

// An ECN mark must chain to the CNP it provoked and the DCQCN rate cut
// at the reaction point.
func TestECNChainReachesRateCut(t *testing.T) {
	rep := runScenario(t, func(c *config.Test) {
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 4, Type: "ecn", Iter: 1}}
	})
	g := rep.Lineage
	ids := g.ChainsOf(packet.EventECN)
	if len(ids) != 1 {
		t.Fatalf("ecn chains = %v, want exactly 1", ids)
	}
	ch := chainByID(g, ids[0])
	ks := kinds(g, ch)
	want := []lineage.NodeKind{lineage.NodeInject, lineage.NodeCNP, lineage.NodeRateCut}
	if len(ks) != len(want) {
		t.Fatalf("ecn chain nodes = %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("ecn chain nodes = %v, want %v", ks, want)
		}
	}
	if !ch.Completed {
		t.Fatal("ecn chain with a rate cut should be completed")
	}
}

// Without the probe stream (pcap-only reconstruction) the chain still
// carries every wire-visible node.
func TestTraceOnlyBuildDegradesGracefully(t *testing.T) {
	rep := runScenario(t, func(c *config.Test) {
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
	})
	g := lineage.Build(rep.Trace, nil)
	ids := g.ChainsOf(packet.EventDrop)
	if len(ids) != 1 {
		t.Fatalf("drop chains = %v", ids)
	}
	ch := chainByID(g, ids[0])
	got := map[lineage.NodeKind]bool{}
	for _, k := range kinds(g, ch) {
		got[k] = true
	}
	for _, k := range []lineage.NodeKind{lineage.NodeInject, lineage.NodeOOO, lineage.NodeNack, lineage.NodeRetransmit} {
		if !got[k] {
			t.Fatalf("trace-only chain misses %q; has %v", k, kinds(g, ch))
		}
	}
	if got[lineage.NodeRewind] || got[lineage.NodeComplete] {
		t.Fatalf("trace-only chain has probe-derived nodes: %v", kinds(g, ch))
	}

	// Summaries round-trip the same structure the live graph has.
	s := g.Summarize()
	if s.Total != len(g.Chains) || len(s.Items) != s.Total {
		t.Fatalf("summary totals %d/%d for %d chains", s.Total, len(s.Items), len(g.Chains))
	}
	it := s.Items[0]
	if it.Lineage != ch.Lineage || len(it.Nodes) != len(ch.Nodes) || len(it.Edges) != len(ch.Edges) {
		t.Fatalf("summary item mismatch: %+v vs chain %+v", it, ch)
	}
	if !strings.Contains(it.Story(), "inject") || !strings.Contains(it.Story(), "drop") {
		t.Fatalf("rendering broken:\n%s", it.Story())
	}
}

// A read-verb drop recovers via re-read (implied NAK), not a NAK packet.
func TestReadDropChainUsesReRead(t *testing.T) {
	rep := runScenario(t, func(c *config.Test) {
		c.Traffic.Verb = "read"
		c.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
	})
	g := rep.Lineage
	ids := g.ChainsOf(packet.EventDrop)
	if len(ids) != 1 {
		t.Fatalf("drop chains = %v", ids)
	}
	got := map[lineage.NodeKind]bool{}
	for _, k := range kinds(g, chainByID(g, ids[0])) {
		got[k] = true
	}
	if !got[lineage.NodeReRead] || got[lineage.NodeNack] {
		t.Fatalf("read recovery should use re-read: %v", kinds(g, chainByID(g, ids[0])))
	}
	if !got[lineage.NodeRetransmit] {
		t.Fatalf("read drop not retransmitted: %v", kinds(g, chainByID(g, ids[0])))
	}
}

// Build on an empty/none input stays well-defined.
func TestBuildNilAndEmpty(t *testing.T) {
	if g := lineage.Build(nil, nil); len(g.Chains) != 0 || len(g.Nodes) != 0 {
		t.Fatal("nil trace produced chains")
	}
	rep := runScenario(t, nil) // no injected events
	if g := rep.Lineage; len(g.Chains) != 0 {
		t.Fatalf("event-free run produced %d chains", len(g.Chains))
	}
	s := rep.Lineage.Summarize()
	if s.Total != 0 || s.ByEvent != nil {
		t.Fatalf("empty summary = %+v", s)
	}
}

// A chain's node IDs and edges are windows into slabs the whole graph
// shares: appending to one chain's must not show through in the next.
func TestChainWindowsAreClipped(t *testing.T) {
	rep := runScenario(t, func(c *config.Test) {
		c.Traffic.NumConnections = 2
		c.Traffic.Events = []config.Event{
			{QPN: 1, PSN: 5, Type: "drop", Iter: 1},
			{QPN: 2, PSN: 3, Type: "ecn", Iter: 1},
			{QPN: 1, PSN: 9, Type: "ecn", Iter: 1},
		}
	})
	g := rep.Lineage
	if len(g.Chains) < 3 {
		t.Fatalf("%d chains, want 3", len(g.Chains))
	}
	for i := 0; i+1 < len(g.Chains); i++ {
		next := &g.Chains[i+1]
		nodes, edges := slices.Clone(next.Nodes), slices.Clone(next.Edges)
		_ = append(g.Chains[i].Nodes, -1)
		_ = append(g.Chains[i].Edges, lineage.Edge{From: -1, To: -1, Label: "shown through"})
		if !slices.Equal(next.Nodes, nodes) || !slices.Equal(next.Edges, edges) {
			t.Fatalf("appending to chain %d changed chain %d: nodes %v → %v, edges %v → %v", i, i+1, nodes, next.Nodes, edges, next.Edges)
		}
	}
}

// Every label reads as fmt renders it from what its node and chain hold
// (a prefix where the rest comes from a probe argument the graph does
// not keep). The runs must name a QPN below 0x100000, whose hex needs
// padding.
func TestLabelsMatchSprintf(t *testing.T) {
	seen := map[lineage.NodeKind]bool{}
	padded := false
	for seed := int64(1); seed <= 64 && (!padded || seed <= 4); seed++ {
		verb := []string{"write", "read"}[seed%2]
		rep := runScenario(t, func(c *config.Test) {
			c.Seed = seed
			c.Traffic.Verb = verb
			c.Traffic.NumConnections = 4
			c.Traffic.Events = []config.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
			for q := 1; q <= 4; q++ {
				c.Traffic.Events = append(c.Traffic.Events, config.Event{QPN: q, PSN: 2, Type: "ecn", Iter: 1})
			}
		})
		g := rep.Lineage
		for ci := range g.Chains {
			ch := &g.Chains[ci]
			for _, id := range ch.Nodes {
				n := &g.Nodes[id]
				seen[n.Kind] = true
				var want string
				prefix := false
				switch n.Kind {
				case lineage.NodeInject:
					want = fmt.Sprintf("injector applied %s to psn %d (mirror seq %d)", ch.Event, n.PSN, n.Seq)
				case lineage.NodeOOO:
					want = fmt.Sprintf("psn %d arrived out of order, exposing the gap at psn %d", n.PSN, ch.PSN)
				case lineage.NodeNack:
					want = fmt.Sprintf("receiver sent NAK(seq-err) naming first missing psn %d", ch.PSN)
				case lineage.NodeReRead:
					want = fmt.Sprintf("requester re-issued READ from psn %d (implied NAK)", ch.PSN)
				case lineage.NodeRewind:
					want = fmt.Sprintf("sender rewound send state to psn %d (go-back-n)", ch.PSN)
				case lineage.NodeRetransmit:
					want, prefix = fmt.Sprintf("psn %d retransmitted onto the wire", ch.PSN), true
				case lineage.NodeCNP:
					want = fmt.Sprintf("notification point sent CNP toward qp 0x%06x", ch.ActorQPN)
					padded = padded || ch.ActorQPN < 0x100000
				case lineage.NodeRTO:
					want, prefix = "sender retransmission timer fired (retry ", true
				case lineage.NodeComplete:
					want, prefix = "message completed (wr_id ", true
				case lineage.NodeRateCut:
					want, prefix = "reaction point cut paced rate to ", true
				}
				if n.Label != want && !(prefix && strings.HasPrefix(n.Label, want)) {
					t.Fatalf("seed %d: %s label %q, want %q", seed, n.Kind, n.Label, want)
				}
			}
		}
	}
	if !padded {
		t.Fatal("no CNP went toward a QPN below 0x100000")
	}
	for _, k := range []lineage.NodeKind{lineage.NodeInject, lineage.NodeOOO, lineage.NodeNack, lineage.NodeReRead,
		lineage.NodeRewind, lineage.NodeRetransmit, lineage.NodeCNP, lineage.NodeComplete, lineage.NodeRateCut} {
		if !seen[k] {
			t.Errorf("no %s node built", k)
		}
	}
}

// AppendConn renders a connection between valid addresses as fmt's
// "%s>%s/qp-0x%06x" does.
func TestAppendConnMatchesSprintf(t *testing.T) {
	for _, k := range []trace.ConnKey{
		{Src: netip.MustParseAddr("10.0.0.2"), Dst: netip.MustParseAddr("10.0.0.3"), DstQPN: 0x622887},
		{Src: netip.MustParseAddr("10.0.0.3"), Dst: netip.MustParseAddr("10.0.0.2"), DstQPN: 0x11},
		{Src: netip.MustParseAddr("fe80::1%eth<0>"), Dst: netip.MustParseAddr("::ffff:10.0.0.1"), DstQPN: 0xffffffff},
	} {
		if got, want := string(lineage.AppendConn(nil, k)), fmt.Sprintf("%s>%s/qp-0x%06x", k.Src, k.Dst, k.DstQPN); got != want {
			t.Errorf("AppendConn gives %q, fmt %q", got, want)
		}
	}
}
