// Package lineage reconstructs causal packet-lifecycle chains from a
// run's artifacts: the mirror trace (what the switch saw) joined with
// the telemetry probe stream (what the endpoints did about it).
//
// Every packet the injector touches already carries a globally unique
// lineage ID — the mirror sequence number the switch stamps into the
// mirror copy's metadata — so no new simulation state is needed: the ID
// is assigned at the injector, rides through the dumper pool into the
// reconstructed trace, and is echoed by the injector/dumper probes.
// Build walks forward from each injected event and links the reactions
// it provoked into a chain:
//
//	inject ─ drop/corrupt ─▶ ooo-arrival ─▶ nack/re-read ─▶ rewind ─▶ retransmit ─▶ complete
//	inject ─ ecn ──────────▶ cnp ─▶ rate-cut
//	inject ─ tail drop ────▶ rto-fire ─▶ rewind ─▶ retransmit ─▶ complete
//
// Chains form a DAG over typed nodes with per-edge virtual-time
// latencies. The trace alone yields the wire-visible nodes (inject,
// ooo-arrival, nack, retransmit); the probe stream adds the nodes only
// the endpoints can see (rewind, rto-fire, rate-cut, completion), so
// Build accepts a nil event slice and degrades gracefully.
//
// Like the telemetry layer it builds on, lineage is strictly offline:
// Build runs after the simulation has terminated and reads state the
// run already produced, so enabling it cannot perturb the packet trace.
package lineage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
)

// NodeKind classifies a lifecycle node.
type NodeKind string

const (
	NodeInject     NodeKind = "inject"      // injector applied the event
	NodeOOO        NodeKind = "ooo-arrival" // first packet that made the gap visible
	NodeNack       NodeKind = "nack"        // NAK(seq-err) observed at the switch
	NodeReRead     NodeKind = "re-read"     // re-issued READ request (implied NAK)
	NodeRTO        NodeKind = "rto-fire"    // sender retransmission timer fired
	NodeRewind     NodeKind = "rewind"      // Go-back-N rewind inside the sender
	NodeRetransmit NodeKind = "retransmit"  // retransmitted PSN back on the wire
	NodeCNP        NodeKind = "cnp"         // congestion notification packet
	NodeRateCut    NodeKind = "rate-cut"    // DCQCN reaction-point rate decrease
	NodeComplete   NodeKind = "complete"    // WQE covering the PSN completed
)

// Node is one vertex of the lineage DAG.
type Node struct {
	ID   int
	Kind NodeKind
	At   sim.Time
	// Label is the human-readable description `explain` prints.
	Label string
	// PSN is the packet sequence number the node concerns (when any).
	PSN uint32
	// Seq is the mirror sequence number for wire-observed nodes (zero
	// for probe-derived nodes, whose evidence never crossed the switch).
	Seq uint64
}

// Edge is one causal step with its virtual-time latency.
type Edge struct {
	From, To int // node IDs
	Label    string
	Latency  sim.Duration
}

// Chain is the causal story of one injected event.
type Chain struct {
	// Lineage is the chain's ID: the mirror sequence number the switch
	// assigned to the packet the event was applied to.
	Lineage uint64
	Event   packet.EventType
	Conn    trace.ConnKey
	PSN     uint32
	// ActorQPN is the QPN of the endpoint engine that reacted (the
	// requester for Go-back-N recovery, the rate-limited sender for
	// DCQCN), when identifiable; zero otherwise.
	ActorQPN uint32
	Nodes    []int // graph node IDs, causal order
	Edges    []Edge
	// Completed reports the chain reached its terminal node: a message
	// completion for loss events, a rate cut for ECN marks.
	Completed bool
}

// Graph is the queryable lineage DAG for one run.
type Graph struct {
	Nodes  []Node
	Chains []Chain
}

// Build reconstructs the lineage DAG from a trace and (optionally) the
// run's probe stream. events may be nil: chains then contain only the
// wire-visible nodes. The probe stream is expected in virtual-time order,
// as a hub records it; one that is not is sorted into a private copy.
func Build(tr *trace.Trace, events []telemetry.Event) *Graph {
	g := &Graph{}
	if tr == nil {
		return g
	}
	events = timeOrdered(events)
	for i := range tr.Entries {
		e := &tr.Entries[i]
		switch e.Meta().Event {
		case packet.EventNone:
		case packet.EventECN:
			g.buildECNChain(tr, i, events)
		case packet.EventDrop, packet.EventCorrupt, packet.EventDelay, packet.EventReorder:
			if e.Opcode().IsData() {
				g.buildRecoveryChain(tr, i, events)
			} else {
				g.buildBareChain(tr, i)
			}
		default: // set-migreq and future one-shot rewrites
			g.buildBareChain(tr, i)
		}
	}
	return g
}

func (g *Graph) addNode(n Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

func (g *Graph) injectNode(e *trace.Entry) Node {
	m := e.Meta()
	return Node{
		Kind: NodeInject, At: e.Time(),
		Label: fmt.Sprintf("injector applied %s to psn %d (mirror seq %d)",
			m.Event, e.PSN(), m.Seq),
		PSN: e.PSN(), Seq: m.Seq,
	}
}

// buildBareChain records an injection with no modelled reaction chain
// (e.g. set-migreq, or an event on a non-data packet).
func (g *Graph) buildBareChain(tr *trace.Trace, di int) {
	e := &tr.Entries[di]
	ch := Chain{Lineage: e.Meta().Seq, Event: e.Meta().Event, Conn: e.Key(), PSN: e.PSN()}
	ch.Nodes = append(ch.Nodes, g.addNode(g.injectNode(e)))
	ch.Completed = true // nothing further to wait for
	g.Chains = append(g.Chains, ch)
}

// buildRecoveryChain follows a loss-class event (drop, corrupt, or the
// spurious-NAK races delay/reorder can provoke) through Go-back-N
// recovery to message completion.
func (g *Graph) buildRecoveryChain(tr *trace.Trace, di int, events []telemetry.Event) {
	e := &tr.Entries[di]
	isRead := e.Opcode().IsReadResponse()
	psn := e.PSN()
	ch := Chain{Lineage: e.Meta().Seq, Event: e.Meta().Event, Conn: e.Key(), PSN: psn}

	trigger, nack, retrans := tr.Recovery(di)

	link := func(from, to int, label string) {
		ch.Edges = append(ch.Edges, Edge{
			From: from, To: to, Label: label,
			Latency: g.Nodes[to].At.Sub(g.Nodes[from].At),
		})
	}
	last := g.addNode(g.injectNode(e))
	ch.Nodes = append(ch.Nodes, last)

	if trigger != nil && (nack != nil || retrans != nil) {
		id := g.addNode(Node{
			Kind: NodeOOO, At: trigger.Time(),
			Label: fmt.Sprintf("psn %d arrived out of order, exposing the gap at psn %d",
				trigger.PSN(), psn),
			PSN: trigger.PSN(), Seq: trigger.Meta().Seq,
		})
		ch.Nodes = append(ch.Nodes, id)
		link(last, id, "gap_detect")
		last = id
	}
	nackAt := sim.Time(0)
	if nack != nil {
		kind, label := NodeNack, fmt.Sprintf("receiver sent NAK(seq-err) naming first missing psn %d", psn)
		if isRead {
			kind, label = NodeReRead, fmt.Sprintf("requester re-issued READ from psn %d (implied NAK)", psn)
		}
		id := g.addNode(Node{Kind: kind, At: nack.Time(), Label: label, PSN: psn, Seq: nack.Meta().Seq})
		ch.Nodes = append(ch.Nodes, id)
		link(last, id, "nack_gen")
		last = id
		nackAt = nack.Time()
		if isRead {
			// Re-read requests carry the responder's QPN; the engine that
			// rewound is the requester, i.e. the data packets' DestQP.
			ch.ActorQPN = ch.Conn.DstQPN
		} else {
			ch.ActorQPN = nack.DestQP()
		}
	}
	retransAt := sim.Time(0)
	if retrans != nil {
		retransAt = retrans.Time()
	}

	// Probe-derived interior nodes: the sender-side timer and rewind,
	// both on the requester's own track (every QP's timer fires into the
	// same window when several lose packets at once).
	track := requesterTrack(events, e, isRead)
	if nack == nil && retrans != nil {
		if rto := findEvent(events, e.Time(), retransAt, func(ev *telemetry.Event) bool {
			if ev.Kind() != telemetry.KindRetransTimer || ev.Name() != "fire" || ev.Track() != track {
				return false
			}
			una, ok := argI(ev, "una_psn")
			return ok && !trace.PSNLess(psn, uint32(una)&psnMask)
		}); rto != nil {
			retry, _ := argI(rto, "retry")
			id := g.addNode(Node{
				Kind: NodeRTO, At: sim.Time(rto.At),
				Label: fmt.Sprintf("sender retransmission timer fired (retry %d)", retry),
				PSN:   psn,
			})
			ch.Nodes = append(ch.Nodes, id)
			link(last, id, "rto_wait")
			last = id
			nackAt = sim.Time(rto.At)
			if qpn, ok := trackQPN(rto.Track()); ok {
				ch.ActorQPN = qpn
			}
		}
	}
	if nackAt != 0 || retrans != nil {
		from := nackAt
		if from == 0 {
			from = e.Time()
		}
		if rw := findEvent(events, from, retransAt, func(ev *telemetry.Event) bool {
			if ev.Kind() != telemetry.KindRetransGBN || ev.Name() != "rewind" || ev.Track() != track {
				return false
			}
			p, ok := argI(ev, "psn")
			return ok && uint32(p)&psnMask == psn
		}); rw != nil {
			id := g.addNode(Node{
				Kind: NodeRewind, At: sim.Time(rw.At),
				Label: fmt.Sprintf("sender rewound send state to psn %d (go-back-n)", psn),
				PSN:   psn,
			})
			ch.Nodes = append(ch.Nodes, id)
			link(last, id, "nack_react")
			last = id
			if ch.ActorQPN == 0 {
				if qpn, ok := trackQPN(rw.Track()); ok {
					ch.ActorQPN = qpn
				}
			}
		}
	}
	if retrans != nil {
		label := fmt.Sprintf("psn %d retransmitted onto the wire", psn)
		if retrans.Meta().Event == packet.EventDrop {
			label += " (and dropped again by the injector)"
		}
		id := g.addNode(Node{Kind: NodeRetransmit, At: retransAt, Label: label, PSN: psn, Seq: retrans.Meta().Seq})
		ch.Nodes = append(ch.Nodes, id)
		// Without the rewind probe (trace-only build) the hop from the
		// NAK covers the whole sender reaction, not just serialization.
		edgeLabel := "retx_tx"
		switch g.Nodes[last].Kind {
		case NodeNack, NodeReRead:
			edgeLabel = "nack_react"
		case NodeInject, NodeOOO:
			edgeLabel = "recovery"
		}
		link(last, id, edgeLabel)
		last = id

		// Completion: the first WQE whose PSN range covers the dropped
		// PSN and that completed after the retransmission.
		if done := findEvent(events, retransAt, 0, func(ev *telemetry.Event) bool {
			if ev.Kind() != telemetry.KindTrafficMsg || ev.Name() != "wqe_complete" || ev.Track() != track {
				return false
			}
			start, ok1 := argI(ev, "start_psn")
			end, ok2 := argI(ev, "end_psn")
			return ok1 && ok2 && psnInRange(psn, uint32(start)&psnMask, uint32(end)&psnMask)
		}); done != nil {
			wrID, _ := argI(done, "wr_id")
			status := argS(done, "status")
			id := g.addNode(Node{
				Kind: NodeComplete, At: sim.Time(done.At),
				Label: fmt.Sprintf("message completed (wr_id %d, status %s)", wrID, status),
				PSN:   psn,
			})
			ch.Nodes = append(ch.Nodes, id)
			link(last, id, "deliver")
			ch.Completed = status == "OK"
		}
	}
	g.Chains = append(g.Chains, ch)
}

// buildECNChain follows a CE mark to the CNP it provoked and the DCQCN
// rate cut the CNP caused at the sender.
func (g *Graph) buildECNChain(tr *trace.Trace, di int, events []telemetry.Event) {
	e := &tr.Entries[di]
	ch := Chain{Lineage: e.Meta().Seq, Event: e.Meta().Event, Conn: e.Key(), PSN: e.PSN()}
	last := g.addNode(g.injectNode(e))
	ch.Nodes = append(ch.Nodes, last)

	link := func(from, to int, label string) {
		ch.Edges = append(ch.Edges, Edge{
			From: from, To: to, Label: label,
			Latency: g.Nodes[to].At.Sub(g.Nodes[from].At),
		})
	}

	// The receiver's notification point answers with a CNP flowing
	// opposite the data direction (possibly suppressed by the NIC's
	// CNP rate limiter — then the chain ends at the injection).
	var cnp *trace.Entry
	for i := di + 1; i < len(tr.Entries); i++ {
		c := &tr.Entries[i]
		if c.Opcode().IsCNP() && c.Reverses(e) {
			cnp = c
			break
		}
	}
	if cnp == nil {
		g.Chains = append(g.Chains, ch)
		return
	}
	id := g.addNode(Node{
		Kind: NodeCNP, At: cnp.Time(),
		Label: fmt.Sprintf("notification point sent CNP toward qp 0x%06x", cnp.DestQP()),
		Seq:   cnp.Meta().Seq,
	})
	ch.Nodes = append(ch.Nodes, id)
	link(last, id, "cnp_gen")
	last = id
	ch.ActorQPN = cnp.DestQP()

	if cut := findEvent(events, cnp.Time(), 0, func(ev *telemetry.Event) bool {
		if ev.Kind() != telemetry.KindDCQCNRate || !ev.Counter() {
			return false
		}
		qpn, ok := trackQPN(ev.Track())
		return ok && qpn == cnp.DestQP()
	}); cut != nil {
		var rate int64
		if cut.NumArgs() > 0 {
			rate = cut.Arg(0).Val
		}
		id := g.addNode(Node{
			Kind: NodeRateCut, At: sim.Time(cut.At),
			Label: fmt.Sprintf("reaction point cut paced rate to %d Mbps", rate),
		})
		ch.Nodes = append(ch.Nodes, id)
		link(last, id, "rate_react")
		ch.Completed = true
	}
	g.Chains = append(g.Chains, ch)
}

// ChainsOf returns the lineage IDs of chains for the given event types,
// in chain (mirror-sequence) order.
func (g *Graph) ChainsOf(events ...packet.EventType) []uint64 {
	var ids []uint64
	for i := range g.Chains {
		for _, ev := range events {
			if g.Chains[i].Event == ev {
				ids = append(ids, g.Chains[i].Lineage)
				break
			}
		}
	}
	return ids
}

// --- probe-stream helpers ---

// timeOrdered returns events in At order, emission order kept among
// equal stamps: the slice itself when it already is (a hub's stream,
// emitted by a simulator whose clock never runs backwards), else a
// stably sorted copy. findEvent relies on the order, so Build checks it
// once instead of trusting every caller.
func timeOrdered(events []telemetry.Event) []telemetry.Event {
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			events = slices.Clone(events)
			slices.SortStableFunc(events, func(a, b telemetry.Event) int { return cmp.Compare(a.At, b.At) })
			break
		}
	}
	return events
}

// findEvent returns the earliest event in [from, to] (to 0 = unbounded)
// satisfying pred, the first emitted among those sharing its stamp.
// Precondition, established by timeOrdered: events is At-ordered. The
// lookup is then a binary search to from and a walk that ends at the
// first match or past to.
func findEvent(events []telemetry.Event, from, to sim.Time, pred func(*telemetry.Event) bool) *telemetry.Event {
	start := sort.Search(len(events), func(i int) bool { return sim.Time(events[i].At) >= from })
	for i := start; i < len(events); i++ {
		ev := &events[i]
		if to != 0 && sim.Time(ev.At) > to {
			return nil
		}
		if pred(ev) {
			return ev
		}
	}
	return nil
}

// requesterTrack names the track of the QP that recovers data packet e:
// for a Read response the QP it is addressed to, else the QP whose RTS
// probe names e's destination as its remote. "" when no probe says.
func requesterTrack(events []telemetry.Event, e *trace.Entry, isRead bool) string {
	dst := e.DestQP()
	for i := range events {
		ev := &events[i]
		if ev.Kind() != telemetry.KindQPState || ev.Name() != "RTS" {
			continue
		}
		if isRead {
			if qpn, ok := trackQPN(ev.Track()); ok && qpn == dst {
				return ev.Track()
			}
		} else if remote, ok := argI(ev, "remote_qpn"); ok && uint32(remote) == dst {
			return ev.Track()
		}
	}
	return ""
}

func argI(ev *telemetry.Event, key string) (int64, bool) {
	f, ok := ev.Lookup(key)
	return f.Val, ok
}

func argS(ev *telemetry.Event, key string) string {
	f, _ := ev.Lookup(key)
	return f.Str
}

// trackQPN extracts the QPN from a per-QP telemetry track name of the
// form "<node>/qp-0x%06x" (also used by dcqcn rate counter tracks).
func trackQPN(track string) (uint32, bool) {
	i := strings.LastIndex(track, "/qp-0x")
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(track[i+len("/qp-0x"):], 16, 32)
	if err != nil {
		return 0, false
	}
	return uint32(v), true
}

const psnMask = packet.PSNMask

// psnInRange reports start <= p <= end in circular PSN space.
func psnInRange(p, start, end uint32) bool {
	return (p-start)&psnMask <= (end-start)&psnMask
}
