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
//
// The graph is sized once, from a count of the trace's injected
// entries: every chain's node IDs and edges are capacity-clipped
// windows into two slabs the whole graph shares, and every label is
// appended to one buffer, so a chain costs no allocation of its own.
func Build(tr *trace.Trace, events []telemetry.Event) *Graph {
	g := &Graph{}
	if tr == nil {
		return g
	}
	events = timeOrdered(events)
	var chains, nodes int
	for i := range tr.Entries {
		if n := chainNodes(&tr.Entries[i]); n > 0 {
			chains, nodes = chains+1, nodes+n
		}
	}
	if chains == 0 {
		return g
	}
	b := &builder{
		g:      g,
		ids:    make([]int, 0, nodes),
		edges:  make([]Edge, 0, nodes-chains), // chains are paths
		labels: make([]byte, 0, nodes*labelBytes),
		ends:   make([]int, 0, nodes),
	}
	g.Nodes = make([]Node, 0, nodes)
	g.Chains = make([]Chain, 0, chains)
	for i := range tr.Entries {
		switch chainNodes(&tr.Entries[i]) {
		case ecnNodes:
			b.buildECNChain(tr, i, events)
		case recoveryNodes:
			b.buildRecoveryChain(tr, i, events)
		case 1:
			b.buildBareChain(tr, i)
		}
	}
	// One string holds every label; each node's is a substring of it.
	labels, start := string(b.labels), 0
	for i, end := range b.ends {
		g.Nodes[i].Label = labels[start:end]
		start = end
	}
	return g
}

// The most nodes one chain can hold: inject, ooo-arrival, nack or
// rto-fire, rewind, retransmit and complete for a recovery chain;
// inject, cnp and rate-cut for an ECN chain. labelBytes is what a label
// takes on average, rounded up.
const (
	recoveryNodes = 6
	ecnNodes      = 3
	labelBytes    = 48
)

// chainNodes classifies a trace entry by the chain it starts: none (0)
// for an entry the injector left alone, a recovery chain for a
// loss-class event (drop, corrupt, or the spurious-NAK races delay and
// reorder can provoke) on a data packet, an ECN chain, or a bare
// one-node chain for any other injection (set-migreq, an event on a
// non-data packet, future one-shot rewrites). It returns the most nodes
// that chain can hold.
func chainNodes(e *trace.Entry) int {
	switch e.Meta().Event {
	case packet.EventNone:
		return 0
	case packet.EventECN:
		return ecnNodes
	case packet.EventDrop, packet.EventCorrupt, packet.EventDelay, packet.EventReorder:
		if e.Opcode().IsData() {
			return recoveryNodes
		}
	}
	return 1
}

// builder fills one Graph: the node IDs and edges of every chain go to
// shared slabs, and every label to one buffer, ends[i] marking where
// node i's label ends.
type builder struct {
	g      *Graph
	ids    []int
	edges  []Edge
	labels []byte
	ends   []int
}

// chain is one chain under construction: where its windows start in the
// slabs.
type chain struct {
	Chain
	ids, edges int
}

func (b *builder) open(e *trace.Entry) chain {
	m := e.Meta()
	return chain{Chain: Chain{Lineage: m.Seq, Event: m.Event, Conn: e.Key(), PSN: e.PSN()}, ids: len(b.ids), edges: len(b.edges)}
}

// close clips the chain's windows into the slabs and adds it to the
// graph.
func (b *builder) close(ch *chain) {
	ch.Nodes = b.ids[ch.ids:len(b.ids):len(b.ids)]
	if len(b.edges) > ch.edges {
		ch.Edges = b.edges[ch.edges:len(b.edges):len(b.edges)]
	}
	b.g.Chains = append(b.g.Chains, ch.Chain)
}

// add appends n to the graph and to the chain, its label being the
// bytes appended to b.labels since the previous node's, and returns its
// ID.
func (b *builder) add(n Node) int {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	b.ids = append(b.ids, n.ID)
	b.ends = append(b.ends, len(b.labels))
	return n.ID
}

// link appends the causal step from → to to the chain being built.
func (b *builder) link(from, to int, label string) {
	nodes := b.g.Nodes
	b.edges = append(b.edges, Edge{From: from, To: to, Label: label, Latency: nodes[to].At.Sub(nodes[from].At)})
}

// text, num and snum append label fragments: a string, an unsigned and
// a signed decimal.
func (b *builder) text(s string) *builder {
	b.labels = append(b.labels, s...)
	return b
}

func (b *builder) num(v uint64) *builder {
	b.labels = strconv.AppendUint(b.labels, v, 10)
	return b
}

func (b *builder) snum(v int64) *builder {
	b.labels = strconv.AppendInt(b.labels, v, 10)
	return b
}

func (b *builder) inject(e *trace.Entry) int {
	m := e.Meta()
	b.text("injector applied ").text(m.Event.String()).text(" to psn ").num(uint64(e.PSN())).text(" (mirror seq ").num(m.Seq).text(")")
	return b.add(Node{Kind: NodeInject, At: e.Time(), PSN: e.PSN(), Seq: m.Seq})
}

// buildBareChain records an injection with no modelled reaction chain
// (e.g. set-migreq, or an event on a non-data packet).
func (b *builder) buildBareChain(tr *trace.Trace, di int) {
	ch := b.open(&tr.Entries[di])
	b.inject(&tr.Entries[di])
	ch.Completed = true // nothing further to wait for
	b.close(&ch)
}

// buildRecoveryChain follows a loss-class event (drop, corrupt, or the
// spurious-NAK races delay/reorder can provoke) through Go-back-N
// recovery to message completion.
func (b *builder) buildRecoveryChain(tr *trace.Trace, di int, events []telemetry.Event) {
	e := &tr.Entries[di]
	isRead := e.Opcode().IsReadResponse()
	psn := e.PSN()
	ch := b.open(e)

	trigger, nack, retrans := tr.Recovery(di)

	last := b.inject(e)

	if trigger != nil && (nack != nil || retrans != nil) {
		b.text("psn ").num(uint64(trigger.PSN())).text(" arrived out of order, exposing the gap at psn ").num(uint64(psn))
		id := b.add(Node{Kind: NodeOOO, At: trigger.Time(), PSN: trigger.PSN(), Seq: trigger.Meta().Seq})
		b.link(last, id, "gap_detect")
		last = id
	}
	nackAt := sim.Time(0)
	if nack != nil {
		kind := NodeNack
		if isRead {
			kind = NodeReRead
			b.text("requester re-issued READ from psn ").num(uint64(psn)).text(" (implied NAK)")
		} else {
			b.text("receiver sent NAK(seq-err) naming first missing psn ").num(uint64(psn))
		}
		id := b.add(Node{Kind: kind, At: nack.Time(), PSN: psn, Seq: nack.Meta().Seq})
		b.link(last, id, "nack_gen")
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
			b.text("sender retransmission timer fired (retry ").snum(retry).text(")")
			id := b.add(Node{Kind: NodeRTO, At: sim.Time(rto.At), PSN: psn})
			b.link(last, id, "rto_wait")
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
			b.text("sender rewound send state to psn ").num(uint64(psn)).text(" (go-back-n)")
			id := b.add(Node{Kind: NodeRewind, At: sim.Time(rw.At), PSN: psn})
			b.link(last, id, "nack_react")
			last = id
			if ch.ActorQPN == 0 {
				if qpn, ok := trackQPN(rw.Track()); ok {
					ch.ActorQPN = qpn
				}
			}
		}
	}
	if retrans != nil {
		b.text("psn ").num(uint64(psn)).text(" retransmitted onto the wire")
		if retrans.Meta().Event == packet.EventDrop {
			b.text(" (and dropped again by the injector)")
		}
		id := b.add(Node{Kind: NodeRetransmit, At: retransAt, PSN: psn, Seq: retrans.Meta().Seq})
		// Without the rewind probe (trace-only build) the hop from the
		// NAK covers the whole sender reaction, not just serialization.
		edgeLabel := "retx_tx"
		switch b.g.Nodes[last].Kind {
		case NodeNack, NodeReRead:
			edgeLabel = "nack_react"
		case NodeInject, NodeOOO:
			edgeLabel = "recovery"
		}
		b.link(last, id, edgeLabel)
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
			b.text("message completed (wr_id ").snum(wrID).text(", status ").text(status).text(")")
			id := b.add(Node{Kind: NodeComplete, At: sim.Time(done.At), PSN: psn})
			b.link(last, id, "deliver")
			ch.Completed = status == "OK"
		}
	}
	b.close(&ch)
}

// buildECNChain follows a CE mark to the CNP it provoked and the DCQCN
// rate cut the CNP caused at the sender.
func (b *builder) buildECNChain(tr *trace.Trace, di int, events []telemetry.Event) {
	e := &tr.Entries[di]
	ch := b.open(e)
	last := b.inject(e)

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
		b.close(&ch)
		return
	}
	b.labels = appendQPN(b.text("notification point sent CNP toward qp ").labels, cnp.DestQP())
	id := b.add(Node{Kind: NodeCNP, At: cnp.Time(), Seq: cnp.Meta().Seq})
	b.link(last, id, "cnp_gen")
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
		b.text("reaction point cut paced rate to ").snum(rate).text(" Mbps")
		id := b.add(Node{Kind: NodeRateCut, At: sim.Time(cut.At)})
		b.link(last, id, "rate_react")
		ch.Completed = true
	}
	b.close(&ch)
}

// appendQPN appends qpn as fmt's "0x%06x" renders it.
func appendQPN(dst []byte, qpn uint32) []byte {
	var digits [8]byte
	hex := strconv.AppendUint(digits[:0], uint64(qpn), 16)
	dst = append(dst, "0x"...)
	for i := len(hex); i < 6; i++ {
		dst = append(dst, '0')
	}
	return append(dst, hex...)
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
