package lineage

import (
	"fmt"
	"strings"

	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// ChainsSummary is the JSON-stable form of a Graph, embedded in
// summary.json. Field order is fixed by the struct; ByEvent is rendered
// with sorted keys by encoding/json, so same-seed runs serialize
// byte-identically.
type ChainsSummary struct {
	Total     int            `json:"total"`
	Completed int            `json:"completed"`
	ByEvent   map[string]int `json:"by_event,omitempty"`
	Items     []ChainItem    `json:"items,omitempty"`
}

// ChainItem is one serialized chain. Node/edge indices are local to the
// item so a ChainItem deserialized from summary.json is self-contained
// — `lumina trace explain` prints stories from either a live Graph or a
// parsed summary through the same code.
type ChainItem struct {
	Lineage   uint64     `json:"lineage"`
	Event     string     `json:"event"`
	Conn      string     `json:"conn"`
	PSN       uint32     `json:"psn"`
	ActorQPN  uint32     `json:"actor_qpn,omitempty"`
	Completed bool       `json:"completed"`
	Nodes     []NodeItem `json:"nodes"`
	Edges     []EdgeItem `json:"edges,omitempty"`
}

// NodeItem is one serialized lifecycle node.
type NodeItem struct {
	Kind  string `json:"kind"`
	AtNs  int64  `json:"at_ns"`
	Label string `json:"label"`
	PSN   uint32 `json:"psn,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// EdgeItem is one serialized causal step; From/To index into the
// enclosing item's Nodes.
type EdgeItem struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	Label     string `json:"label"`
	LatencyNs int64  `json:"latency_ns"`
}

// AppendConn appends k as fmt's "%s>%s/qp-0x%06x" renders it, except
// that a zero address appends nothing.
func AppendConn(dst []byte, k trace.ConnKey) []byte {
	dst = k.Src.AppendTo(dst)
	dst = append(dst, '>')
	dst = k.Dst.AppendTo(dst)
	return appendQPN(append(dst, "/qp-"...), k.DstQPN)
}

// Local returns the position of node id in the chain, the last one when
// it repeats and 0 when it is absent: the index a serialized edge names
// its ends by.
func (ch *Chain) Local(id int) int {
	for k := len(ch.Nodes) - 1; k >= 0; k-- {
		if ch.Nodes[k] == id {
			return k
		}
	}
	return 0
}

// Summarize converts the graph into its serializable form. It counts
// the nodes and edges first, so every item's nodes and edges are windows
// into two slabs of exactly that size, and names each distinct
// connection once.
func (g *Graph) Summarize() *ChainsSummary {
	s := &ChainsSummary{Total: len(g.Chains)}
	if len(g.Chains) == 0 {
		return s
	}
	var nodes, edges int
	for i := range g.Chains {
		nodes += len(g.Chains[i].Nodes)
		edges += len(g.Chains[i].Edges)
	}
	s.ByEvent = map[string]int{}
	s.Items = make([]ChainItem, len(g.Chains))
	nodeSlab, edgeSlab := make([]NodeItem, nodes), make([]EdgeItem, edges)
	names := map[trace.ConnKey]string{}
	for ci := range g.Chains {
		ch := &g.Chains[ci]
		if ch.Completed {
			s.Completed++
		}
		s.ByEvent[ch.Event.String()]++
		conn, ok := names[ch.Conn]
		if !ok {
			var buf [64]byte
			conn = string(AppendConn(buf[:0], ch.Conn))
			names[ch.Conn] = conn
		}
		it := &s.Items[ci]
		*it = ChainItem{
			Lineage: ch.Lineage, Event: ch.Event.String(), Conn: conn, PSN: ch.PSN,
			ActorQPN: ch.ActorQPN, Completed: ch.Completed,
		}
		if n := len(ch.Nodes); n > 0 {
			it.Nodes, nodeSlab = nodeSlab[:n:n], nodeSlab[n:]
			for k, id := range ch.Nodes {
				n := &g.Nodes[id]
				it.Nodes[k] = NodeItem{Kind: string(n.Kind), AtNs: int64(n.At), Label: n.Label, PSN: n.PSN, Seq: n.Seq}
			}
		}
		if n := len(ch.Edges); n > 0 {
			it.Edges, edgeSlab = edgeSlab[:n:n], edgeSlab[n:]
			for k, e := range ch.Edges {
				it.Edges[k] = EdgeItem{From: ch.Local(e.From), To: ch.Local(e.To), Label: e.Label, LatencyNs: int64(e.Latency)}
			}
		}
	}
	return s
}

// Story renders the chain as the multi-line causal narrative
// `lumina trace explain` prints.
func (it *ChainItem) Story() string {
	var b strings.Builder
	status := "open"
	if it.Completed {
		status = "resolved"
	}
	fmt.Fprintf(&b, "lineage %d: %s psn=%d %s [%s]\n",
		it.Lineage, it.Event, it.PSN, it.Conn, status)
	byTo := make(map[int]*EdgeItem, len(it.Edges))
	for i := range it.Edges {
		byTo[it.Edges[i].To] = &it.Edges[i]
	}
	for i := range it.Nodes {
		n := &it.Nodes[i]
		if e, ok := byTo[i]; ok {
			fmt.Fprintf(&b, "      │ +%v (%s)\n", sim.Duration(e.LatencyNs), e.Label)
		}
		fmt.Fprintf(&b, "  @ %-11v %-11s %s\n", sim.Time(n.AtNs), n.Kind, n.Label)
	}
	return b.String()
}
