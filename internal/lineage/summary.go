package lineage

import (
	"fmt"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/sim"
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

// Summarize converts the graph into its serializable form.
func (g *Graph) Summarize() *ChainsSummary {
	s := &ChainsSummary{}
	if len(g.Chains) > 0 {
		s.ByEvent = map[string]int{}
	}
	for ci := range g.Chains {
		ch := &g.Chains[ci]
		s.Total++
		if ch.Completed {
			s.Completed++
		}
		s.ByEvent[ch.Event.String()]++
		item := ChainItem{
			Lineage: ch.Lineage, Event: ch.Event.String(),
			Conn:     fmt.Sprintf("%s>%s/qp-0x%06x", ch.Conn.Src, ch.Conn.Dst, ch.Conn.DstQPN),
			PSN:      ch.PSN,
			ActorQPN: ch.ActorQPN, Completed: ch.Completed,
		}
		local := make(map[int]int, len(ch.Nodes))
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			local[id] = len(item.Nodes)
			item.Nodes = append(item.Nodes, NodeItem{
				Kind: string(n.Kind), AtNs: int64(n.At), Label: n.Label,
				PSN: n.PSN, Seq: n.Seq,
			})
		}
		for _, e := range ch.Edges {
			item.Edges = append(item.Edges, EdgeItem{
				From: local[e.From], To: local[e.To],
				Label: e.Label, LatencyNs: int64(e.Latency),
			})
		}
		s.Items = append(s.Items, item)
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

// Headline is the one-line form used when listing chains.
func (it *ChainItem) Headline() string {
	status := "open"
	if it.Completed {
		status = "resolved"
	}
	last := "-"
	if n := len(it.Nodes); n > 0 {
		last = it.Nodes[n-1].Kind
	}
	return fmt.Sprintf("lineage %-4d %-10s psn=%-7d %-9s %d node(s), last=%s  %s",
		it.Lineage, it.Event, it.PSN, status, len(it.Nodes), last, it.Conn)
}

// Explain returns the stories of every chain matching (qpn, psn) — the
// programmatic face of `lumina trace explain`. qpn 0 matches any QPN.
func (g *Graph) Explain(qpn, psn uint32) string {
	matches := g.Find(qpn, psn)
	if len(matches) == 0 {
		return ""
	}
	s := g.Summarize()
	byLineage := make(map[uint64]*ChainItem, len(s.Items))
	for i := range s.Items {
		byLineage[s.Items[i].Lineage] = &s.Items[i]
	}
	ids := make([]uint64, 0, len(matches))
	for _, ch := range matches {
		ids = append(ids, ch.Lineage)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var parts []string
	for _, id := range ids {
		if it := byLineage[id]; it != nil {
			parts = append(parts, it.Story())
		}
	}
	return strings.Join(parts, "\n")
}
