package inband

import (
	"math/bits"

	"github.com/lumina-sim/lumina/internal/lineage"
)

// HopCrossing is one stamp of one packet transit, resolved to its hop
// name, with the latency to the transit's next crossing.
type HopCrossing struct {
	Hop          string `json:"hop"`
	AtNs         int64  `json:"at_ns"`
	QueueBytes   int64  `json:"queue_bytes"`
	UtilPermille uint16 `json:"util_permille"`
	// LatencyNs is the time to the next crossing of the same transit
	// (zero on the last crossing — delivery to the end host is not a
	// stamping hop).
	LatencyNs int64 `json:"latency_ns"`
}

// NodeHops is one lineage node annotated with its packet's per-hop
// crossings. Probe-derived nodes (Seq == 0: rewinds, timer fires, rate
// cuts) never crossed the switch and carry no crossings.
type NodeHops struct {
	Kind string `json:"kind"`
	AtNs int64  `json:"at_ns"`
	PSN  uint32 `json:"psn"`
	// Seq is the mirror sequence number (zero for probe-derived nodes).
	Seq uint64 `json:"seq,omitempty"`
	// Transit is the INT transit ID the pipeline hop bound to Seq.
	Transit uint64 `json:"transit,omitempty"`
	// Hops are the transit's crossings in virtual-time order.
	Hops []HopCrossing `json:"hops,omitempty"`
}

// HopDigest aggregates one hop's crossings across a whole chain.
type HopDigest struct {
	Hop             string `json:"hop"`
	Crossings       int    `json:"crossings"`
	MaxQueueBytes   int64  `json:"max_queue_bytes"`
	MaxUtilPermille uint16 `json:"max_util_permille"`
	TotalLatencyNs  int64  `json:"total_latency_ns"`
}

// ChainHops is one lineage chain annotated with the per-hop
// latency/queue-depth breakdown of every wire-visible node — the
// inject→NACK/CNP→retransmit story with fabric state attached.
type ChainHops struct {
	Lineage   uint64     `json:"lineage"`
	Event     string     `json:"event"`
	PSN       uint32     `json:"psn"`
	Completed bool       `json:"completed"`
	Nodes     []NodeHops `json:"nodes"`
	// PerHop digests the chain's crossings by hop, in first-crossed
	// order.
	PerHop []HopDigest `json:"per_hop,omitempty"`
}

// Join annotates every lineage chain with the INT stamps of its
// wire-visible nodes: node.Seq → (pipeline bind) → transit ID → the
// transit's run of stamps. Chains, nodes, and crossings all keep their
// deterministic source order, so the result serializes byte-identically
// across runs.
//
// The join is driven by the chains, which name a few hundred of a run's
// tens of thousands of transits: each bound node walks only its own
// transit's run, so the rest of the stamp log is never read. A first
// pass resolves the nodes and counts their crossings and each chain's
// hops; the second fills slabs of exactly that size, so every chain's
// nodes, every node's crossings and every chain's digest are
// capacity-clipped windows into one slab each.
func (c *Collector) Join(g *lineage.Graph) []ChainHops {
	if g == nil || len(g.Chains) == 0 {
		return nil
	}
	nodes := 0
	for i := range g.Chains {
		nodes += len(g.Chains[i].Nodes)
	}
	out := make([]ChainHops, len(g.Chains))
	nodeSlab := make([]NodeHops, nodes)
	counts := make([]int, nodes) // each node's crossings
	crossings, digests, k := 0, 0, 0
	for i := range g.Chains {
		ch := &g.Chains[i]
		out[i] = ChainHops{Lineage: ch.Lineage, Event: ch.Event.String(), PSN: ch.PSN, Completed: ch.Completed}
		var hops [MaxHops/64 + 1]uint64 // the hops the chain's crossings name
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			nh := &nodeSlab[k]
			*nh = NodeHops{Kind: string(n.Kind), AtNs: int64(n.At), PSN: n.PSN, Seq: n.Seq}
			// Probe-derived nodes (Seq 0) never crossed the switch.
			if transit, ok := c.TransitOf(n.Seq); ok && n.Seq != 0 {
				nh.Transit = transit
				counts[k] = c.count(c.runOf(transit), &hops)
				crossings += counts[k]
			}
			k++
		}
		for _, w := range hops {
			digests += bits.OnesCount64(w)
		}
	}
	slab := make([]HopCrossing, crossings)
	perHop := make([]HopDigest, 0, digests)
	k = 0
	for i := range g.Chains {
		ah := &out[i]
		if n := len(g.Chains[i].Nodes); n > 0 {
			ah.Nodes, nodeSlab = nodeSlab[:n:n], nodeSlab[n:]
		}
		for j := range ah.Nodes {
			if n := counts[k]; n > 0 {
				nh := &ah.Nodes[j]
				nh.Hops, slab = slab[:n:n], slab[n:]
				c.fill(nh.Hops, c.runOf(nh.Transit))
			}
			k++
		}
		start := len(perHop)
		if perHop = digest(perHop, start, ah.Nodes); len(perHop) > start {
			ah.PerHop = perHop[start:len(perHop):len(perHop)]
		}
	}
	return out
}

// count returns how many stamps a run holds (zero for a nil or empty
// run), marking in hops the ID of each stamping hop.
func (c *Collector) count(r *run, hops *[MaxHops/64 + 1]uint64) int {
	if r == nil || *r == 0 {
		return 0
	}
	n := 1
	for pos := uint32(*r - 1); ; n++ {
		s, _ := c.decode(pos)
		hops[s.hop/64] |= 1 << (s.hop % 64)
		if s.back == 0 {
			return n
		}
		pos -= s.back
	}
}

// fill resolves the run's stamps, in recording (= virtual-time) order,
// to hop crossings: out holds exactly as many as the run has stamps. It
// walks the run back from its latest record.
func (c *Collector) fill(out []HopCrossing, r *run) {
	pos := uint32(*r - 1)
	for i := len(out) - 1; i >= 0; i-- {
		s, _ := c.decode(pos)
		out[i] = HopCrossing{Hop: c.hops[s.hop].name, AtNs: int64(s.at), QueueBytes: s.queue, UtilPermille: s.util}
		pos -= s.back
	}
	// Every time but the first is a delta, and it is the latency of the
	// crossing before it.
	for i := 1; i < len(out); i++ {
		out[i-1].LatencyNs = out[i].AtNs
		out[i].AtNs += out[i-1].AtNs
	}
}

// digest appends to out the nodes' crossings folded into per-hop
// aggregates, keyed in first-crossed order; the aggregates already in
// out from index start on are the chain's own (a linear scan: hop counts
// are single digits).
func digest(out []HopDigest, start int, nodes []NodeHops) []HopDigest {
	for i := range nodes {
		for _, cr := range nodes[i].Hops {
			var d *HopDigest
			for j := start; j < len(out); j++ {
				if out[j].Hop == cr.Hop {
					d = &out[j]
					break
				}
			}
			if d == nil {
				out = append(out, HopDigest{Hop: cr.Hop})
				d = &out[len(out)-1]
			}
			d.Crossings++
			if cr.QueueBytes > d.MaxQueueBytes {
				d.MaxQueueBytes = cr.QueueBytes
			}
			if cr.UtilPermille > d.MaxUtilPermille {
				d.MaxUtilPermille = cr.UtilPermille
			}
			d.TotalLatencyNs += cr.LatencyNs
		}
	}
	return out
}
