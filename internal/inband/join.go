package inband

import "github.com/lumina-sim/lumina/internal/lineage"

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
// wire-visible nodes: node.Seq → (pipeline bind) → transit ID → stamp
// log. Chains, nodes, and crossings all keep their deterministic
// source order, so the result serializes byte-identically across runs.
//
// The join is driven by the chains, which name a few hundred of a run's
// tens of thousands of transits: it first collects the transits the
// chains' nodes are bound to, then indexes only those in one pass over
// the stamp log.
func (c *Collector) Join(g *lineage.Graph) []ChainHops {
	if g == nil || len(g.Chains) == 0 {
		return nil
	}
	// bound resolves a node to the transit the pipeline hop bound its
	// packet to; probe-derived nodes (Seq 0) never crossed the switch.
	bound := func(n *lineage.Node) (uint64, bool) {
		if n.Seq == 0 {
			return 0, false
		}
		return c.TransitOf(n.Seq)
	}
	wanted := map[uint64][]*Stamp{} // transit → its stamps, in log order
	for i := range g.Chains {
		for _, id := range g.Chains[i].Nodes {
			if transit, ok := bound(&g.Nodes[id]); ok {
				wanted[transit] = nil
			}
		}
	}
	// Per-transit order is virtual-time order because the log's is.
	for _, chunk := range c.chunks() {
		for i := range chunk {
			if of, ok := wanted[chunk[i].Transit]; ok {
				wanted[chunk[i].Transit] = append(of, &chunk[i])
			}
		}
	}
	out := make([]ChainHops, 0, len(g.Chains))
	for _, ch := range g.Chains {
		ah := ChainHops{
			Lineage:   ch.Lineage,
			Event:     ch.Event.String(),
			PSN:       ch.PSN,
			Completed: ch.Completed,
		}
		for _, id := range ch.Nodes {
			n := &g.Nodes[id]
			nh := NodeHops{Kind: string(n.Kind), AtNs: int64(n.At), PSN: n.PSN, Seq: n.Seq}
			if transit, ok := bound(n); ok {
				nh.Transit = transit
				stamps := wanted[transit]
				if len(stamps) > 0 {
					nh.Hops = make([]HopCrossing, 0, len(stamps))
				}
				for k, s := range stamps {
					cr := HopCrossing{
						Hop:          c.hops[s.Hop].name,
						AtNs:         s.AtNs,
						QueueBytes:   s.QueueBytes,
						UtilPermille: s.UtilPermille,
					}
					if k+1 < len(stamps) {
						cr.LatencyNs = stamps[k+1].AtNs - s.AtNs
					}
					nh.Hops = append(nh.Hops, cr)
				}
			}
			ah.Nodes = append(ah.Nodes, nh)
		}
		ah.PerHop = digest(ah.Nodes)
		out = append(out, ah)
	}
	return out
}

// digest folds the nodes' crossings into per-hop aggregates, keyed in
// first-crossed order (a linear scan: hop counts are single digits).
func digest(nodes []NodeHops) []HopDigest {
	var out []HopDigest
	for i := range nodes {
		for _, cr := range nodes[i].Hops {
			var d *HopDigest
			for j := range out {
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
