package inband

import "slices"

// Stamp is one full-fidelity hop record. The on-wire form quantizes
// QueueBytes and UtilPermille to a byte each; the collector keeps the
// exact values.
type Stamp struct {
	// Transit is the packet-transit ID, assigned at the origin hop; all
	// stamps of one switch traversal share it. Its high 32 bits are the
	// origin hop ID + 1, its low 32 bits the per-origin count — so IDs
	// do not depend on how different origins' packets interleave.
	Transit uint64 `json:"transit"`
	// Hop is the stamping hop's ID (index into the collector's hop
	// table).
	Hop uint8 `json:"hop"`
	// AtNs is the virtual-time instant of the stamp.
	AtNs int64 `json:"at_ns"`
	// QueueBytes is the egress queue depth ahead of the packet.
	QueueBytes int64 `json:"queue_bytes"`
	// UtilPermille is the hop's link utilization over the window since
	// its previous stamp, in 1/1000.
	UtilPermille uint16 `json:"util_permille"`
}

// Stamps returns the stamp log in recording (= virtual-time) order,
// decoded in one forward pass.
func (c *Collector) Stamps() []Stamp {
	out := make([]Stamp, c.n)
	at := make([]uint32, c.n) // the log position of out[i]
	minted := make([]uint64, len(c.hops))
	for o := range c.hops {
		minted[o] = c.hops[o].base
	}
	i := 0
	for pos := uint32(0); pos < c.end; {
		if c.log[pos>>logPageBits][pos&(logPage-1)] == pageEnd {
			pos = (pos>>logPageBits + 1) << logPageBits
			continue
		}
		s, n := c.decode(pos)
		st := Stamp{Hop: s.hop, AtNs: int64(s.at), QueueBytes: s.queue, UtilPermille: s.util}
		if s.back == 0 {
			minted[s.hop]++
			st.Transit = (uint64(s.hop)+1)<<32 | minted[s.hop]&0xFFFFFFFF
		} else {
			j, _ := slices.BinarySearch(at[:i], pos-s.back)
			st.Transit = out[j].Transit
			st.AtNs += out[j].AtNs
		}
		out[i], at[i] = st, pos
		i++
		pos += n
	}
	return out
}
