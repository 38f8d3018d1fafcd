// Package trace reconstructs complete packet traces from the trimmed
// records captured by the traffic-dumper pool, runs the three-condition
// integrity check of §3.5, and reads/writes classic pcap files so traces
// can be inspected with standard tools.
package trace

import (
	"fmt"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Entry is one packet of a reconstructed trace.
type Entry struct {
	// Meta is the data-plane metadata the injector embedded: mirror
	// sequence number, event type, and the nanosecond ingress timestamp
	// that every analyzer's latency math builds on.
	Meta packet.MirrorMeta
	// Pkt holds the parsed headers (payload absent: dumpers trim).
	Pkt packet.Packet
	// OrigLen is the packet's untrimmed wire length.
	OrigLen int
	// Wire is the captured (trimmed) bytes.
	Wire []byte
	// Node/Core locate the capturing dumper.
	Node, Core int

	// addrs holds the string forms of Pkt.IP.Src/Dst, interned once per
	// trace by Reconstruct so Key formats nothing; nil on an entry built
	// by hand.
	addrs *addrPair
}

// addrPair is the string form of one (source, destination) address pair.
type addrPair struct{ src, dst string }

// Time returns the switch ingress timestamp as a simulation instant.
func (e *Entry) Time() sim.Time { return sim.Time(e.Meta.Timestamp) }

// Trace is a reconstructed, sequence-ordered packet trace.
type Trace struct {
	Entries []Entry
}

// Reconstruct decodes dumper records and orders them by mirror sequence
// number — the orchestrator's trace-assembly step (§3.5). Records whose
// headers cannot be parsed are rejected (the dumpers only capture RoCE
// mirrors, so any such record indicates corruption of the capture path
// itself).
//
// The order is that of a stable sort by sequence number, for any input,
// but is produced by merging: each dumper core appends its records in
// arrival order, so the input is a handful of already-sorted runs laid
// end to end. One pass reads every record's metadata and finds the run
// boundaries; a k-way merge over the run heads then yields the records
// in final order, and each is decoded once, straight into its slot.
func Reconstruct(recs []dumper.Record) (*Trace, error) {
	// Only the sequence numbers are kept from this pass: the rest of the
	// metadata is read again when its record is decoded, which is
	// cheaper than carrying it.
	seqs := make([]uint64, len(recs))
	var heads []runHead
	for i := range recs {
		m, ok := packet.ExtractMirrorMeta(recs[i].Wire)
		if !ok {
			return nil, firstError(recs)
		}
		seqs[i] = m.Seq
		if i == 0 || m.Seq < seqs[i-1] {
			heads = append(heads, runHead{seq: m.Seq, pos: i, end: i + 1})
		} else {
			heads[len(heads)-1].end = i + 1
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}

	tr := &Trace{Entries: make([]Entry, len(recs))}
	pairs := map[[2]netip.Addr]*addrPair{}
	var last *Entry // the entry before e
	for out := range tr.Entries {
		h := &heads[0]
		r, e := &recs[h.pos], &tr.Entries[out]
		origLen, err := packet.DecodeHeaders(r.Wire, &e.Pkt)
		if err != nil {
			return nil, firstError(recs)
		}
		e.Meta, _ = packet.ExtractMirrorMeta(r.Wire)
		e.OrigLen, e.Wire, e.Node, e.Core = origLen, r.Wire, r.Node, r.Core
		// Packets of one direction come in runs, so most entries share
		// the previous one's pair and skip the map.
		if last != nil && last.Pkt.IP.Src == e.Pkt.IP.Src && last.Pkt.IP.Dst == e.Pkt.IP.Dst {
			e.addrs = last.addrs
		} else {
			k := [2]netip.Addr{e.Pkt.IP.Src, e.Pkt.IP.Dst}
			if e.addrs = pairs[k]; e.addrs == nil {
				e.addrs = &addrPair{src: k[0].String(), dst: k[1].String()}
				pairs[k] = e.addrs
			}
		}
		last = e
		if h.pos++; h.pos < h.end {
			h.seq = seqs[h.pos]
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
	return tr, nil
}

// runHead is the merge cursor of one non-decreasing run of the input:
// records [pos, end), seq caching record pos's sequence number.
type runHead struct {
	seq      uint64
	pos, end int
}

// before orders run heads by sequence number; on a tie the run that
// started earlier in the input wins, which for disjoint contiguous runs
// is the one with the lower position — exactly a stable sort's choice.
func (a runHead) before(b runHead) bool {
	return a.seq < b.seq || (a.seq == b.seq && a.pos < b.pos)
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// firstError reports the failure a record-by-record decode in input
// order stops at: the lowest-indexed bad record, whichever check it
// fails. Reconstruct calls it only once it has met a bad record, so the
// merge never has to track which error comes first.
func firstError(recs []dumper.Record) error {
	var pkt packet.Packet
	for i, r := range recs {
		if _, ok := packet.ExtractMirrorMeta(r.Wire); !ok {
			return fmt.Errorf("trace: record %d too short for mirror metadata", i)
		}
		if _, err := packet.DecodeHeaders(r.Wire, &pkt); err != nil {
			return fmt.Errorf("trace: record %d: %v", i, err)
		}
	}
	// invariant: Reconstruct calls this only after a record failed ExtractMirrorMeta or DecodeHeaders, and the loop above repeats both checks on every record.
	panic("trace: firstError called on records that all decode")
}

// IntegrityError describes a failed integrity condition.
type IntegrityError struct {
	Condition int
	Detail    string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("trace: integrity condition %d failed: %s", e.Condition, e.Detail)
}

// IntegrityCheck verifies the §3.5 conditions:
//
//  1. mirror sequence numbers in the trace are consecutive;
//  2. the injector's mirrored-packet count equals the trace length;
//  3. the injector's received-RoCE count equals the trace length.
//
// Only when all three hold is the trace complete and analyzable.
func (t *Trace) IntegrityCheck(mirrored, rxRoCE uint64) error {
	for i := 1; i < len(t.Entries); i++ {
		prev, cur := t.Entries[i-1].Meta.Seq, t.Entries[i].Meta.Seq
		if cur != prev+1 {
			return &IntegrityError{1, fmt.Sprintf("gap between mirror seq %d and %d", prev, cur)}
		}
	}
	if uint64(len(t.Entries)) != mirrored {
		return &IntegrityError{2, fmt.Sprintf("injector mirrored %d packets, trace holds %d", mirrored, len(t.Entries))}
	}
	if uint64(len(t.Entries)) != rxRoCE {
		return &IntegrityError{3, fmt.Sprintf("injector received %d RoCE packets, trace holds %d", rxRoCE, len(t.Entries))}
	}
	return nil
}

// ConnKey identifies one direction of one connection in the trace.
type ConnKey struct {
	Src, Dst string // IP addresses, string form for map keys
	DstQPN   uint32
}

// Key returns the entry's connection-direction key.
func (e *Entry) Key() ConnKey {
	if a := e.addrs; a != nil {
		return ConnKey{Src: a.src, Dst: a.dst, DstQPN: e.Pkt.BTH.DestQP}
	}
	return ConnKey{Src: e.Pkt.IP.Src.String(), Dst: e.Pkt.IP.Dst.String(), DstQPN: e.Pkt.BTH.DestQP}
}

// SameConn reports whether e and o belong to the same connection
// direction — e.Key() == o.Key() without building either key.
func (e *Entry) SameConn(o *Entry) bool {
	return e.Pkt.BTH.DestQP == o.Pkt.BTH.DestQP && e.Pkt.IP.Src == o.Pkt.IP.Src && e.Pkt.IP.Dst == o.Pkt.IP.Dst
}

// Reverses reports whether e flows opposite to of: from of's destination
// address back to its source, as the ACKs, NAKs, CNPs and re-issued read
// requests answering of do.
func (e *Entry) Reverses(of *Entry) bool {
	return e.Pkt.IP.Src == of.Pkt.IP.Dst && e.Pkt.IP.Dst == of.Pkt.IP.Src
}

// Filter returns the entries satisfying keep, preserving order.
func (t *Trace) Filter(keep func(*Entry) bool) []*Entry {
	var out []*Entry
	for i := range t.Entries {
		if keep(&t.Entries[i]) {
			out = append(out, &t.Entries[i])
		}
	}
	return out
}

// DataPackets returns the entries carrying data opcodes.
func (t *Trace) DataPackets() []*Entry {
	return t.Filter(func(e *Entry) bool { return e.Pkt.BTH.Opcode.IsData() })
}

// ByConnection groups data packets per connection direction.
func (t *Trace) ByConnection() map[ConnKey][]*Entry {
	out := map[ConnKey][]*Entry{}
	for _, e := range t.DataPackets() {
		k := e.Key()
		out[k] = append(out[k], e)
	}
	return out
}

// EventsOfType returns the entries the injector marked with ev.
func (t *Trace) EventsOfType(ev packet.EventType) []*Entry {
	return t.Filter(func(e *Entry) bool { return e.Meta.Event == ev })
}

// CNPs returns congestion-notification packets.
func (t *Trace) CNPs() []*Entry {
	return t.Filter(func(e *Entry) bool { return e.Pkt.BTH.Opcode.IsCNP() })
}

// Acks returns ACK/NAK entries.
func (t *Trace) Acks() []*Entry {
	return t.Filter(func(e *Entry) bool { return e.Pkt.BTH.Opcode.IsAck() })
}

// Naks returns only the negative acknowledgements.
func (t *Trace) Naks() []*Entry {
	return t.Filter(func(e *Entry) bool {
		return e.Pkt.BTH.Opcode.IsAck() && e.Pkt.AETH.IsNak()
	})
}

// Span returns the first and last switch timestamps in the trace.
func (t *Trace) Span() (first, last sim.Time) {
	if len(t.Entries) == 0 {
		return 0, 0
	}
	first, last = t.Entries[0].Time(), t.Entries[0].Time()
	for i := range t.Entries {
		ts := t.Entries[i].Time()
		if ts < first {
			first = ts
		}
		if ts > last {
			last = ts
		}
	}
	return first, last
}

// ThroughputPoint is one bucket of a throughput timeline.
type ThroughputPoint struct {
	Start sim.Time
	Gbps  float64
}

// ThroughputTimeline buckets data-packet bytes (by original wire length)
// into fixed windows per connection-direction filter, yielding a
// goodput-over-time series — the raw material for Figure-10-style plots
// from a trace alone. A nil keep admits every data packet.
func (t *Trace) ThroughputTimeline(bucket sim.Duration, keep func(*Entry) bool) []ThroughputPoint {
	if bucket <= 0 || len(t.Entries) == 0 {
		return nil
	}
	first, last := t.Span()
	n := int(last.Sub(first)/bucket) + 1
	bytes := make([]int64, n)
	for i := range t.Entries {
		e := &t.Entries[i]
		if !e.Pkt.BTH.Opcode.IsData() {
			continue
		}
		if keep != nil && !keep(e) {
			continue
		}
		idx := int(e.Time().Sub(first) / bucket)
		if idx >= 0 && idx < n {
			bytes[idx] += int64(e.OrigLen)
		}
	}
	out := make([]ThroughputPoint, n)
	for i := range out {
		out[i] = ThroughputPoint{
			Start: first.Add(sim.Duration(i) * bucket),
			Gbps:  float64(bytes[i]) * 8 / float64(bucket),
		}
	}
	return out
}

func (t *Trace) String() string {
	f, l := t.Span()
	return fmt.Sprintf("Trace(%d packets, %v..%v)", len(t.Entries), f, l)
}
