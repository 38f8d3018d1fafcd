// Package trace reconstructs complete packet traces from the trimmed
// records captured by the traffic-dumper pool, runs the three-condition
// integrity check of §3.5, and reads/writes classic pcap files so traces
// can be inspected with standard tools.
package trace

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Entry is one packet of a reconstructed trace: the bytes a dumper
// captured and the metadata the injector embedded in them. Its header
// accessors read Wire in place. Reconstruct admits only records whose
// headers decode, so every accessor finds the bytes it reads.
type Entry struct {
	// Meta is the data-plane metadata the injector embedded: mirror
	// sequence number, event type, and the nanosecond ingress timestamp
	// that every analyzer's latency math builds on. It is kept decoded
	// because it is the sort key and every timestamp read needs it.
	Meta packet.MirrorMeta
	// Wire is the captured (trimmed) bytes.
	Wire []byte
}

// Wire offsets of the fields the accessors read. IPv4 carries no
// options (DecodeHeaders refuses them), so every offset up to the end of
// the BTH is fixed.
const (
	ipTOS      = packet.EthernetSize + 1  // DSCP and ECN
	ipTotalLen = packet.EthernetSize + 2  // 16 bits
	ipSrc      = packet.EthernetSize + 12 // 4 bytes
	ipDst      = packet.EthernetSize + 16 // 4 bytes
	bth        = packet.EthernetSize + packet.IPv4Size + packet.UDPSize
	bthFlags   = bth + 1 // SE, MigReq, pad count, TVer
	bthDestQP  = bth + 5 // 24 bits
	bthPSN     = bth + 9 // 24 bits
	extHeaders = bth + packet.BTHSize
)

// Time returns the switch ingress timestamp as a simulation instant.
func (e *Entry) Time() sim.Time { return sim.Time(e.Meta.Timestamp) }

// Opcode returns the BTH opcode.
func (e *Entry) Opcode() packet.Opcode { return packet.Opcode(e.Wire[bth]) }

// PSN returns the BTH packet sequence number.
func (e *Entry) PSN() uint32 { return uint24(e.Wire[bthPSN:]) }

// DestQP returns the BTH destination queue pair number.
func (e *Entry) DestQP() uint32 { return uint24(e.Wire[bthDestQP:]) }

// PadCount returns the BTH pad count.
func (e *Entry) PadCount() uint8 { return e.Wire[bthFlags] >> 4 & 0x3 }

// ECN returns the IPv4 ECN codepoint.
func (e *Entry) ECN() uint8 { return e.Wire[ipTOS] & 0x3 }

// Src returns the IPv4 source address.
func (e *Entry) Src() netip.Addr { return netip.AddrFrom4([4]byte(e.Wire[ipSrc:])) }

// Dst returns the IPv4 destination address.
func (e *Entry) Dst() netip.Addr { return netip.AddrFrom4([4]byte(e.Wire[ipDst:])) }

// AETH returns the ACK extended transport header, zero for an opcode
// that carries none. No opcode carries both an AETH and a RETH, so an
// AETH always follows the BTH directly.
func (e *Entry) AETH() packet.AETH {
	if !e.Opcode().HasAETH() {
		return packet.AETH{}
	}
	return packet.AETH{Syndrome: e.Wire[extHeaders], MSN: uint24(e.Wire[extHeaders+1:])}
}

// DMALen returns the RETH DMA length, the last four bytes of the RETH,
// or 0 for an opcode that carries no RETH.
func (e *Entry) DMALen() uint32 {
	if !e.Opcode().HasRETH() {
		return 0
	}
	return binary.BigEndian.Uint32(e.Wire[extHeaders+packet.RETHSize-4:])
}

// OrigLen returns the packet's untrimmed wire length: the Ethernet
// header plus the IPv4 total length.
func (e *Entry) OrigLen() int {
	return packet.EthernetSize + int(binary.BigEndian.Uint16(e.Wire[ipTotalLen:]))
}

// String renders the packet's headers as packet.Packet does.
func (e *Entry) String() string {
	var p packet.Packet
	// Reconstruct admitted the entry only because this decode succeeded.
	_ = packet.DecodeHeaders(e.Wire, &p)
	return p.String()
}

func uint24(b []byte) uint32 { return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2]) }

// Trace is a reconstructed, sequence-ordered packet trace.
type Trace struct {
	Entries []Entry
}

// Reconstruct decodes the dumper nodes' capture logs and orders their
// records by mirror sequence number — the orchestrator's trace-assembly
// step (§3.5). A record whose headers cannot be parsed is rejected: the
// dumpers capture only RoCE mirrors, so one indicates corruption of the
// capture path itself. Positions below count records across the logs
// read in order.
//
// The order is that of a stable sort by sequence number, for any input,
// but is produced by merging: a node's link is FIFO and the one mirroring
// switch numbers its copies in order, so each log is already one
// non-decreasing run. One pass reads every record's metadata and cuts
// each log at its descents; a k-way merge over the run heads then yields
// the records in final order, each decoded once, to validate it, as it
// is placed. An entry keeps the record's bytes, not the parsed headers.
func Reconstruct(logs []dumper.Log) (*Trace, error) {
	var heads []runHead
	var prev uint64
	pos := 0
	for _, l := range logs {
		start, c := pos, l.Cursor()
		for wire, more := c.Next(); more; wire, more = c.Next() {
			m, ok := packet.ExtractMirrorMeta(wire)
			if !ok {
				return nil, firstError(logs)
			}
			if pos == start || m.Seq < prev {
				heads = append(heads, runHead{meta: m, wire: wire, next: c, pos: pos})
			}
			heads[len(heads)-1].end = pos + 1
			prev = m.Seq
			pos++
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}

	tr := &Trace{Entries: make([]Entry, pos)}
	var pkt packet.Packet
	for out := range tr.Entries {
		h := &heads[0]
		if err := packet.DecodeHeaders(h.wire, &pkt); err != nil {
			return nil, firstError(logs)
		}
		tr.Entries[out] = Entry{Meta: h.meta, Wire: h.wire}
		if h.pos++; h.pos < h.end {
			// The run goes on within its log, whose records the first
			// pass accepted, so neither read can fail.
			h.wire, _ = h.next.Next()
			h.meta, _ = packet.ExtractMirrorMeta(h.wire)
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
	return tr, nil
}

// runHead is the merge cursor of one non-decreasing run of one log:
// records [pos, end) of the input, the one at pos holding wire with
// metadata meta, and next reading the records after it.
type runHead struct {
	meta     packet.MirrorMeta
	wire     []byte
	next     dumper.Cursor
	pos, end int
}

// before orders run heads by sequence number; on a tie the run that
// started earlier in the input wins, which for disjoint contiguous runs
// is the one with the lower position — exactly a stable sort's choice.
func (a *runHead) before(b *runHead) bool {
	return a.meta.Seq < b.meta.Seq || (a.meta.Seq == b.meta.Seq && a.pos < b.pos)
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// firstError reports the failure a record-by-record decode of the logs,
// read in order, stops at: the lowest-indexed bad record, whichever
// check it fails. Reconstruct calls it only once it has met a bad
// record, so the merge never has to track which error comes first.
func firstError(logs []dumper.Log) error {
	var pkt packet.Packet
	i := 0
	for _, l := range logs {
		c := l.Cursor()
		for wire, more := c.Next(); more; wire, more = c.Next() {
			if _, ok := packet.ExtractMirrorMeta(wire); !ok {
				return fmt.Errorf("trace: record %d too short for mirror metadata", i)
			}
			if err := packet.DecodeHeaders(wire, &pkt); err != nil {
				return fmt.Errorf("trace: record %d: %v", i, err)
			}
			i++
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

// ConnKey identifies one direction of one connection in the trace. It
// is comparable and formats nothing: renderings print the addresses
// with %s, and JSON writes them as text, both in their String form.
type ConnKey struct {
	Src, Dst netip.Addr
	DstQPN   uint32
}

// Key returns the entry's connection-direction key.
func (e *Entry) Key() ConnKey {
	return ConnKey{Src: e.Src(), Dst: e.Dst(), DstQPN: e.DestQP()}
}

// Reverses reports whether e flows opposite to of: from of's destination
// address back to its source, as the ACKs, NAKs, CNPs and re-issued read
// requests answering of do.
func (e *Entry) Reverses(of *Entry) bool {
	return e.Src() == of.Dst() && e.Dst() == of.Src()
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

func (t *Trace) String() string {
	f, l := t.Span()
	return fmt.Sprintf("Trace(%d packets, %v..%v)", len(t.Entries), f, l)
}
