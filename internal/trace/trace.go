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

// Entry is one packet of a reconstructed trace: a View of the captured
// (trimmed) bytes, whose accessors the analyzers read. Reconstruct
// admits only records ParseHeaders accepts. The data-plane metadata the
// injector embedded lives in those bytes' spare header fields (§3.4),
// and Meta and Time decode it from there: nothing writes a record once
// the dumper has serviced it, so no decoded copy is kept.
type Entry struct {
	packet.View
}

// Meta returns the data-plane metadata the injector embedded: mirror
// sequence number, event type, and the nanosecond ingress timestamp
// that every analyzer's latency math builds on.
func (e *Entry) Meta() packet.MirrorMeta {
	// Reconstruct admitted the record through ExtractMirrorMeta.
	m, _ := packet.ExtractMirrorMeta(e.Bytes())
	return m
}

// Time returns the switch ingress timestamp as a simulation instant.
func (e *Entry) Time() sim.Time { return sim.Time(e.Meta().Timestamp) }

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
// the records in final order, each parsed once, to validate it, as it
// is placed. An entry views the record's bytes in place.
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
	for out := range tr.Entries {
		h := &heads[0]
		v, err := packet.ParseHeaders(h.wire)
		if err != nil {
			return nil, firstError(logs)
		}
		tr.Entries[out] = Entry{View: v}
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

// firstError reports the failure a record-by-record parse of the logs,
// read in order, stops at: the lowest-indexed bad record, whichever
// check it fails. Reconstruct calls it only once it has met a bad
// record, so the merge never has to track which error comes first.
func firstError(logs []dumper.Log) error {
	i := 0
	for _, l := range logs {
		c := l.Cursor()
		for wire, more := c.Next(); more; wire, more = c.Next() {
			if _, ok := packet.ExtractMirrorMeta(wire); !ok {
				return fmt.Errorf("trace: record %d too short for mirror metadata", i)
			}
			if _, err := packet.ParseHeaders(wire); err != nil {
				return fmt.Errorf("trace: record %d: %v", i, err)
			}
			i++
		}
	}
	// invariant: Reconstruct calls this only after a record failed ExtractMirrorMeta or ParseHeaders, and the loop above repeats both checks on every record.
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
		prev, cur := t.Entries[i-1].Meta().Seq, t.Entries[i].Meta().Seq
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
