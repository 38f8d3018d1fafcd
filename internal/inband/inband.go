// Package inband implements Lumina's in-band network telemetry (INT):
// per-hop stamping of forwarded packets, deterministic collection of
// the stamps, and the join against lineage chains that turns "the NIC
// retransmitted" into "the NIC retransmitted after queue buildup at
// hop H".
//
// The design follows the Tiny Packet Program / INT postcard model
// scaled to Lumina's constraint set: stamps ride in the packet's
// iCRC-invariant header fields (see packet.EmbedINTStamp for the wire
// format), so instrumented runs carry telemetry without growing a
// single frame or scheduling a single extra event. Each stamping hop
// rewrites the compact on-wire state with its own queue depth and link
// utilization and simultaneously appends a full-fidelity stamp to the
// collector's log — the simulator's deterministic event order makes the
// stamp log, and everything derived from it, byte-identical across
// runs and engine worker counts. The log is write-once: each stamp is a
// varint record of its hop, the distance back to its transit's
// previous record, and its time (a delta after the transit's first),
// queue depth and utilization, about seven bytes (see stamp).
//
// Hops come in three flavors:
//
//   - origin hops (NIC egress ports) assign each RoCE packet a fresh
//     transit ID and write the first stamp;
//   - transit hops (switch egress ports) resolve the on-wire tag back
//     to the transit ID and append their view;
//   - the pipeline hop (the injector's match-action stage) stamps at
//     ingress and, crucially, binds the transit ID to the mirror
//     sequence number it is about to assign — the key that joins INT
//     stamps to lineage chains and the packet trace.
//
// Transit IDs are namespaced per origin hop — (hop+1)<<32 | per-hop
// count — and the 16-bit on-wire tag carries the origin hop in its top
// 6 bits, so ID assignment is independent of how different origins'
// packets interleave.
//
// Like telemetry and lineage, INT is strictly observe-only: it never
// schedules events, never reads the RNG, and never alters a packet
// field any receiver consults, so a run produces the same packet
// history, verdicts, and (byte-identical) summary.json with INT on or
// off. The raw capture bytes are the one place stamps are visible —
// mirror copies carry whatever iCRC-masked fields the upstream origin
// hop had written, exactly as a real postcard-INT deployment's pcaps
// would.
package inband

import (
	"encoding/binary"
	"sort"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// tagCounterBits is the width of the per-origin counter in the 16-bit
// on-wire tag; the remaining 6 bits carry origin-hop-ID + 1. A tag is
// only ambiguous when 1024 newer transits from the same origin start
// while a packet is in flight — far beyond this fabric's
// bandwidth-delay product.
const tagCounterBits = 10

// MaxOriginHops is how many leading hop IDs can originate transits (the
// origin hop ID + 1 must fit the tag's 6 high bits); MaxHops is the
// size of the hop table (hop IDs are one byte, 255 reserved). Callers
// building a hop table from outside input check both before
// registering: RegisterHop panics past either.
const (
	MaxOriginHops = 1<<(16-tagCounterBits) - 1
	MaxHops       = 255
)

// stamp is one record of the stamp log, decoded. The log is a sequence
// of write-once records in byte pages that never move; a record never
// spans two pages. On the page a record is
//
//	hop   one byte, the stamping hop's ID (pageEnd instead marks the
//	      unused rest of a page)
//	back  uvarint, the distance in log bytes back to the same transit's
//	      previous record; 0 on the transit's first stamp
//	at    uvarint, the stamp instant: absolute on the transit's first
//	      stamp, otherwise the (two's-complement) delta from its previous
//	      stamp
//	queue uvarint, the queue bytes
//	util  uvarint, the utilization in permille
//
// A record does not name its transit. Walking back from a transit's
// latest record (its run) reaches all of its stamps; a forward pass over
// the whole log gives a first stamp its origin hop's next minted transit
// and a later one the transit of the record it points back to.
type stamp struct {
	hop   uint8
	back  uint32
	at    uint64 // the raw time field
	queue int64
	util  uint16
}

const (
	// logPageBits sizes the stamp log's pages: 16 KiB each.
	logPageBits = 14
	logPage     = 1 << logPageBits
	// maxRecord bounds one record's length: the hop byte, a 32-bit and
	// two 64-bit uvarints, and a 16-bit one.
	maxRecord = 1 + binary.MaxVarintLen32 + 2*binary.MaxVarintLen64 + 3
	// pageEnd is the hop byte no hop has (MaxHops reserves it): a record
	// that does not fit the rest of a page starts the next page and
	// leaves this byte behind it.
	pageEnd = MaxHops
)

// run is one transit's stamps in the log: the position + 1 of its
// latest record (zero before its first), from which the back-distances
// lead to the others.
type run uint32

// inFlight is one slot of the tag table: the transit a tag names and
// the instant of that transit's latest stamp, which its next record is
// written against.
type inFlight struct {
	transit uint64
	at      int64
}

// pageBits sizes the pages the runs and the binds grow by: 1 024
// entries each.
const pageBits = 10

// pages is a table grown one fixed-size page at a time, so an entry
// never moves once written and growing never copies one.
type pages[T any] []*[1 << pageBits]T

// at returns entry i, allocating the pages up to it on first use.
func (p *pages[T]) at(i int) *T {
	for i>>pageBits >= len(*p) {
		*p = append(*p, new([1 << pageBits]T))
	}
	return p.get(i)
}

// get returns entry i, which must lie in an allocated page.
func (p pages[T]) get(i int) *T { return &p[i>>pageBits][i&(1<<pageBits-1)] }

// hopState is the per-hop collector state and aggregates.
type hopState struct {
	name   string
	origin bool

	stamps   uint64
	maxQueue int64
	maxUtil  uint16

	// mint counts the transits this hop originated (origin hops only);
	// runs holds one run per transit minted since the last Reset,
	// indexed by count - 1 - base.
	mint uint64
	base uint64
	runs pages[run]

	// Utilization window: last stamp instant and the port's cumulative
	// busy time then.
	lastAt   int64
	lastBusy sim.Duration
	lastUtil uint16
}

// HopSummary is the per-hop digest exported into int.json.
type HopSummary struct {
	ID              uint8  `json:"id"`
	Name            string `json:"name"`
	Origin          bool   `json:"origin,omitempty"`
	Stamps          uint64 `json:"stamps"`
	MaxQueueBytes   int64  `json:"max_queue_bytes"`
	MaxUtilPermille uint16 `json:"max_util_permille"`
}

// Collector is the INT collection sink: hops stamp into it, the
// orchestrator drains it. All state updates happen synchronously inside
// simulator events, so the stamp log is in virtual-time order and fully
// deterministic. The hot path (StampWire) is alloc-free at steady state
// — perfgate budgets it at zero allocs/op.
type Collector struct {
	hops []hopState

	// recent maps the 16-bit on-wire transit tag back to the full
	// transit ID and its latest stamp's instant: one page per origin
	// hop, indexed by the tag's high bits (origin hop ID + 1), holds the
	// transits of its low bits. A tag without a page was never minted.
	recent []*[1 << tagCounterBits]inFlight

	// binds maps mirror sequence numbers (= lineage chain IDs), which
	// the injector assigns densely from 1, to the run of the transit the
	// pipeline hop bound them to as it stood at the pipeline's stamp;
	// zero is unbound. nbinds counts the bound ones.
	binds  pages[run]
	nbinds int

	// log holds the n stamps recorded since the last Reset as records
	// in recording order; end is the log position (page << logPageBits
	// + offset) of the next one. At about seven bytes a stamp, 32-bit
	// positions address some 600 million stamps.
	log []*[logPage]byte
	end uint32
	n   uint32
}

// RegisterHop adds a hop to the table and returns its ID. Origin hops
// assign fresh transit IDs; transit hops resolve the on-wire tag.
// Registration order is the hop ID order everywhere (summaries,
// int.json), so callers must register deterministically — and register
// origin hops among the first 63 hops (their ID rides in the tag).
func (c *Collector) RegisterHop(name string, origin bool) uint8 {
	if len(c.hops) >= MaxHops {
		// invariant: the orchestrator's topology.checkHops returns a Build error before any hop registers when the ports plus the injector pipeline exceed MaxHops.
		panic("inband: hop table full")
	}
	if origin && len(c.hops) >= MaxOriginHops {
		// invariant: the orchestrator registers hops in description order, and topology.checkHops returns a Build error first when an origin hop's index reaches MaxOriginHops.
		panic("inband: origin hops must be registered among the first 63 hops")
	}
	if origin {
		page := len(c.hops) + 1
		c.recent = append(c.recent, make([]*[1 << tagCounterBits]inFlight, page+1-len(c.recent))...)
		c.recent[page] = new([1 << tagCounterBits]inFlight)
	}
	c.hops = append(c.hops, hopState{name: name, origin: origin})
	return uint8(len(c.hops) - 1)
}

// AttachPort registers the port as a hop and installs the egress
// stamping hook on it.
func (c *Collector) AttachPort(p *sim.Port, origin bool) uint8 {
	hop := c.RegisterHop(p.Name, origin)
	p.SetStamper(func(data []byte, at sim.Time, queuedAhead int64, busy sim.Duration) {
		c.StampWire(data, hop, int64(at), queuedAhead, busy)
	})
	return hop
}

// utilization closes the hop's measurement window at (at, busy) and
// returns the link utilization over it. Within a single instant
// (back-to-back sends) the previous value is reused; committed airtime
// can exceed the window (queued frames), so the result clamps at 1000.
func (h *hopState) utilization(at int64, busy sim.Duration) uint16 {
	elapsed := at - h.lastAt
	if elapsed <= 0 {
		return h.lastUtil
	}
	u := int64(busy-h.lastBusy) * 1000 / elapsed
	if u > 1000 {
		u = 1000
	}
	if u < 0 {
		u = 0
	}
	h.lastAt, h.lastBusy = at, busy
	h.lastUtil = uint16(u)
	return h.lastUtil
}

// StampWire is the per-frame hot path: assign or resolve the transit
// ID, rewrite the packet's INT fields in place, and append the
// full-fidelity stamp. Non-RoCE frames and (at transit hops) frames no
// origin ever tagged are ignored.
func (c *Collector) StampWire(wire []byte, hop uint8, at int64, queuedAhead int64, busy sim.Duration) {
	if !packet.WireIsRoCE(wire) {
		return
	}
	h := &c.hops[hop]
	var f *inFlight
	var r *run
	var tag uint16
	if h.origin {
		h.mint++
		slot := uint16((h.mint - 1) & (1<<tagCounterBits - 1))
		tag = (uint16(hop)+1)<<tagCounterBits | slot
		f = &c.recent[hop+1][slot]
		f.transit = (uint64(hop)+1)<<32 | (h.mint & 0xFFFFFFFF)
		r = h.runs.at(int(h.mint - 1 - h.base))
		*r = 0
	} else {
		tag = packet.INTTransit(wire)
		if f, r = c.resolve(tag); r == nil {
			return
		}
	}
	util := h.utilization(at, busy)
	qb := queuedAhead
	if qb < 0 {
		qb = 0
	}
	wireQB := uint32(qb)
	if qb > int64(^uint32(0)) {
		wireQB = ^uint32(0)
	}
	packet.EmbedINTStamp(wire, packet.INTStamp{
		Transit: tag, Hop: hop, QueueBytes: wireQB, UtilPermille: util,
	})
	c.record(h, r, f, hop, at, qb, util)
}

// Pipeline is the injector's match-action hop: called once per mirrored
// RoCE packet with the mirror sequence number the packet is being
// stamped with, it records the ingress-pipeline stamp and binds the
// transit ID to the lineage ID. The bind is what lets Join annotate
// lineage chains with per-hop breakdowns.
func (c *Collector) Pipeline(wire []byte, hop uint8, at int64, lineageID uint64) {
	tag := packet.INTTransit(wire)
	f, r := c.resolve(tag)
	if r == nil {
		return
	}
	b := c.binds.at(int(lineageID))
	if *b == 0 {
		c.nbinds++
	}
	// The match-action rewrite: the forwarded original leaves the
	// pipeline carrying this hop's ID (the egress port overwrites the
	// state with its own queue view microseconds later).
	packet.EmbedINTStamp(wire, packet.INTStamp{Transit: tag, Hop: hop})
	c.record(&c.hops[hop], r, f, hop, at, 0, 0)
	*b = *r
}

// resolve maps an on-wire tag to its tag-table slot and run. The run is
// nil for a tag outside the table, one no origin minted, and one minted
// before the last Reset.
func (c *Collector) resolve(tag uint16) (*inFlight, *run) {
	page := int(tag >> tagCounterBits)
	if page >= len(c.recent) || c.recent[page] == nil {
		return nil, nil
	}
	f := &c.recent[page][tag&(1<<tagCounterBits-1)]
	return f, c.runOf(f.transit)
}

// runOf returns the transit's run, or nil when the transit is zero or
// was minted before the last Reset.
func (c *Collector) runOf(transit uint64) *run {
	if transit == 0 {
		return nil
	}
	h := &c.hops[transit>>32-1]
	i := uint64(uint32(transit) - 1 - uint32(h.base))
	if i >= h.mint-h.base {
		return nil
	}
	return h.runs.get(int(i))
}

// record appends one record for the transit of run r and tag-table
// slot f, and folds the stamp into the hop's aggregates. It writes only
// the new record: the previous one's position is r, its instant f.at.
func (c *Collector) record(h *hopState, r *run, f *inFlight, hop uint8, at, queue int64, util uint16) {
	t := uint64(at)
	if *r != 0 {
		t = uint64(at - f.at)
	}
	var buf [maxRecord]byte
	pos := c.end
	rec := encode(buf[:0], hop, pos, *r, t, queue, util)
	if off := int(pos & (logPage - 1)); off+len(rec) > logPage {
		c.log[pos>>logPageBits][off] = pageEnd
		pos += uint32(logPage - off)
		rec = encode(buf[:0], hop, pos, *r, t, queue, util)
	}
	for int(pos>>logPageBits) >= len(c.log) {
		c.log = append(c.log, new([logPage]byte))
	}
	copy(c.log[pos>>logPageBits][pos&(logPage-1):], rec)
	c.end = pos + uint32(len(rec))
	c.n++
	*r = run(pos + 1)
	f.at = at
	h.stamps++
	if queue > h.maxQueue {
		h.maxQueue = queue
	}
	if util > h.maxUtil {
		h.maxUtil = util
	}
}

// encode appends the record of a stamp written at log position pos,
// whose transit's previous record is at prev - 1 (prev zero: none).
func encode(b []byte, hop uint8, pos uint32, prev run, t uint64, queue int64, util uint16) []byte {
	var back uint32
	if prev != 0 {
		back = pos - uint32(prev-1)
	}
	b = append(b, hop)
	b = binary.AppendUvarint(b, uint64(back))
	b = binary.AppendUvarint(b, t)
	b = binary.AppendUvarint(b, uint64(queue))
	return binary.AppendUvarint(b, uint64(util))
}

// decode reads the record at log position pos and returns it with its
// length.
func (c *Collector) decode(pos uint32) (stamp, uint32) {
	b := c.log[pos>>logPageBits][pos&(logPage-1):]
	s := stamp{hop: b[0]}
	n := 1
	v, k := binary.Uvarint(b[n:])
	s.back, n = uint32(v), n+k
	s.at, k = binary.Uvarint(b[n:])
	n += k
	v, k = binary.Uvarint(b[n:])
	s.queue, n = int64(v), n+k
	v, k = binary.Uvarint(b[n:])
	s.util, n = uint16(v), n+k
	return s, uint32(n)
}

// StampCount returns the number of collected stamps.
func (c *Collector) StampCount() int { return int(c.n) }

// TransitCount returns how many transits origin hops tagged.
func (c *Collector) TransitCount() uint64 {
	var n uint64
	for i := range c.hops {
		n += c.hops[i].mint
	}
	return n
}

// BindCount returns how many lineage IDs the pipeline hop bound to
// transits.
func (c *Collector) BindCount() int { return c.nbinds }

// TransitOf resolves a lineage (mirror sequence) ID to its transit ID.
// The bind leads back to the transit's first record, which names the
// origin hop; that hop's transits have their first records in mint
// order, so a binary search over its runs finds the transit's count.
func (c *Collector) TransitOf(lineageID uint64) (uint64, bool) {
	if lineageID>>pageBits >= uint64(len(c.binds)) {
		return 0, false
	}
	b := *c.binds.get(int(lineageID))
	if b == 0 {
		return 0, false
	}
	first, o := c.first(b)
	h := &c.hops[o]
	i := sort.Search(int(h.mint-h.base), func(i int) bool {
		f, _ := c.first(*h.runs.get(i))
		return f >= first
	})
	return (uint64(o)+1)<<32 | (h.base+uint64(i)+1)&0xFFFFFFFF, true
}

// first walks the non-empty run r back to its transit's first record
// and returns that record's position and hop (the origin).
func (c *Collector) first(r run) (uint32, uint8) {
	pos := uint32(r - 1)
	for {
		s, _ := c.decode(pos)
		if s.back == 0 {
			return pos, s.hop
		}
		pos -= s.back
	}
}

// Hops returns the per-hop summaries in hop-ID order.
func (c *Collector) Hops() []HopSummary {
	hops := c.hops
	out := make([]HopSummary, len(hops))
	for i := range hops {
		h := &hops[i]
		out[i] = HopSummary{
			ID: uint8(i), Name: h.name, Origin: h.origin,
			Stamps: h.stamps, MaxQueueBytes: h.maxQueue, MaxUtilPermille: h.maxUtil,
		}
	}
	return out
}

// Publish writes the roll-up counters and per-hop gauges into reg.
// Deliberately no histograms: summary.json folds every registry
// histogram into its latency digests, and INT must leave summary.json
// byte-identical so instrumented runs replay against existing corpus
// goldens.
func (c *Collector) Publish(reg *telemetry.Registry) {
	reg.Add("int.stamps", int64(c.StampCount()))
	reg.Add("int.transits", int64(c.TransitCount()))
	reg.Add("int.binds", int64(c.BindCount()))
	for i := range c.hops {
		hs := &c.hops[i]
		reg.Set("int.hop."+hs.name+".stamps", int64(hs.stamps))
		reg.Set("int.hop."+hs.name+".max_queue_bytes", hs.maxQueue)
		reg.Set("int.hop."+hs.name+".max_util_permille", int64(hs.maxUtil))
	}
}

// Reset empties the stamp log, the runs, the binds and the per-hop
// aggregates, keeping every page allocated, the hop table, the
// utilization windows and transit numbering. Benchmarks and the perf
// gate use it to keep the steady-state hot path alloc-free across
// measurement passes.
func (c *Collector) Reset() {
	c.end, c.n = 0, 0
	for i := range c.hops {
		h := &c.hops[i]
		h.stamps, h.maxQueue, h.maxUtil = 0, 0, 0
		h.base = h.mint
	}
	for _, pg := range c.binds {
		clear(pg[:])
	}
	c.nbinds = 0
}
