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
// utilization and simultaneously appends a full-fidelity Stamp to the
// collector — the simulator's deterministic event order makes the
// stamp log, and everything derived from it, byte-identical across
// runs and engine worker counts.
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

// hopState is the per-hop collector state and aggregates.
type hopState struct {
	name   string
	origin bool

	stamps   uint64
	maxQueue int64
	maxUtil  uint16

	// mint counts the transits this hop originated (origin hops only).
	mint uint64

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
	hub  *telemetry.Hub
	hops []hopState

	// recent maps the 16-bit on-wire transit tag back to the full
	// transit ID.
	recent []uint64

	// byLineage maps mirror sequence numbers (= lineage chain IDs) to
	// transit IDs, recorded by the injector's pipeline hop.
	byLineage map[uint64]uint64

	// The stamp log in recording order: the chunks already full, then the
	// one being filled. Chunked (sizes doubling from stampChunkMin to
	// stampChunkMax) so that a run's tens of thousands of stamps are
	// never copied to make room for the next one.
	sealed [][]Stamp
	cur    []Stamp
}

// Stamp-log chunk sizes, in stamps of 40 bytes.
const (
	stampChunkMin = 256
	stampChunkMax = 8192
)

// NewCollector returns a collector publishing roll-up metrics to hub
// (nil hub = collect only).
func NewCollector(hub *telemetry.Hub) *Collector {
	return &Collector{
		hub:       hub,
		recent:    make([]uint64, 1<<16),
		byLineage: map[uint64]uint64{},
	}
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
	var transit uint64
	var tag uint16
	if h.origin {
		h.mint++
		transit = (uint64(hop)+1)<<32 | (h.mint & 0xFFFFFFFF)
		tag = (uint16(hop)+1)<<tagCounterBits | uint16((h.mint-1)&(1<<tagCounterBits-1))
		c.recent[tag] = transit
	} else {
		tag = packet.INTTransit(wire)
		if tag == 0 {
			return
		}
		transit = c.recent[tag]
		if transit == 0 {
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
	c.record(h, Stamp{
		Transit: transit, Hop: hop, AtNs: at,
		QueueBytes: qb, UtilPermille: util,
	})
}

// Pipeline is the injector's match-action hop: called once per mirrored
// RoCE packet with the mirror sequence number the packet is being
// stamped with, it records the ingress-pipeline stamp and binds the
// transit ID to the lineage ID. The bind is what lets Join annotate
// lineage chains with per-hop breakdowns.
func (c *Collector) Pipeline(wire []byte, hop uint8, at int64, lineageID uint64) {
	tag := packet.INTTransit(wire)
	if tag == 0 {
		return
	}
	transit := c.recent[tag]
	if transit == 0 {
		return
	}
	c.byLineage[lineageID] = transit
	// The match-action rewrite: the forwarded original leaves the
	// pipeline carrying this hop's ID (the egress port overwrites the
	// state with its own queue view microseconds later).
	packet.EmbedINTStamp(wire, packet.INTStamp{Transit: tag, Hop: hop})
	c.record(&c.hops[hop], Stamp{Transit: transit, Hop: hop, AtNs: at})
}

func (c *Collector) record(h *hopState, s Stamp) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.sealed = append(c.sealed, c.cur)
		}
		c.cur = make([]Stamp, 0, min(max(2*cap(c.cur), stampChunkMin), stampChunkMax))
	}
	c.cur = append(c.cur, s)
	h.stamps++
	if s.QueueBytes > h.maxQueue {
		h.maxQueue = s.QueueBytes
	}
	if s.UtilPermille > h.maxUtil {
		h.maxUtil = s.UtilPermille
	}
}

// Stamps returns the stamp log in recording (= virtual-time) order, as
// one slice (a copy once the log spans several chunks). The caller must
// not mutate the result.
func (c *Collector) Stamps() []Stamp {
	if len(c.sealed) == 0 {
		return c.cur
	}
	out := make([]Stamp, 0, c.StampCount())
	for _, chunk := range c.chunks() {
		out = append(out, chunk...)
	}
	return out
}

// StampCount returns the number of collected stamps.
func (c *Collector) StampCount() int {
	n := 0
	for _, chunk := range c.chunks() {
		n += len(chunk)
	}
	return n
}

// chunks returns the stamp log's chunks in recording order.
func (c *Collector) chunks() [][]Stamp {
	return append(c.sealed[:len(c.sealed):len(c.sealed)], c.cur)
}

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
func (c *Collector) BindCount() int { return len(c.byLineage) }

// TransitOf resolves a lineage (mirror sequence) ID to its transit ID.
func (c *Collector) TransitOf(lineageID uint64) (uint64, bool) {
	t, ok := c.byLineage[lineageID]
	return t, ok
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

// Publish drains roll-up counters and per-hop gauges into the hub.
// Deliberately no histograms: summary.json folds every registry
// histogram into its latency digests, and INT must leave summary.json
// byte-identical so instrumented runs replay against existing corpus
// goldens.
func (c *Collector) Publish() {
	h := c.hub
	if !h.Active() {
		return
	}
	h.Count("int.stamps", int64(c.StampCount()))
	h.Count("int.transits", int64(c.TransitCount()))
	h.Count("int.binds", int64(c.BindCount()))
	for i := range c.hops {
		hs := &c.hops[i]
		h.SetGauge("int.hop."+hs.name+".stamps", int64(hs.stamps))
		h.SetGauge("int.hop."+hs.name+".max_queue_bytes", hs.maxQueue)
		h.SetGauge("int.hop."+hs.name+".max_util_permille", int64(hs.maxUtil))
	}
}

// Reset truncates the stamp log, keeping the current chunk's capacity
// and the hop table. Benchmarks and the perf gate use it to keep the
// steady-state hot path alloc-free across measurement passes.
func (c *Collector) Reset() { c.sealed, c.cur = nil, c.cur[:0] }
