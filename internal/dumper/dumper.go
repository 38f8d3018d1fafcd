// Package dumper implements Lumina's traffic-dumper nodes (§3.4, §5):
// servers that spread mirrored packets over CPU cores with Receive Side
// Scaling, trim each to its first 128 bytes and keep the trimmed copies
// until the orchestrator's TERM, with the RSS-randomized UDP destination
// port restored to 4791. A core whose descriptor ring is full discards
// (rx_discards_phy), which is why the paper spreads mirrors over a pool.
package dumper

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"strconv"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Config sizes one dumper node.
type Config struct {
	Cores       int
	PerCoreGbps float64 // sustained per-core processing rate
	RingDepth   int     // per-core descriptor ring; overflow discards
	TrimBytes   int
}

// DefaultConfig matches the paper's prototype: DPDK with RSS, 128-byte
// trimming.
func DefaultConfig() Config {
	return Config{Cores: 8, PerCoreGbps: 5, RingDepth: 1024, TrimBytes: 128}
}

// core is one RSS core's ring: when it finishes its last admitted
// packet and how many it holds.
type core struct {
	busyTil sim.Time
	queued  int
}

// Node is one traffic-dumper server.
type Node struct {
	Sim   *sim.Simulator
	Index int
	Cfg   Config

	cores      []core
	terminated bool
	track      string // telemetry track, "dumper-<idx>"
	queued     int    // packets in rings across all cores

	// The ring_occupancy track is sampled when the occupancy's log2
	// bucket, bits.Len(queued), differs from that of the last sample
	// (initially 0, an empty ring). peak holds the exact peak.
	sampled int
	peak    int

	// sojourn is the hub's, nil without one.
	sojourn *telemetry.Histogram

	// log holds the trimmed copy of every admitted packet, in arrival
	// order; a copy counts once its core has serviced it.
	log Log

	// Counters for integrity analysis.
	RxPackets  uint64
	RxDiscards uint64 // ring overflow (rx_discards_phy analogue)
	Captured   uint64
}

// NewNode creates a dumper node; attach its port with AttachPort. Its
// sojourn histogram is taken from the hub attached to s, so attach it
// first.
func NewNode(s *sim.Simulator, index int, cfg Config) *Node {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.RingDepth <= 0 {
		cfg.RingDepth = 1024
	}
	if cfg.TrimBytes <= 0 {
		cfg.TrimBytes = 128
	}
	if cfg.PerCoreGbps <= 0 {
		cfg.PerCoreGbps = 5
	}
	return &Node{
		Sim: s, Index: index, Cfg: cfg,
		cores:   make([]core, cfg.Cores),
		track:   "dumper-" + strconv.Itoa(index),
		sojourn: s.Hub().Histogram("dumper.sojourn_ns"),
	}
}

// Publish writes the node's counts into reg: its ring peak even at zero,
// and the packets it admitted and discarded when non-zero.
func (n *Node) Publish(reg *telemetry.Registry) {
	reg.Set(n.track+".ring_peak", int64(n.peak))
	if rx := n.RxPackets - n.RxDiscards; rx != 0 {
		reg.Add("dumper.rx", int64(rx))
	}
	if n.RxDiscards != 0 {
		reg.Add("dumper.discards", int64(n.RxDiscards))
	}
}

// AttachPort binds the node to its switch-facing port.
func (n *Node) AttachPort(p *sim.Port) {
	p.SetFrameReceiver(n.receive)
}

// receive is the RX path. The node keeps only its trimmed copy, so the
// mirror frame goes back to the pool as soon as capture returns.
func (n *Node) receive(wire []byte) {
	n.capture(wire)
	n.Sim.PutFrame(wire)
}

// capture does the work of one arrival: RSS to a core, ring admission,
// trim into the log, service.
func (n *Node) capture(wire []byte) {
	if n.terminated {
		return
	}
	n.RxPackets++
	ci := n.rssCore(wire)
	c := &n.cores[ci]
	if c.queued >= n.Cfg.RingDepth {
		n.RxDiscards++
		if h := n.Sim.Hub(); h.Active() {
			h.EmitArgs(telemetry.KindDumperDisc, n.track, "ring_full",
				telemetry.I("core", int64(ci)), telemetry.I("depth", int64(c.queued)))
		}
		return
	}
	c.queued++
	n.queued++
	n.peak = max(n.peak, n.queued)

	trim := min(n.Cfg.TrimBytes, len(wire))
	rec := n.log.add(trim)
	copy(rec[len(rec)-trim:], wire)

	now := n.Sim.Now()
	start := now
	if c.busyTil > start {
		start = c.busyTil
	}
	// Service cost is charged for the full wire length — the core must
	// DMA and inspect the packet before trimming.
	done := start.Add(sim.TransferTime(len(wire), n.Cfg.PerCoreGbps))
	c.busyTil = done
	if h := n.Sim.Hub(); h.Active() {
		n.sampleRing(h)
		// Sojourn = ring wait + service: the interval between NIC arrival
		// and the core finishing with the packet.
		n.sojourn.Record(int64(done.Sub(now)))
	}
	n.Sim.AtEvent(done, n, 0, uint64(ci), rec)
}

// HandleEvent is the node's only event: core arg finished servicing the
// packet whose log record is rec. A record serviced after TERM stays
// out of the trace.
func (n *Node) HandleEvent(_ int, arg uint64, rec []byte) {
	ci := int(arg)
	n.cores[ci].queued--
	n.queued--
	if h := n.Sim.Hub(); h.Active() {
		n.sampleRing(h)
	}
	if n.terminated {
		return
	}
	// Restore the RSS-randomized port (§3.4) and mark the record serviced.
	_, hdr := binary.Uvarint(rec)
	packet.RewriteUDPDstPort(rec[hdr:], packet.RoCEv2Port)
	rec[0] |= serviced
	n.Captured++
}

// sampleRing emits a ring_occupancy sample when the node's occupancy has
// left the log2 bucket of the last one, so the track rises and falls
// through every power of two at a handful of samples per burst rather
// than two per packet.
func (n *Node) sampleRing(h *telemetry.Hub) {
	if b := bits.Len(uint(n.queued)); b != n.sampled {
		n.sampled = b
		h.EmitCounter(telemetry.KindDumperQueue, n.track, "ring_occupancy", int64(n.queued))
	}
}

// Log is a capture log: records laid end to end in blocks that grow from
// logBlockMin to logBlockMax bytes, one allocation per ~500 trimmed
// copies. A record is a uvarint header, its length shifted left once
// with the serviced mark in bit 0, then its bytes, and never spans two
// blocks. Copies of a Log share its blocks.
type Log struct {
	blocks [][]byte
}

const (
	logBlockMin = 2 * 1024
	logBlockMax = 64 * 1024

	serviced = 1 // bit 0 of a record's header: the record counts
)

// add appends an unserviced record of sz bytes and returns it, header
// and bytes, capped so that an in-place rewrite cannot reach the next
// record.
func (l *Log) add(sz int) []byte {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(sz)<<1)
	need := h + sz
	last := len(l.blocks) - 1
	if last < 0 || cap(l.blocks[last])-len(l.blocks[last]) < need {
		block := logBlockMin
		if last >= 0 {
			block = min(2*cap(l.blocks[last]), logBlockMax)
		}
		l.blocks = append(l.blocks, make([]byte, 0, max(block, need)))
		last++
	}
	b := l.blocks[last]
	off := len(b)
	b = b[:off+need]
	copy(b[off:], hdr[:h])
	l.blocks[last] = b
	return b[off : off+need : off+need]
}

// Append adds a serviced record holding a copy of wire, as a capture
// read back from a file holds it.
func (l *Log) Append(wire []byte) {
	rec := l.add(len(wire))
	copy(rec[len(rec)-len(wire):], wire)
	rec[0] |= serviced
}

// Cursor returns a reader positioned at the log's first record.
func (l Log) Cursor() Cursor { return Cursor{blocks: l.blocks} }

// Cursor reads a log's serviced records in order.
type Cursor struct {
	blocks [][]byte
	off    int
}

// Next returns the bytes of the next serviced record, capped at their
// end, or false once the log is exhausted.
func (c *Cursor) Next() ([]byte, bool) {
	for len(c.blocks) > 0 {
		b := c.blocks[0][c.off:]
		if len(b) == 0 {
			c.blocks, c.off = c.blocks[1:], 0
			continue
		}
		v, h := binary.Uvarint(b)
		end := h + int(v>>1)
		c.off += end
		if v&serviced != 0 {
			return b[h:end:end], true
		}
	}
	return nil, false
}

// rssCore hashes the 5-tuple to pick a core — flow-affine, exactly why
// the injector randomizes the UDP destination port to spread a single
// QP's packets (§3.4).
func (n *Node) rssCore(wire []byte) int {
	t, ok := packet.FiveTuple(wire)
	if !ok {
		return 0
	}
	h := fnv.New32a()
	h.Write(t[:])
	// Reduce in uint32: on a 32-bit int, int(h.Sum32()) is negative for
	// half of all hashes.
	return int(h.Sum32() % uint32(n.Cfg.Cores))
}

// Terminate implements the orchestrator's TERM message: stop capturing
// and return the bytes of every record serviced so far ("write to
// disk"), in arrival order.
func (n *Node) Terminate() [][]byte {
	recs := make([][]byte, 0, n.Captured)
	c := n.terminate().Cursor()
	for rec, more := c.Next(); more; rec, more = c.Next() {
		recs = append(recs, rec)
	}
	return recs
}

// terminate stops capturing and hands over the node's log, uncopied.
func (n *Node) terminate() Log {
	n.terminated = true
	return n.log
}

// Pool is a set of dumper nodes managed together.
type Pool struct {
	Nodes []*Node
}

// NewPool builds n identically-configured nodes.
func NewPool(s *sim.Simulator, n int, cfg Config) *Pool {
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, NewNode(s, i, cfg))
	}
	return p
}

// Terminate TERMs every node and returns their logs in node order, the
// input trace.Reconstruct expects. TERM is idempotent: a second call
// returns the same logs.
func (p *Pool) Terminate() []Log {
	logs := make([]Log, len(p.Nodes))
	for i, n := range p.Nodes {
		logs[i] = n.terminate()
	}
	return logs
}

func (n *Node) String() string {
	return fmt.Sprintf("Dumper(%d: %d cores, %.1f Gbps/core)", n.Index, n.Cfg.Cores, n.Cfg.PerCoreGbps)
}
