// Package dumper implements Lumina's traffic-dumper nodes (§3.4, §5):
// servers that receive mirrored packets from the event injector, spread
// them across CPU cores with Receive Side Scaling, trim each packet to
// its first 128 bytes (all protocol headers, no IB payload), buffer the
// trimmed records in memory, and write them out when the orchestrator
// sends TERM — restoring the RSS-randomized UDP destination port to 4791
// first.
//
// Each core has a finite descriptor ring and a finite processing rate;
// when mirrored traffic arrives faster than a core can drain its ring,
// the NIC discards packets (rx_discards_phy) — the phenomenon that made
// the original two-host dumper design capture complete traces only ~30%
// of the time and motivated per-packet load balancing across a pool.
package dumper

import (
	"fmt"
	"hash/fnv"
	"math/bits"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Record is one captured (trimmed) mirror packet. Where it was captured
// is the chunk that holds it: each core buffers only its own records.
type Record struct {
	// Wire holds the trimmed packet bytes with the UDP destination port
	// restored to 4791.
	Wire []byte
}

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

// core buffers its records in chunks that double from chunkMin to
// chunkMax records. A full chunk is kept as it is and a new one started,
// so no record is copied between capture and trace reconstruction.
type core struct {
	busyTil sim.Time
	queued  int
	chunks  [][]Record
}

const (
	chunkMin = 16
	chunkMax = 1024
)

// add appends r to the core's last chunk, starting a new one when it is
// full.
func (c *core) add(r Record) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		size := chunkMin
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), chunkMax)
		}
		c.chunks = append(c.chunks, make([]Record, 0, size))
		last++
	}
	c.chunks[last] = append(c.chunks[last], r)
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
	// (initially 0, an empty ring). ringPeak holds the exact peak; it is
	// nil unless a hub was attached when the node was built.
	sampled  int
	ringPeak *telemetry.Gauge

	// arena backs the trimmed record copies: records are append-only and
	// live until Terminate, so carving capped slices out of block
	// allocations replaces one small allocation per captured packet. Each
	// record's slice is capped (three-index) so the in-place UDP port
	// restore cannot touch a neighbouring record.
	arena []byte

	// Counters for integrity analysis.
	RxPackets  uint64
	RxDiscards uint64 // ring overflow (rx_discards_phy analogue)
	Captured   uint64
}

// NewNode creates a dumper node; attach its port with AttachPort.
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
	n := &Node{
		Sim: s, Index: index, Cfg: cfg,
		cores: make([]core, cfg.Cores),
		track: fmt.Sprintf("dumper-%d", index),
	}
	if h := s.Hub(); h.Active() {
		n.ringPeak = h.Registry().Gauge(n.track + ".ring_peak")
	}
	return n
}

// AttachPort binds the node to its switch-facing port.
func (n *Node) AttachPort(p *sim.Port) {
	p.SetFrameReceiver(n.receive)
}

// receive is the RX path. The node keeps only its trimmed copy, so an
// owned mirror frame goes back to the pool as soon as capture returns.
func (n *Node) receive(wire []byte, owned bool) {
	n.capture(wire)
	if owned {
		n.Sim.PutFrame(wire)
	}
}

// capture does the work of one arrival: RSS to a core, ring admission,
// trim, service.
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
			h.Count("dumper.discards", 1)
		}
		return
	}
	c.queued++
	n.queued++

	trim := n.Cfg.TrimBytes
	if trim > len(wire) {
		trim = len(wire)
	}
	data := n.arenaAlloc(trim)
	copy(data, wire[:trim])

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
		if n.ringPeak != nil && int64(n.queued) > n.ringPeak.Value() {
			n.ringPeak.Set(int64(n.queued))
		}
		h.Count("dumper.rx", 1)
		// Sojourn = ring wait + service: the interval between NIC arrival
		// and the core finishing with the packet.
		h.Observe("dumper.sojourn_ns", int64(done.Sub(now)))
	}
	n.Sim.AtEvent(done, n, 0, uint64(ci), data)
}

// HandleEvent is the node's only event: core arg finished servicing the
// packet whose trimmed copy is data.
func (n *Node) HandleEvent(_ int, arg uint64, data []byte) {
	ci := int(arg)
	c := &n.cores[ci]
	c.queued--
	n.queued--
	if h := n.Sim.Hub(); h.Active() {
		n.sampleRing(h)
	}
	// Restore the RSS-randomized port before buffering (§3.4).
	packet.RewriteUDPDstPort(data, packet.RoCEv2Port)
	c.add(Record{Wire: data})
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

// Arena blocks grow geometrically from arenaBlockMin to arenaBlockMax so
// short captures stay cheap while sustained captures amortize to one
// allocation per ~512 records.
const (
	arenaBlockMin = 2 * 1024
	arenaBlockMax = 64 * 1024
)

// arenaAlloc carves an n-byte capped slice out of the arena.
func (n *Node) arenaAlloc(sz int) []byte {
	if cap(n.arena)-len(n.arena) < sz {
		block := 2 * cap(n.arena)
		if block < arenaBlockMin {
			block = arenaBlockMin
		}
		if block > arenaBlockMax {
			block = arenaBlockMax
		}
		if block < sz {
			block = sz
		}
		n.arena = make([]byte, 0, block)
	}
	off := len(n.arena)
	n.arena = n.arena[:off+sz]
	return n.arena[off : off+sz : off+sz]
}

// rssCore hashes the 5-tuple to pick a core — flow-affine, exactly why
// the injector randomizes the UDP destination port to spread a single
// QP's packets (§3.4).
func (n *Node) rssCore(wire []byte) int {
	if len(wire) < packet.EthernetSize+packet.IPv4Size+packet.UDPSize {
		return 0
	}
	h := fnv.New32a()
	h.Write(wire[14+9 : 14+10])  // protocol
	h.Write(wire[14+12 : 14+20]) // src+dst IP
	h.Write(wire[34 : 34+4])     // src+dst port
	// Reduce in uint32: on a 32-bit int, int(h.Sum32()) is negative for
	// half of all hashes.
	return int(h.Sum32() % uint32(n.Cfg.Cores))
}

// Terminate implements the orchestrator's TERM message: stop capturing
// and return all buffered records ("write to disk"), core by core, in
// one slice.
func (n *Node) Terminate() []Record {
	all := make([]Record, 0, n.Captured)
	for _, chunk := range n.terminate(nil) {
		all = append(all, chunk...)
	}
	return all
}

// terminate stops capturing and appends every buffered chunk to dst,
// core by core.
func (n *Node) terminate(dst [][]Record) [][]Record {
	n.terminated = true
	for i := range n.cores {
		dst = append(dst, n.cores[i].chunks...)
	}
	return dst
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

// Terminate TERMs every node and returns the captured records as the
// cores buffered them: their chunks in node, core and chunk order, none
// copied. Read end to end they are the pool's records node by node and
// core by core, the input trace.Reconstruct expects.
func (p *Pool) Terminate() [][]Record {
	chunks := 0
	for _, n := range p.Nodes {
		for i := range n.cores {
			chunks += len(n.cores[i].chunks)
		}
	}
	all := make([][]Record, 0, chunks)
	for _, n := range p.Nodes {
		all = n.terminate(all)
	}
	return all
}

func (n *Node) String() string {
	return fmt.Sprintf("Dumper(%d: %d cores, %.1f Gbps/core)", n.Index, n.Cfg.Cores, n.Cfg.PerCoreGbps)
}
