package injector

// The pipeline's semantics written once as a table (P4Testgen-style):
// each row is one path through Figure 6's stages — classify, ITER,
// lookup, action, mirror, egress — named by its stage and the predicate
// that selects it, with the frames that drive it and every effect it
// must have: the bytes and arrival time of each forwarded frame, each
// mirror copy's metadata, the port counters and the inject.* coverage
// pairs recorded. Frames are spelled byte by byte; their IPv4 checksums
// and iCRCs were computed once outside this repository (Python's
// zlib.crc32 over the masked image), and every expected frame is a
// literal or a literal edit of one, never the encoder's output.
//
// Timing: 100 Gbit/s links with 100 ns propagation, so a 74-byte Write
// Middle serializes in 5 ns and the k-th frame host A sends at t=0
// reaches the switch at 100+5k. The full pipeline adds 400 ns, a frame
// that skips the injection stages 250 ns (5/8).

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// wm is an RC Write Middle from host A (10.0.0.1) to host B (10.0.0.2)
// on destination QP qpn with the given PSN: ECT(0), TTL 64, sixteen
// payload bytes.
func wm(qpn, psn uint32) []byte {
	icrc, ok := wmICRC[[2]uint32{qpn, psn}]
	if !ok {
		panic(fmt.Sprintf("no literal iCRC for QP %#x PSN %d", qpn, psn))
	}
	b := []byte{
		0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // Ethernet dst: B
		0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // Ethernet src: A
		0x08, 0x00, // IPv4
		0x45, 0x02, 0x00, 0x3c, // v4 IHL 5, ECN ECT(0), total length 60
		0x00, 0x00, 0x40, 0x00, // ID 0, DF
		0x40, 0x11, 0x26, 0xad, // TTL 64, UDP, header checksum
		0x0a, 0x00, 0x00, 0x01, // 10.0.0.1
		0x0a, 0x00, 0x00, 0x02, // 10.0.0.2
		0xc0, 0x00, 0x12, 0xb7, // UDP 49152 -> 4791
		0x00, 0x28, 0x00, 0x00, // length 40, checksum 0
		0x07, 0x00, 0xff, 0xff, // BTH: RC Write Middle, no flags, P_Key
		0x00, byte(qpn >> 16), byte(qpn >> 8), byte(qpn), // DestQP
		0x00, byte(psn >> 16), byte(psn >> 8), byte(psn), // PSN
		0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, // payload
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
	}
	return binary.LittleEndian.AppendUint32(b, icrc)
}

var wmICRC = map[[2]uint32]uint32{
	{0x200, 100}: 0x2173ecb9, {0x200, 101}: 0xa6d527fa, {0x200, 102}: 0xf54f7c7e,
	{0x200, 103}: 0x72e9b73d, {0x200, 104}: 0xb46b84e8, {0x200, 105}: 0x33cd4fab,
	{0x201, 100}: 0x9817b8fd,
}

// ackB is the Acknowledge host B returns for PSN 100 on requester QP
// 0x100: 62 bytes, 4 ns on the wire.
var ackB = []byte{
	0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // Ethernet dst: A
	0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // Ethernet src: B
	0x08, 0x00,
	0x45, 0x00, 0x00, 0x30, // total length 48
	0x00, 0x00, 0x40, 0x00,
	0x40, 0x11, 0x26, 0xbb, // TTL 64, UDP, header checksum
	0x0a, 0x00, 0x00, 0x02, // 10.0.0.2
	0x0a, 0x00, 0x00, 0x01, // 10.0.0.1
	0xc0, 0x00, 0x12, 0xb7, // UDP 49152 -> 4791
	0x00, 0x1c, 0x00, 0x00, // length 28
	0x11, 0x00, 0xff, 0xff, // BTH: RC Acknowledge
	0x00, 0x00, 0x01, 0x00, // DestQP 0x100
	0x00, 0x00, 0x00, 0x64, // PSN 100
	0x00, 0x00, 0x00, 0x01, // AETH: ACK, MSN 1
	0xe0, 0x7a, 0x0a, 0x90, // iCRC 0x900a7ae0
}

// cnpNoPad parses as far as its BTH but lacks the CNP's 16-byte pad, so
// the RoCE parse rejects it: 58 bytes, 4 ns.
var cnpNoPad = []byte{
	0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00,
	0x45, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00,
	0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
	0xc0, 0x00, 0x12, 0xb7, 0x00, 0x18, 0x00, 0x00,
	0x81, 0x00, 0xff, 0xff, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, // BTH: CNP
	0x01, 0x02, 0x03, 0x04, // iCRC only
}

// with returns a copy of b with the bytes at off replaced by v.
func with(b []byte, off int, v ...byte) []byte {
	c := append([]byte(nil), b...)
	copy(c[off:], v)
	return c
}

var (
	wm100     = wm(0x200, 100)
	wm101     = wm(0x200, 101)
	wm102     = wm(0x200, 102)
	wm100CE   = with(with(wm100, 15, 0x03), 24, 0x26, 0xac)             // ECN CE, header checksum 0x26ac; iCRC untouched
	wm100Bad  = with(wm100, 69, 0x0e)                                   // last payload byte flipped, iCRC stale
	wm100Mig  = with(with(wm100, 43, 0x40), 70, 0xac, 0x47, 0xd0, 0x83) // MigReq set, iCRC 0x83d047ac
	wm100UDP  = with(wm100, 36, 0x00, 0x50)                             // UDP destination port 80
	wm100ToEE = with(wm100, 5, 0xee)                                    // destination MAC 02:00:00:00:00:ee
	runt13    = wm100[:13]                                              // shorter than an Ethernet header

	// conn2 is a second connection between the same hosts: A's QP 0x101
	// writes to B's QP 0x201.
	conn2 = ConnMeta{ReqIP: ipA, ReqQPN: 0x101, ReqIPSN: 100, RespIP: ipB, RespQPN: 0x201, RespIPSN: 5000}

	luminaSw   = config.Switch{PipelineLatencyNs: 400, Mirror: true, Inject: true}
	l2OnlySw   = config.Switch{PipelineLatencyNs: 400, Mirror: true, Inject: true, L2Only: true}
	noInjectSw = config.Switch{PipelineLatencyNs: 400, Mirror: true}
	noMirrorSw = config.Switch{PipelineLatencyNs: 400, Inject: true}
)

// onAB is a rule on A→B traffic to QP 0x200.
func onAB(psn, iter uint32, ev packet.EventType) Rule {
	return Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: psn, Iter: iter, Action: ev}
}

// send is one frame a stub host puts on its link at t=0, behind the
// frames it sent before.
type send struct {
	host int // 0 = A (switch port 0), 1 = B (switch port 1)
	wire []byte
}

func fromA(w []byte) send { return send{0, w} }
func fromB(w []byte) send { return send{1, w} }

// delivery is one frame arriving at a stub host.
type delivery struct {
	host int
	at   sim.Time
	wire []byte
}

// mirrored is one mirror copy: the dumper that got it, its metadata, its
// UDP destination port (0: rewritten into [0xC000, 0xF000)) and the
// frame it copies, compared outside the rewritten fields.
type mirrored struct {
	dumper int
	seq    uint64
	event  packet.EventType
	ts     int64
	port   uint16
	body   []byte
}

// ctr spells a PortCounters row: frames and RoCE frames in, frames and
// RoCE frames out, mirrored (counted on the ingress port), injected and
// dropped.
func ctr(rx, rxRoCE, tx, txRoCE, mirrored, injected, dropped uint64) PortCounters {
	return PortCounters{RxFrames: rx, RxRoCE: rxRoCE, TxFrames: tx, TxRoCE: txRoCE, Mirrored: mirrored, Injected: injected, Dropped: dropped}
}

// pathRow is one path: stage → predicate → effect.
type pathRow struct {
	stage, pred string

	cfg       config.Switch
	dumpers   []int // WRR weight of each dumper node
	byIngress bool
	noRSS     bool
	uplink    bool // unknown unicast leaves by port 1
	conns     []ConnMeta
	rules     []Rule
	in        []send

	out     []delivery
	mirrors []mirrored // in sequence order
	ports   [2]PortCounters
	pairs   string // inject.* pairs and counts, in registry order
}

var (
	idle    = PortCounters{}
	rx1     = ctr(1, 1, 0, 0, 1, 0, 0) // one RoCE frame in, mirrored
	tx1     = ctr(0, 0, 1, 1, 0, 0, 0)
	oneMiss = "lookup/miss:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"
)

var pathRows = []pathRow{
	// Classify: a frame the RoCE parse rejects, or any frame on an
	// L2-only switch, skips ITER, lookup and mirror and pays 250 ns.
	{stage: "classify", pred: "shorter than an Ethernet header: no destination MAC, dropped",
		cfg: luminaSw, dumpers: []int{1}, in: []send{fromA(runt13)},
		ports: [2]PortCounters{ctr(1, 0, 0, 0, 0, 0, 0), idle}},
	{stage: "classify", pred: "headers parse but the CNP pad is missing: forwarded by MAC, unchanged",
		cfg: luminaSw, dumpers: []int{1}, in: []send{fromA(cnpNoPad)},
		out:   []delivery{{1, 104 + 250 + 4 + 100, cnpNoPad}},
		ports: [2]PortCounters{ctr(1, 0, 0, 0, 0, 0, 0), ctr(0, 0, 1, 0, 0, 0, 0)}},
	{stage: "classify", pred: "UDP destination port is not 4791: forwarded by MAC, unchanged",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventDrop)},
		in:    []send{fromA(wm100UDP)},
		out:   []delivery{{1, 105 + 250 + 5 + 100, wm100UDP}},
		ports: [2]PortCounters{ctr(1, 0, 0, 0, 0, 0, 0), ctr(0, 0, 1, 0, 0, 0, 0)}},
	{stage: "classify", pred: "L2-only switch: RoCE forwarded unchanged, counted RoCE in and out",
		cfg: l2OnlySw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventDrop)},
		in:    []send{fromA(wm100)},
		out:   []delivery{{1, 460, wm100}},
		ports: [2]PortCounters{ctr(1, 1, 0, 0, 0, 0, 0), tx1}},

	// ITER (Figure 3): data packets only.
	{stage: "iter", pred: "ACK: no ITER and no lookup, though a rule names its PSN",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules:   []Rule{{SrcIP: ipB, DstIP: ipA, DstQPN: 0x100, PSN: 100, Iter: 1, Action: packet.EventDrop}},
		in:      []send{fromB(ackB)},
		out:     []delivery{{0, 104 + 400 + 4 + 100, ackB}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 104, 0, ackB}},
		ports:   [2]PortCounters{tx1, rx1},
		pairs:   "mirror/spray:1 mirror/rss-rewrite:1"},
	{stage: "iter", pred: "PSN above Last_PSN (seeded at IPSN-1): same round",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 105 + 400 + 5 + 100, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{rx1, tx1}, pairs: oneMiss},
	{stage: "iter", pred: "PSN below Last_PSN: a new round, whose rule hits",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 2, packet.EventDrop)},
		in:  []send{fromA(wm100), fromA(wm101), fromA(wm100)},
		out: []delivery{{1, 610, wm100}, {1, 615, wm101}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}, {0, 2, packet.EventNone, 110, 0, wm101},
			{0, 3, packet.EventDrop, 115, 0, wm100}},
		ports: [2]PortCounters{ctr(3, 3, 0, 0, 3, 1, 1), ctr(0, 0, 2, 2, 0, 0, 0)},
		pairs: "lookup/hit:1 lookup/miss:2 action/drop:1 mirror/spray:3 mirror/rss-rewrite:3 iter/tracked:2 iter/new-round:1"},
	{stage: "iter", pred: "PSN equal to Last_PSN: a new round, whose rule hits",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 2, packet.EventDrop)},
		in:      []send{fromA(wm100), fromA(wm100)},
		out:     []delivery{{1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}, {0, 2, packet.EventDrop, 110, 0, wm100}},
		ports:   [2]PortCounters{ctr(2, 2, 0, 0, 2, 1, 1), tx1},
		pairs:   "lookup/hit:1 lookup/miss:1 action/drop:1 mirror/spray:2 mirror/rss-rewrite:2 iter/tracked:1 iter/new-round:1"},
	{stage: "iter", pred: "connection never added: adopted at ITER 1 (its rule hits), Last_PSN is that PSN",
		cfg: luminaSw, dumpers: []int{1}, rules: []Rule{onAB(100, 1, packet.EventECN)},
		in:      []send{fromA(wm100), fromA(wm100)},
		out:     []delivery{{1, 610, wm100CE}, {1, 615, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventECN, 105, 0, wm100CE}, {0, 2, packet.EventNone, 110, 0, wm100}},
		ports:   [2]PortCounters{ctr(2, 2, 0, 0, 2, 1, 0), ctr(0, 0, 2, 2, 0, 0, 0)},
		pairs:   "lookup/hit:1 lookup/miss:1 action/ecn:1 mirror/spray:2 mirror/rss-rewrite:2 iter/adopt:1 iter/new-round:1"},

	// Lookup: exact match on (source, destination, QP, PSN, ITER).
	{stage: "lookup", pred: "injection off: no lookup, 250 ns, ITER still tracked",
		cfg: noInjectSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventDrop)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 460, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{rx1, tx1},
		pairs:   "mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "lookup", pred: "rule on another QP: miss",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules:   []Rule{{SrcIP: ipA, DstIP: ipB, DstQPN: 0x201, PSN: 100, Iter: 1, Action: packet.EventDrop}},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{rx1, tx1}, pairs: oneMiss},
	{stage: "lookup", pred: "rule on the reverse direction: miss",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules:   []Rule{{SrcIP: ipB, DstIP: ipA, DstQPN: 0x200, PSN: 100, Iter: 1, Action: packet.EventDrop}},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{rx1, tx1}, pairs: oneMiss},
	{stage: "lookup", pred: "rule on a later round: miss",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 2, packet.EventDrop)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{rx1, tx1}, pairs: oneMiss},

	// Action: the forwarded original and the mirror copy carry the
	// rewrite; the mirror copy leaves before a drop.
	{stage: "action", pred: "ecn: ECN set to CE, iCRC untouched",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventECN)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100CE}},
		mirrors: []mirrored{{0, 1, packet.EventECN, 105, 0, wm100CE}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 0), tx1},
		pairs:   "lookup/hit:1 action/ecn:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "corrupt: last payload byte flipped, iCRC stale",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventCorrupt)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100Bad}},
		mirrors: []mirrored{{0, 1, packet.EventCorrupt, 105, 0, wm100Bad}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 0), tx1},
		pairs:   "lookup/hit:1 action/corrupt:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "set-migreq: MigReq set, iCRC resealed",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventSetMigReq)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100Mig}},
		mirrors: []mirrored{{0, 1, packet.EventSetMigReq, 105, 0, wm100Mig}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 0), tx1},
		pairs:   "lookup/hit:1 action/mig-req:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "drop: mirrored, then discarded",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventDrop)},
		in:      []send{fromA(wm100)},
		mirrors: []mirrored{{0, 1, packet.EventDrop, 105, 0, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 1), idle},
		pairs:   "lookup/hit:1 action/drop:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "delay: forwarded after the pipeline plus the rule's 50 µs",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules:   []Rule{{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1, Action: packet.EventDelay, Delay: 50 * sim.Microsecond}},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 105 + 400 + 50_000 + 5 + 100, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventDelay, 105, 0, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 0), tx1},
		pairs:   "lookup/hit:1 action/delay:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "reorder offset 1: held until one later data packet overtakes it",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules:   []Rule{{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1, Action: packet.EventReorder, ReorderOffset: 1}},
		in:      []send{fromA(wm100), fromA(wm101)},
		out:     []delivery{{1, 615, wm101}, {1, 620, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventReorder, 105, 0, wm100}, {0, 2, packet.EventNone, 110, 0, wm101}},
		ports:   [2]PortCounters{ctr(2, 2, 0, 0, 2, 1, 0), ctr(0, 0, 2, 2, 0, 0, 0)},
		pairs:   "lookup/hit:1 lookup/miss:1 action/reorder-hold:1 action/overtake:1 action/release:1 mirror/spray:2 mirror/rss-rewrite:2 iter/tracked:2"},
	{stage: "action", pred: "reorder offset 0: held as offset 1",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventReorder)},
		in:      []send{fromA(wm100), fromA(wm101)},
		out:     []delivery{{1, 615, wm101}, {1, 620, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventReorder, 105, 0, wm100}, {0, 2, packet.EventNone, 110, 0, wm101}},
		ports:   [2]PortCounters{ctr(2, 2, 0, 0, 2, 1, 0), ctr(0, 0, 2, 2, 0, 0, 0)},
		pairs:   "lookup/hit:1 lookup/miss:1 action/reorder-hold:1 action/overtake:1 action/release:1 mirror/spray:2 mirror/rss-rewrite:2 iter/tracked:2"},
	{stage: "action", pred: "reorder offset 2: released by the second overtake",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		rules: []Rule{{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1, Action: packet.EventReorder, ReorderOffset: 2}},
		in:    []send{fromA(wm100), fromA(wm101), fromA(wm102)},
		out:   []delivery{{1, 615, wm101}, {1, 620, wm102}, {1, 625, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventReorder, 105, 0, wm100}, {0, 2, packet.EventNone, 110, 0, wm101},
			{0, 3, packet.EventNone, 115, 0, wm102}},
		ports: [2]PortCounters{ctr(3, 3, 0, 0, 3, 1, 0), ctr(0, 0, 3, 3, 0, 0, 0)},
		pairs: "lookup/hit:1 lookup/miss:2 action/reorder-hold:1 action/overtake:2 action/release:1 mirror/spray:3 mirror/rss-rewrite:3 iter/tracked:3"},
	{stage: "action", pred: "reorder with nothing to overtake: released after the 100 µs hold bound",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)}, rules: []Rule{onAB(100, 1, packet.EventReorder)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 105 + 100_000 + 400 + 5 + 100, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventReorder, 105, 0, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 0, 0, 1, 1, 0), tx1},
		pairs:   "lookup/hit:1 action/reorder-hold:1 action/release:1 mirror/spray:1 mirror/rss-rewrite:1 iter/tracked:1"},
	{stage: "action", pred: "reorder: another connection's data packet does not overtake",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100), conn2}, rules: []Rule{onAB(100, 1, packet.EventReorder)},
		in:  []send{fromA(wm100), fromA(wm(0x201, 100)), fromA(wm101)},
		out: []delivery{{1, 615, wm(0x201, 100)}, {1, 620, wm101}, {1, 625, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventReorder, 105, 0, wm100}, {0, 2, packet.EventNone, 110, 0, wm(0x201, 100)},
			{0, 3, packet.EventNone, 115, 0, wm101}},
		ports: [2]PortCounters{ctr(3, 3, 0, 0, 3, 1, 0), ctr(0, 0, 3, 3, 0, 0, 0)},
		pairs: "lookup/hit:1 lookup/miss:2 action/reorder-hold:1 action/overtake:1 action/release:1 mirror/spray:3 mirror/rss-rewrite:3 iter/tracked:3"},

	// Mirror: every RoCE frame that passes classify, before any drop.
	{stage: "mirror", pred: "mirroring off",
		cfg: noMirrorSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		in:    []send{fromA(wm100)},
		out:   []delivery{{1, 610, wm100}},
		ports: [2]PortCounters{ctr(1, 1, 0, 0, 0, 0, 0), tx1},
		pairs: "lookup/miss:1 iter/tracked:1"},
	{stage: "mirror", pred: "no dumper attached",
		cfg: luminaSw, conns: []ConnMeta{conn(100)},
		in:    []send{fromA(wm100)},
		out:   []delivery{{1, 610, wm100}},
		ports: [2]PortCounters{ctr(1, 1, 0, 0, 0, 0, 0), tx1},
		pairs: "lookup/miss:1 iter/tracked:1"},
	{stage: "mirror", pred: "spray: smooth weighted round-robin over weights 2 and 1",
		cfg: luminaSw, dumpers: []int{2, 1}, conns: []ConnMeta{conn(100)},
		in:  []send{fromA(wm100), fromA(wm101), fromA(wm102)},
		out: []delivery{{1, 610, wm100}, {1, 615, wm101}, {1, 620, wm102}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100}, {1, 2, packet.EventNone, 110, 0, wm101},
			{0, 3, packet.EventNone, 115, 0, wm102}},
		ports: [2]PortCounters{ctr(3, 3, 0, 0, 3, 0, 0), ctr(0, 0, 3, 3, 0, 0, 0)},
		pairs: "lookup/miss:3 mirror/spray:3 mirror/rss-rewrite:3 iter/tracked:3"},
	{stage: "mirror", pred: "spray without the RSS rewrite: UDP port stays 4791",
		cfg: luminaSw, dumpers: []int{1}, noRSS: true, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100)},
		out:     []delivery{{1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, packet.RoCEv2Port, wm100}},
		ports:   [2]PortCounters{rx1, tx1},
		pairs:   "lookup/miss:1 mirror/spray:1 iter/tracked:1"},
	{stage: "mirror", pred: "by ingress: port i mirrors to dumper i",
		cfg: luminaSw, dumpers: []int{1, 1}, byIngress: true, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100), fromB(ackB)},
		out:     []delivery{{0, 608, ackB}, {1, 610, wm100}},
		mirrors: []mirrored{{1, 1, packet.EventNone, 104, 0, ackB}, {0, 2, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 1, 1, 1, 0, 0), ctr(1, 1, 1, 1, 1, 0, 0)},
		pairs:   "lookup/miss:1 mirror/by-ingress:2 mirror/rss-rewrite:2 iter/tracked:1"},
	{stage: "mirror", pred: "by ingress without the RSS rewrite",
		cfg: luminaSw, dumpers: []int{1, 1}, byIngress: true, noRSS: true, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100), fromB(ackB)},
		out:     []delivery{{0, 608, ackB}, {1, 610, wm100}},
		mirrors: []mirrored{{1, 1, packet.EventNone, 104, packet.RoCEv2Port, ackB}, {0, 2, packet.EventNone, 105, packet.RoCEv2Port, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 1, 1, 1, 0, 0), ctr(1, 1, 1, 1, 1, 0, 0)},
		pairs:   "lookup/miss:1 mirror/by-ingress:2 iter/tracked:1"},

	// Egress: L2 forwarding by destination MAC.
	{stage: "egress", pred: "known MACs: each frame leaves by its host's port",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100), fromB(ackB)},
		out:     []delivery{{0, 608, ackB}, {1, 610, wm100}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 104, 0, ackB}, {0, 2, packet.EventNone, 105, 0, wm100}},
		ports:   [2]PortCounters{ctr(1, 1, 1, 1, 1, 0, 0), ctr(1, 1, 1, 1, 1, 0, 0)},
		pairs:   "lookup/miss:1 mirror/spray:2 mirror/rss-rewrite:2 iter/tracked:1"},
	{stage: "egress", pred: "unknown MAC, no default port: dropped after the mirror",
		cfg: luminaSw, dumpers: []int{1}, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100ToEE)},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100ToEE}},
		ports:   [2]PortCounters{rx1, idle}, pairs: oneMiss},
	{stage: "egress", pred: "unknown MAC with a default port: leaves by it",
		cfg: luminaSw, dumpers: []int{1}, uplink: true, conns: []ConnMeta{conn(100)},
		in:      []send{fromA(wm100ToEE)},
		out:     []delivery{{1, 610, wm100ToEE}},
		mirrors: []mirrored{{0, 1, packet.EventNone, 105, 0, wm100ToEE}},
		ports:   [2]PortCounters{rx1, tx1}, pairs: oneMiss},
}

// runPath drives one row on a fresh switch and returns what it did.
func runPath(t *testing.T, row pathRow) (out []delivery, mirrors []mirrored, cov *coverage.Report, sw *Switch) {
	t.Helper()
	r := newRig(t, row.cfg, len(row.dumpers), row.dumpers)
	m := coverage.NewMap()
	r.s.AttachCoverage(m)
	r.sw.ByIngressMirror, r.sw.NoRSSRewrite = row.byIngress, row.noRSS
	if row.uplink {
		r.sw.SetDefaultPort(1)
	}
	for _, c := range row.conns {
		r.sw.AddConnection(c)
	}
	for _, rule := range row.rules {
		r.sw.InstallRule(rule)
	}
	hosts := []*sim.Port{r.fromA, r.fromB}
	for i, p := range hosts {
		p.SetReceiver(func(w []byte) { out = append(out, delivery{i, r.s.Now(), append([]byte(nil), w...)}) })
	}
	for _, s := range row.in {
		hosts[s.host].Send(append([]byte(nil), s.wire...))
	}
	r.s.Run()
	for d, frames := range r.dumps {
		for _, f := range frames {
			meta, ok := packet.ExtractMirrorMeta(f)
			if !ok {
				t.Fatalf("dumper %d: mirror copy % x carries no metadata", d, f)
			}
			mirrors = append(mirrors, mirrored{d, meta.Seq, meta.Event, meta.Timestamp, binary.BigEndian.Uint16(f[36:]), f})
		}
	}
	slices.SortFunc(mirrors, func(a, b mirrored) int { return cmp.Compare(a.seq, b.seq) })
	return out, mirrors, m.Report(), r.sw
}

// injectPairs spells a report's inject.* pairs as "site/transition:count"
// in registry order, site names without their "inject." prefix.
func injectPairs(r *coverage.Report) string {
	var b []string
	for _, s := range r.Sites {
		name, ok := strings.CutPrefix(s.Name, "inject.")
		if !ok {
			continue
		}
		for _, tr := range s.Covered {
			b = append(b, fmt.Sprintf("%s/%s:%d", name, tr.Name, tr.Count))
		}
	}
	return strings.Join(b, " ")
}

// sameOutsideMeta reports whether a mirror copy equals body everywhere
// but the fields the mirror rewrites: both MACs, the TTL and the UDP
// destination port.
func sameOutsideMeta(dup, body []byte) bool {
	if len(dup) != len(body) {
		return false
	}
	for i := range body {
		if i < 12 || i == 22 || i == 36 || i == 37 {
			continue
		}
		if dup[i] != body[i] {
			return false
		}
	}
	return true
}

func TestPipelinePaths(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range pathRows {
		t.Run(row.stage+"/"+row.pred, func(t *testing.T) {
			out, mirrors, cov, sw := runPath(t, row)
			if len(out) != len(row.out) {
				t.Errorf("%d frame(s) delivered, want %d", len(out), len(row.out))
			}
			for i := range min(len(out), len(row.out)) {
				got, want := out[i], row.out[i]
				if got.host != want.host || got.at != want.at || string(got.wire) != string(want.wire) {
					t.Errorf("delivery %d: host %d at %d\n% x\nwant host %d at %d\n% x", i, got.host, got.at, got.wire, want.host, want.at, want.wire)
				}
			}
			if len(mirrors) != len(row.mirrors) {
				t.Errorf("%d mirror copies, want %d", len(mirrors), len(row.mirrors))
			}
			for i := range min(len(mirrors), len(row.mirrors)) {
				got, want := mirrors[i], row.mirrors[i]
				portOK := got.port == want.port
				if want.port == 0 {
					portOK = got.port >= 0xC000 && got.port < 0xF000
				}
				if got.dumper != want.dumper || got.seq != want.seq || got.event != want.event || got.ts != want.ts || !portOK {
					t.Errorf("mirror %d: dumper %d seq %d %v ts %d port %#x; want dumper %d seq %d %v ts %d port %#x (0: rewritten)",
						i, got.dumper, got.seq, got.event, got.ts, got.port, want.dumper, want.seq, want.event, want.ts, want.port)
				}
				if !sameOutsideMeta(got.body, want.body) {
					t.Errorf("mirror %d copies\n% x\nwant\n% x", i, got.body, want.body)
				}
			}
			if got := sw.PerPort(); len(got) != 2 || got[0] != row.ports[0] || got[1] != row.ports[1] {
				t.Errorf("per-port counters %+v, want %+v", got, row.ports)
			}
			want := ctr(row.ports[0].RxFrames+row.ports[1].RxFrames, row.ports[0].RxRoCE+row.ports[1].RxRoCE,
				row.ports[0].TxFrames+row.ports[1].TxFrames, row.ports[0].TxRoCE+row.ports[1].TxRoCE,
				row.ports[0].Mirrored+row.ports[1].Mirrored,
				row.ports[0].Injected+row.ports[1].Injected, row.ports[0].Dropped+row.ports[1].Dropped)
			if got := sw.Totals(); got != want {
				t.Errorf("totals %+v, want %+v", got, want)
			}
			if got := injectPairs(cov); got != row.pairs {
				t.Errorf("coverage %q, want %q", got, row.pairs)
			}
		})
		for _, p := range strings.Fields(row.pairs) {
			seen[p[:strings.IndexByte(p, ':')]] = true
		}
	}
	universe := 0
	for _, s := range coverage.NewMap().Report().Sites {
		if strings.HasPrefix(s.Name, "inject.") {
			universe += s.Transitions
		}
	}
	if universe != 16 || len(seen) != universe {
		t.Errorf("the rows reach %d of %d inject.* pairs (want all 16): %v", len(seen), universe, seen)
	}
}
