package injector

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	ipA  = netip.MustParseAddr("10.0.0.1")
	ipB  = netip.MustParseAddr("10.0.0.2")
)

// rig is a switch with two stub hosts and a stub dumper pool.
type rig struct {
	s  *sim.Simulator
	sw *Switch
	// frames received by each endpoint
	atA, atB [][]byte
	dumps    [][][]byte // per dumper node
	// host-side ports (senders)
	fromA, fromB *sim.Port
}

func newRig(t *testing.T, cfg config.Switch, nDumpers int, weights []int) *rig {
	t.Helper()
	s := sim.New(1)
	r := &rig{s: s, sw: New(s, cfg)}
	hostA, swA := sim.Connect(s, "hostA", "sw-a", 100, 100)
	hostB, swB := sim.Connect(s, "hostB", "sw-b", 100, 100)
	hostA.SetReceiver(func(w []byte) { r.atA = append(r.atA, append([]byte(nil), w...)) })
	hostB.SetReceiver(func(w []byte) { r.atB = append(r.atB, append([]byte(nil), w...)) })
	r.fromA, r.fromB = hostA, hostB
	r.sw.AttachHost(swA, macA)
	r.sw.AttachHost(swB, macB)
	r.dumps = make([][][]byte, nDumpers)
	for i := 0; i < nDumpers; i++ {
		i := i
		dumpPort, swD := sim.Connect(s, "dump", "sw-d", 100, 100)
		dumpPort.SetReceiver(func(w []byte) { r.dumps[i] = append(r.dumps[i], append([]byte(nil), w...)) })
		w := 1
		if weights != nil {
			w = weights[i]
		}
		r.sw.AttachDumper(swD, w)
	}
	return r
}

func luminaCfg() config.Switch {
	return config.Switch{PipelineLatencyNs: 400, Mirror: true, Inject: true}
}

// dataPkt builds a serialized write packet A→B.
func dataPkt(psn uint32, qpn uint32) []byte {
	p := &packet.Packet{
		Eth: packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			ECN: packet.ECNECT0, TTL: 64, Protocol: packet.ProtoUDP,
			Src: ipA, Dst: ipB,
		},
		UDP: packet.UDP{SrcPort: 50000, DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: packet.OpWriteMiddle, MigReq: false, DestQP: qpn, PSN: psn},
	}
	p.Payload = make([]byte, 256)
	return p.Serialize()
}

func (r *rig) sendA(wire []byte) { r.fromA.Send(wire) }

func conn(reqIPSN uint32) ConnMeta {
	return ConnMeta{
		ReqIP: ipA, ReqQPN: 0x100, ReqIPSN: reqIPSN,
		RespIP: ipB, RespQPN: 0x200, RespIPSN: 5000,
	}
}

func TestL2ForwardingByMAC(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sendA(dataPkt(10, 0x200))
	r.s.Run()
	if len(r.atB) != 1 {
		t.Fatalf("B received %d frames, want 1", len(r.atB))
	}
	if len(r.atA) != 0 {
		t.Fatal("frame echoed to sender")
	}
}

func TestUnknownMACDropped(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	w := dataPkt(10, 0x200)
	w[0] = 0xEE // unknown destination MAC
	r.sendA(w)
	r.s.Run()
	if len(r.atB)+len(r.atA) != 0 {
		t.Fatal("frame to unknown MAC was forwarded")
	}
}

// TestForwardedFrameIsNotTheSendersBuffer: the switch holds a frame for
// its pipeline latency, and the sender may reuse its buffer as soon as
// Send returns. Overwriting the buffer while the frame is inside the
// pipeline must not change what B receives.
func TestForwardedFrameIsNotTheSendersBuffer(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	wire := dataPkt(10, 0x200)
	want := append([]byte(nil), wire...)
	r.sendA(wire)
	r.s.DrainUntil(200) // arrived at ~126 ns, forwarded at ~526 ns
	if r.sw.Totals().RxFrames != 1 || len(r.atB) != 0 {
		t.Fatalf("at 200 ns the switch has received %d frame(s) and B %d, want 1 and 0", r.sw.Totals().RxFrames, len(r.atB))
	}
	for i := range wire {
		wire[i] = 'a'
	}
	r.s.Run()
	if len(r.atB) != 1 || !bytes.Equal(r.atB[0], want) {
		t.Fatalf("B received %q, want the bytes A sent", r.atB)
	}
}

func TestPipelineLatencyApplied(t *testing.T) {
	// Full Lumina pipeline: the configured 400 ns. With injection off,
	// only the parse+forward stages run: 5/8 of it (250 ns).
	cases := []struct {
		cfg  config.Switch
		pipe sim.Duration
	}{
		{config.Switch{PipelineLatencyNs: 400, Mirror: false, Inject: true}, 400},
		{config.Switch{PipelineLatencyNs: 400, Mirror: false, Inject: false}, 250},
		{config.Switch{PipelineLatencyNs: 400, L2Only: true}, 250},
	}
	for _, c := range cases {
		r := newRig(t, c.cfg, 0, nil)
		var arrived sim.Time
		wire := dataPkt(1, 0x200)
		r.fromB.SetReceiver(func(w []byte) { arrived = r.s.Now() })
		r.sendA(wire)
		r.s.Run()
		// One-way: serialization + 100 ns prop + pipeline + serialization
		// + 100 ns prop.
		ser := sim.TransferTime(len(wire), 100)
		want := ser + 100 + c.pipe + ser + 100
		if arrived != sim.Time(want) {
			t.Fatalf("cfg %+v: arrival at %v, want %v", c.cfg, arrived, sim.Time(want))
		}
	}
}

func TestITERTracking(t *testing.T) {
	// Figure 3's worked example: sequence 1 2 3 4 2 3 4 3 4 with IPSN 1
	// yields ITERs 1 1 1 1 2 2 2 3 3.
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(1))
	psns := []uint32{1, 2, 3, 4, 2, 3, 4, 3, 4}
	want := []uint32{1, 1, 1, 1, 2, 2, 2, 3, 3}
	for i, psn := range psns {
		if got := r.sw.trackITER(r.sw.conns[keyOf(ipA, ipB, 0x200)], psn); got != want[i] {
			t.Fatalf("packet %d (PSN %d): ITER = %d, want %d", i, psn, got, want[i])
		}
	}
}

func TestITERSeedHandlesFirstPacketAtIPSN(t *testing.T) {
	// The first packet arrives with PSN == IPSN; Last_PSN = IPSN-1 must
	// not count it as a retransmission — including when IPSN is 0 and
	// the seed wraps to 2^24-1.
	for _, ipsn := range []uint32{0, 1, 77, packet.PSNMask} {
		r := newRig(t, luminaCfg(), 1, nil)
		r.sw.AddConnection(conn(ipsn))
		if got := r.sw.trackITER(r.sw.conns[keyOf(ipA, ipB, 0x200)], ipsn); got != 1 {
			t.Fatalf("IPSN %d: first packet ITER = %d, want 1", ipsn, got)
		}
	}
}

// TestConnMetasNeverShareARecord seeds three connections, two of them
// between the same hosts, from one AddConnections slab, then a fourth
// through AddConnection once the slab is spent: each direction of each
// connection must own its record, seeded from its own metadata, and
// ITER progress on one must not show on another.
func TestConnMetasNeverShareARecord(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	ipC := netip.MustParseAddr("10.0.0.3")
	metas := []ConnMeta{
		{ReqIP: ipA, ReqQPN: 0x101, ReqIPSN: 10, RespIP: ipB, RespQPN: 0x201, RespIPSN: 20},
		{ReqIP: ipA, ReqQPN: 0x102, ReqIPSN: 30, RespIP: ipB, RespQPN: 0x202, RespIPSN: 40},
		{ReqIP: ipC, ReqQPN: 0x103, ReqIPSN: 50, RespIP: ipB, RespQPN: 0x203, RespIPSN: 60},
	}
	r.sw.AddConnections(metas)
	extra := ConnMeta{ReqIP: ipA, ReqQPN: 0x104, ReqIPSN: 70, RespIP: ipB, RespQPN: 0x204, RespIPSN: 80}
	r.sw.AddConnection(extra)
	seen := map[*connection]bool{}
	for _, m := range append(metas, extra) {
		for _, k := range []connKey{keyOf(m.ReqIP, m.RespIP, m.RespQPN), keyOf(m.RespIP, m.ReqIP, m.ReqQPN)} {
			c := r.sw.conns[k]
			if c == nil || seen[c] {
				t.Fatalf("meta %+v: key %v has no record of its own", m, k)
			}
			seen[c] = true
			if c.iter != 1 || c.lastPSN != m.ReqIPSN-1 {
				t.Fatalf("meta %+v: key %v seeded (iter %d, last PSN %d), want (1, %d)", m, k, c.iter, c.lastPSN, m.ReqIPSN-1)
			}
		}
	}
	// A retransmission on the first connection moves only its ITER.
	first := r.sw.conns[keyOf(ipA, ipB, 0x201)]
	r.sw.trackITER(first, 10)
	r.sw.trackITER(first, 11)
	r.sw.trackITER(first, 10)
	for c := range seen {
		if c != first && c.iter != 1 {
			t.Fatalf("another connection's ITER moved to %d", c.iter)
		}
	}
	if first.iter != 2 {
		t.Fatalf("first connection's ITER is %d after a retransmission, want 2", first.iter)
	}
}

func TestDropActionDropsButMirrors(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(1000))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 1002, Iter: 1, Action: packet.EventDrop})
	for psn := uint32(1000); psn < 1005; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	if len(r.atB) != 4 {
		t.Fatalf("B received %d frames, want 4 (one dropped)", len(r.atB))
	}
	if len(r.dumps[0]) != 5 {
		t.Fatalf("mirrored %d packets, want 5 (dropped packet is mirrored before the MMU)", len(r.dumps[0]))
	}
	// The mirror copy of the dropped packet carries event=drop.
	dropSeen := false
	for _, d := range r.dumps[0] {
		meta, ok := packet.ExtractMirrorMeta(d)
		if !ok {
			t.Fatal("mirror metadata missing")
		}
		if meta.Event == packet.EventDrop {
			dropSeen = true
			var pkt packet.Packet
			if err := packet.DecodeInto(d, &pkt); err != nil {
				t.Fatal(err)
			}
			if pkt.BTH.PSN != 1002 {
				t.Fatalf("drop-marked mirror has PSN %d", pkt.BTH.PSN)
			}
		}
	}
	if !dropSeen {
		t.Fatal("no mirror packet carries the drop event")
	}
	if got := r.sw.Totals().Dropped; got != 1 {
		t.Fatalf("Dropped counter = %d", got)
	}
}

func TestECNActionMarksAndPreservesICRC(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(2000))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 2000, Iter: 1, Action: packet.EventECN})
	r.sendA(dataPkt(2000, 0x200))
	r.s.Run()
	if len(r.atB) != 1 {
		t.Fatalf("B received %d frames", len(r.atB))
	}
	var pkt packet.Packet
	if err := packet.DecodeInto(r.atB[0], &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.IP.ECN != packet.ECNCE {
		t.Fatal("forwarded packet not CE-marked")
	}
	if err := packet.VerifyICRC(r.atB[0]); err != nil {
		t.Fatalf("ECN marking broke the iCRC: %v", err)
	}
}

func TestCorruptActionBreaksICRC(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(2000))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 2000, Iter: 1, Action: packet.EventCorrupt})
	r.sendA(dataPkt(2000, 0x200))
	r.s.Run()
	if len(r.atB) != 1 {
		t.Fatalf("B received %d frames", len(r.atB))
	}
	if err := packet.VerifyICRC(r.atB[0]); err == nil {
		t.Fatal("corrupted packet still passes iCRC")
	}
}

// TestSetMigReqActionRewritesAndFixesICRC: the forwarded frame is its
// input with the MigReq bit set (BTH flags byte, offset 43) and the iCRC
// resealed — no other byte moves, so the INT hop state in an input's
// TTL, IPv4 checksum and UDP checksum fields survives the rewrite.
func TestSetMigReqActionRewritesAndFixesICRC(t *testing.T) {
	const flags = 14 + 20 + 8 + 1
	stamped := dataPkt(2000, 0x200)
	if !packet.EmbedINTStamp(stamped, packet.INTStamp{Transit: 7, Hop: 3, QueueBytes: 4096, UtilPermille: 500}) {
		t.Fatal("EmbedINTStamp refused the frame")
	}
	for name, in := range map[string][]byte{"plain": dataPkt(2000, 0x200), "int-stamped": stamped} {
		r := newRig(t, luminaCfg(), 1, nil)
		r.sw.AddConnection(conn(2000))
		r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 2000, Iter: 1, Action: packet.EventSetMigReq})
		r.sendA(bytes.Clone(in)) // dataPkt sends MigReq = false
		r.s.Run()
		if len(r.atB) != 1 {
			t.Fatalf("%s: B received %d frames, want 1", name, len(r.atB))
		}
		out := r.atB[0]
		if err := packet.VerifyICRC(out); err != nil {
			t.Fatalf("%s: MigReq rewrite must recompute iCRC: %v", name, err)
		}
		want := bytes.Clone(in)
		want[flags] |= 0x40
		crc := len(want) - packet.ICRCSize
		if len(out) != len(want) || !bytes.Equal(out[:crc], want[:crc]) {
			t.Fatalf("%s: forwarded frame differs from its input beyond the MigReq bit and the iCRC\n got %x\nwant %x", name, out, want)
		}
		if bytes.Equal(out[crc:], in[crc:]) {
			t.Fatalf("%s: iCRC left as it was", name)
		}
	}
}

func TestIterScopedRuleHitsOnlyRetransmission(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	// Drop PSN 102 in round 2 only.
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 102, Iter: 2, Action: packet.EventDrop})
	// Round 1: 100..104. Then "retransmission" from 102.
	for psn := uint32(100); psn <= 104; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.sendA(dataPkt(102, 0x200)) // ITER becomes 2 here
	r.sendA(dataPkt(103, 0x200))
	r.s.Run()
	// 7 sent; only the second copy of 102 dropped.
	if len(r.atB) != 6 {
		t.Fatalf("B received %d frames, want 6", len(r.atB))
	}
	if got := r.sw.Totals().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
}

func TestMirrorMetadataSequenceAndTimestamps(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	for psn := uint32(100); psn < 110; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	if len(r.dumps[0]) != 10 {
		t.Fatalf("mirrored %d, want 10", len(r.dumps[0]))
	}
	var lastSeq uint64
	var lastTS int64
	for i, d := range r.dumps[0] {
		meta, ok := packet.ExtractMirrorMeta(d)
		if !ok {
			t.Fatal("metadata missing")
		}
		if meta.Seq != uint64(i+1) {
			t.Fatalf("mirror %d has seq %d, want %d", i, meta.Seq, i+1)
		}
		if i > 0 && meta.Timestamp < lastTS {
			t.Fatal("mirror timestamps not monotonic")
		}
		if meta.Seq <= lastSeq {
			t.Fatal("mirror sequence not increasing")
		}
		lastSeq, lastTS = meta.Seq, meta.Timestamp
		// RSS rewrite: destination port no longer 4791.
		if v, err := packet.ParseHeaders(d); err != nil || v.IsRoCE() {
			t.Fatalf("mirror copy parses (%v) to the RoCEv2 port; RSS rewrite missing", err)
		}
	}
	if r.sw.MirrorCount() != 10 {
		t.Fatalf("MirrorCount = %d", r.sw.MirrorCount())
	}
}

func TestWeightedRoundRobinSpraying(t *testing.T) {
	r := newRig(t, luminaCfg(), 3, []int{2, 1, 1})
	r.sw.AddConnection(conn(0))
	for i := 0; i < 400; i++ {
		r.sendA(dataPkt(uint32(i), 0x200))
	}
	r.s.Run()
	got := []int{len(r.dumps[0]), len(r.dumps[1]), len(r.dumps[2])}
	if got[0] != 200 || got[1] != 100 || got[2] != 100 {
		t.Fatalf("WRR distribution = %v, want [200 100 100]", got)
	}
}

func TestNonRoCEFramesForwardedUntouched(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	p := &packet.Packet{
		Eth: packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeIPv4},
		IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: ipA, Dst: ipB},
		UDP: packet.UDP{SrcPort: 1234, DstPort: 80},
		BTH: packet.BTH{Opcode: packet.OpSendOnly, DestQP: 1, PSN: 1},
	}
	wire := p.Serialize()
	r.sendA(wire)
	r.s.Run()
	if len(r.atB) != 1 {
		t.Fatal("non-RoCE frame not forwarded")
	}
	if len(r.dumps[0]) != 0 {
		t.Fatal("non-RoCE frame mirrored")
	}
	if r.sw.Totals().RxRoCE != 0 {
		t.Fatal("non-RoCE frame counted as RoCE")
	}
}

// A frame the RoCE parser rejects still leaves by its destination MAC:
// the parser fills the Ethernet header before it looks any further, and
// forwarding reads only that. Frames shorter than a BTH must route too,
// and so must RoCE frames whose headers parse but whose CNP pad or
// pad-and-iCRC tail is missing.
func TestUndecodableFramesForwardedByMAC(t *testing.T) {
	eth := append(append(append([]byte(nil), macB[:]...), macA[:]...), 0x08, 0x00)
	ipv4 := []byte{
		0x45, 0x00, 0x00, 0x28, // v4 IHL 5, total length 40
		0x00, 0x01, 0x40, 0x00, // ID 1, DF
		0x40, 0x06, 0x00, 0x00, // TTL 64, TCP, checksum (not checked)
		10, 0, 0, 1, 10, 0, 0, 2,
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	arp := cat(eth[:12], []byte{0x08, 0x06}, []byte{
		0x00, 0x01, 0x08, 0x00, 0x06, 0x04, 0x00, 0x01, // Ethernet/IPv4 request
	}, macA[:], []byte{10, 0, 0, 1}, make([]byte, 6), []byte{10, 0, 0, 2})
	tcp := cat(eth, ipv4, []byte{
		0x04, 0xd2, 0x00, 0x50, 0, 0, 0, 1, 0, 0, 0, 0, // 1234 -> 80, seq 1
		0x50, 0x02, 0xff, 0xff, 0, 0, 0, 0, // data offset 5, SYN
	})
	ihl6 := cat(eth, ipv4, make([]byte, 24))
	ihl6[14] = 0x46
	ihl6[14+9] = packet.ProtoUDP
	runt := cat(eth, ipv4, []byte{0x04, 0xd2, 0x12, 0xb7, 0x00, 0x08, 0x00, 0x00})[:40]
	runt[14+9] = packet.ProtoUDP
	// bth spells a UDP/4791 frame through its BTH (QP 0x200, PSN 7) with
	// the given opcode and flags byte; the IPv4 total length is not read.
	bth := func(op, flags byte) []byte {
		ip := cat(ipv4)
		ip[9] = packet.ProtoUDP
		return cat(eth, ip, []byte{0xc0, 0x00, 0x12, 0xb7, 0x00, 0x14, 0x00, 0x00}, // UDP 49152 -> 4791
			[]byte{op, flags, 0xff, 0xff, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x07})
	}
	// Headers parse, but the frame is short of what follows them.
	cnpCut := cat(bth(byte(packet.OpCNP), 0x00), []byte{0x01, 0x02, 0x03, 0x04})     // iCRC, no 16-byte pad
	writeMiddleCut := cat(bth(byte(packet.OpWriteMiddle), 0x30), []byte{0xa5, 0xa5}) // pad count 3; no pad or iCRC

	frames := []struct {
		name string
		wire []byte
	}{{"arp", arp}, {"ipv4-tcp", tcp}, {"ipv4-ihl6", ihl6}, {"runt", runt},
		{"cnp-without-pad", cnpCut}, {"write-middle-without-tail", writeMiddleCut}}
	if len(arp) != 42 || len(runt) != 40 || len(cnpCut) != 58 || len(writeMiddleCut) != 56 {
		t.Fatalf("spelled %d-byte ARP, %d-byte runt, %d-byte CNP and %d-byte Write Middle, want 42, 40, 58 and 56",
			len(arp), len(runt), len(cnpCut), len(writeMiddleCut))
	}
	for _, f := range frames {
		r := newRig(t, luminaCfg(), 1, nil)
		r.sendA(append([]byte(nil), f.wire...))
		r.s.Run()
		if len(r.atB) != 1 || !bytes.Equal(r.atB[0], f.wire) {
			t.Errorf("%s: B received %d frame(s), want the frame unchanged", f.name, len(r.atB))
		}
		if len(r.dumps[0]) != 0 {
			t.Errorf("%s: mirrored", f.name)
		}
		if n := r.sw.Totals().RxRoCE; n != 0 {
			t.Errorf("%s: counted as RoCE (%d)", f.name, n)
		}
	}

	// A frame shorter than an Ethernet header has no destination MAC to
	// forward by, whatever its first six bytes say.
	r := newRig(t, luminaCfg(), 1, nil)
	r.sendA(append([]byte(nil), eth[:13]...))
	r.s.Run()
	if tot := r.sw.Totals(); len(r.atB) != 0 || tot.RxFrames != 1 || tot.TxFrames != 0 {
		t.Errorf("13-byte runt: B received %d frame(s), counters %+v; want it dropped as an unknown MAC", len(r.atB), tot)
	}
}

func TestL2OnlyModeBypassesPipeline(t *testing.T) {
	cfg := config.Switch{PipelineLatencyNs: 400, Mirror: true, Inject: true, L2Only: true}
	r := newRig(t, cfg, 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 100, Iter: 1, Action: packet.EventDrop})
	r.sendA(dataPkt(100, 0x200))
	r.s.Run()
	if len(r.atB) != 1 {
		t.Fatal("L2-only switch dropped a packet")
	}
	if len(r.dumps[0]) != 0 {
		t.Fatal("L2-only switch mirrored")
	}
}

func TestMirrorDisabled(t *testing.T) {
	cfg := config.Switch{PipelineLatencyNs: 400, Mirror: false, Inject: true}
	r := newRig(t, cfg, 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 101, Iter: 1, Action: packet.EventDrop})
	for psn := uint32(100); psn < 103; psn++ {
		r.sendA(dataPkt(psn, 0x200))
	}
	r.s.Run()
	if len(r.dumps[0]) != 0 {
		t.Fatal("mirroring disabled but packets mirrored")
	}
	if len(r.atB) != 2 {
		t.Fatal("injection should still work without mirroring")
	}
}

func TestRuleHitCounting(t *testing.T) {
	r := newRig(t, luminaCfg(), 1, nil)
	r.sw.AddConnection(conn(100))
	r.sw.InstallRule(Rule{SrcIP: ipA, DstIP: ipB, DstQPN: 0x200, PSN: 101, Iter: 1, Action: packet.EventECN})
	r.sendA(dataPkt(100, 0x200))
	r.sendA(dataPkt(101, 0x200))
	r.s.Run()
	if len(r.sw.conns[keyOf(ipA, ipB, 0x200)].rules) != 1 {
		t.Fatalf("%d rules installed, want 1", len(r.sw.conns[keyOf(ipA, ipB, 0x200)].rules))
	}
	if got := r.sw.Totals().Injected; got != 1 {
		t.Fatalf("Injected = %d, want 1: the rule hits PSN 101 once", got)
	}
}

func TestTranslateIntentsWriteDirection(t *testing.T) {
	events := []config.Event{
		{QPN: 1, PSN: 4, Iter: 1, Type: "ecn"},
		{QPN: 2, PSN: 5, Iter: 2, Type: "drop"},
	}
	conns := []ConnMeta{
		{ReqIP: ipA, ReqQPN: 0xfe, ReqIPSN: 1001, RespIP: ipB, RespQPN: 0xea, RespIPSN: 3002},
		{ReqIP: ipA, ReqQPN: 0x11, ReqIPSN: 500, RespIP: ipB, RespQPN: 0x22, RespIPSN: 700},
	}
	rules, err := TranslateIntents(events, "write", conns, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	// Figure 2's worked example: IPSN 1001, 4th packet → PSN 1004.
	r0 := rules[0]
	if r0.SrcIP != ipA || r0.DstIP != ipB || r0.DstQPN != 0xea || r0.PSN != 1004 || r0.Iter != 1 || r0.Action != packet.EventECN {
		t.Fatalf("rule 0 = %+v", r0)
	}
	r1 := rules[1]
	if r1.PSN != 504 || r1.Iter != 2 || r1.DstQPN != 0x22 {
		t.Fatalf("rule 1 = %+v", r1)
	}
}

func TestTranslateIntentsReadDirection(t *testing.T) {
	events := []config.Event{{QPN: 1, PSN: 5, Iter: 1, Type: "drop"}}
	conns := []ConnMeta{{ReqIP: ipA, ReqQPN: 0xfe, ReqIPSN: 1001, RespIP: ipB, RespQPN: 0xea, RespIPSN: 3002}}
	rules, err := TranslateIntents(events, "read", conns, 100)
	if err != nil {
		t.Fatal(err)
	}
	r0 := rules[0]
	// Read data flows responder → requester, targeting the requester QP,
	// in the requester's PSN space.
	if r0.SrcIP != ipB || r0.DstIP != ipA || r0.DstQPN != 0xfe || r0.PSN != 1005 {
		t.Fatalf("read rule = %+v", r0)
	}
}

func TestTranslateIntentsEveryExpansion(t *testing.T) {
	events := []config.Event{{QPN: 1, PSN: 1, Iter: 1, Type: "ecn", Every: 50}}
	conns := []ConnMeta{{ReqIP: ipA, ReqQPN: 1, ReqIPSN: 0, RespIP: ipB, RespQPN: 2, RespIPSN: 0}}
	rules, err := TranslateIntents(events, "write", conns, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 { // packets 1, 51, 101, 151
		t.Fatalf("expanded to %d rules, want 4", len(rules))
	}
	if rules[1].PSN != 50 {
		t.Fatalf("second rule PSN = %d, want 50 (51st packet, IPSN 0)", rules[1].PSN)
	}
}

func TestTranslateIntentsErrors(t *testing.T) {
	conns := []ConnMeta{{ReqIP: ipA, ReqQPN: 1, ReqIPSN: 0, RespIP: ipB, RespQPN: 2}}
	if _, err := TranslateIntents([]config.Event{{QPN: 2, PSN: 1, Type: "drop"}}, "write", conns, 10); err == nil {
		t.Error("out-of-range qpn accepted")
	}
	if _, err := TranslateIntents([]config.Event{{QPN: 1, PSN: 1, Type: "nope"}}, "write", conns, 10); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := TranslateIntents([]config.Event{{QPN: 1, PSN: 0, Type: "drop"}}, "write", conns, 10); err == nil {
		t.Error("zero psn accepted")
	}
}
