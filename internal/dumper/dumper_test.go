package dumper

import (
	"hash/fnv"
	"net/netip"
	"testing"
	"unsafe"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
)

// mirrorFrame builds a mirrored RoCE packet with the given randomized
// destination port and payload size.
func mirrorFrame(seq uint64, dport uint16, payload int) []byte {
	p := &packet.Packet{
		Eth: packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 0, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		},
		UDP: packet.UDP{SrcPort: 50000, DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: packet.OpWriteMiddle, DestQP: 7, PSN: uint32(seq)},
	}
	p.Payload = make([]byte, payload)
	wire := p.Serialize()
	packet.EmbedMirrorMeta(wire, packet.MirrorMeta{Seq: seq, Event: packet.EventNone, Timestamp: 1000})
	packet.RewriteUDPDstPort(wire, dport)
	return wire
}

func nodeWithPort(t *testing.T, s *sim.Simulator, cfg Config) (*Node, *sim.Port) {
	t.Helper()
	n := NewNode(s, 0, cfg)
	src, dst := sim.Connect(s, "sw", "dumper", 100, 100)
	src.SetReceiver(func([]byte) {})
	n.AttachPort(dst)
	return n, src
}

func TestCapturesAndTrims(t *testing.T) {
	s := sim.New(1)
	n, src := nodeWithPort(t, s, DefaultConfig())
	src.Send(mirrorFrame(1, 0xC123, 1024))
	s.Run()
	recs := n.Terminate()
	if len(recs) != 1 {
		t.Fatalf("captured %d records", len(recs))
	}
	if len(recs[0]) != 128 {
		t.Fatalf("record is %d bytes, want 128 (trimmed)", len(recs[0]))
	}
	// All protocol headers survive in the first 128 bytes.
	meta, ok := packet.ExtractMirrorMeta(recs[0])
	if !ok || meta.Seq != 1 {
		t.Fatalf("metadata lost after trim: %+v", meta)
	}
}

func TestRestoresUDPPortOnCapture(t *testing.T) {
	s := sim.New(1)
	n, src := nodeWithPort(t, s, DefaultConfig())
	src.Send(mirrorFrame(1, 0xC999, 256))
	s.Run()
	recs := n.Terminate()
	if v, err := packet.ParseHeaders(recs[0]); err != nil || !v.IsRoCE() {
		t.Fatalf("capture parses (%v) to another port than 4791: not restored", err)
	}
}

func TestShortFramesNotPadded(t *testing.T) {
	s := sim.New(1)
	n, src := nodeWithPort(t, s, DefaultConfig())
	src.Send(mirrorFrame(1, 0xC001, 0)) // header-only: < 128 bytes
	s.Run()
	recs := n.Terminate()
	if len(recs) != 1 || len(recs[0]) >= 128 {
		t.Fatalf("short frame record = %d bytes", len(recs[0]))
	}
}

func TestRSSSpreadsRandomizedPorts(t *testing.T) {
	// With randomized destination ports, all cores see work.
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Cores = 4
	n, src := nodeWithPort(t, s, cfg)
	rng := sim.NewRNG(7)
	var frames [][]byte
	for i := 0; i < 400; i++ {
		frames = append(frames, mirrorFrame(uint64(i), uint16(0xC000+rng.Intn(0x3000)), 64))
		src.Send(frames[i])
	}
	s.Run()
	if n.Captured != 400 {
		t.Fatalf("captured %d of 400", n.Captured)
	}
	loads := n.CoreLoads(frames)
	for c, l := range loads {
		if l == 0 {
			t.Fatalf("core %d idle under randomized ports: %v", c, loads)
		}
	}
}

// TestRSSCoreForHighHashes walks every destination port and checks each
// frame whose 5-tuple hash is at or above 2^31 — negative as a 32-bit
// int — lands on core hash mod Cores, computed here in uint32.
func TestRSSCoreForHighHashes(t *testing.T) {
	wire := mirrorFrame(1, 0, 0)
	high := 0
	for _, cores := range []int{3, 8} {
		n := NewNode(sim.New(1), 0, Config{Cores: cores})
		for port := 0; port <= 0xFFFF; port++ {
			packet.RewriteUDPDstPort(wire, uint16(port))
			h := fnv.New32a()
			h.Write(wire[23:24]) // protocol
			h.Write(wire[26:34]) // src+dst IP
			h.Write(wire[34:38]) // src+dst port
			sum := h.Sum32()
			if sum < 1<<31 {
				continue
			}
			high++
			if got, want := n.rssCore(wire), int(sum%uint32(cores)); got != want {
				t.Fatalf("port %#x, hash %#x, %d cores: rssCore = %d, want %d", port, sum, cores, got, want)
			}
		}
	}
	if high == 0 {
		t.Fatal("no port hashed at or above 2^31: the walk is broken")
	}
}

func TestRSSWithoutRewriteConcentratesOneFlow(t *testing.T) {
	// A single flow with a fixed 5-tuple lands on exactly one core —
	// the underutilization the injector's port rewrite defeats (§3.4).
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Cores = 8
	n, src := nodeWithPort(t, s, cfg)
	var frames [][]byte
	for i := 0; i < 200; i++ {
		frames = append(frames, mirrorFrame(uint64(i), packet.RoCEv2Port, 64))
		src.Send(frames[i])
	}
	s.Run()
	if n.Captured != 200 {
		t.Fatalf("captured %d of 200", n.Captured)
	}
	busy := 0
	for _, l := range n.CoreLoads(frames) {
		if l > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("single flow spread across %d cores without port rewrite", busy)
	}
}

func TestRingOverflowDiscards(t *testing.T) {
	// A slow core with a tiny ring must discard under a line-rate burst.
	s := sim.New(1)
	cfg := Config{Cores: 1, PerCoreGbps: 0.1, RingDepth: 8, TrimBytes: 128}
	n, src := nodeWithPort(t, s, cfg)
	for i := 0; i < 100; i++ {
		src.Send(mirrorFrame(uint64(i), 0xC000, 1024))
	}
	s.Run()
	if n.RxDiscards == 0 {
		t.Fatal("no discards despite overwhelming a slow core")
	}
	if n.Captured+n.RxDiscards != 100 {
		t.Fatalf("captured %d + discarded %d != 100", n.Captured, n.RxDiscards)
	}
}

func TestFastCoresKeepUpAtLineRate(t *testing.T) {
	// A full node (8 cores × 5 Gbps, randomized RSS) sustains a 100 Gbps
	// mirror burst long enough for the default ring.
	s := sim.New(1)
	n, src := nodeWithPort(t, s, DefaultConfig())
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		src.Send(mirrorFrame(uint64(i), uint16(0xC000+rng.Intn(0x3000)), 64))
	}
	s.Run()
	if n.RxDiscards != 0 {
		t.Fatalf("%d discards on a modest burst", n.RxDiscards)
	}
	if n.Captured != 2000 {
		t.Fatalf("captured %d, want 2000", n.Captured)
	}
}

func TestTerminateStopsCapture(t *testing.T) {
	s := sim.New(1)
	n, src := nodeWithPort(t, s, DefaultConfig())
	src.Send(mirrorFrame(1, 0xC000, 64))
	s.Run()
	recs := n.Terminate()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	src.Send(mirrorFrame(2, 0xC000, 64))
	s.Run()
	if n.Captured != 1 {
		t.Fatal("node captured after TERM")
	}
}

func TestPoolAggregation(t *testing.T) {
	s := sim.New(1)
	pool := NewPool(s, 3, DefaultConfig())
	var srcs []*sim.Port
	for i, node := range pool.Nodes {
		src, dst := sim.Connect(s, "sw", "dump", 100, 100)
		src.SetReceiver(func([]byte) {})
		node.AttachPort(dst)
		srcs = append(srcs, src)
		_ = i
	}
	seq := uint64(0)
	for i := 0; i < 30; i++ {
		seq++
		srcs[i%3].Send(mirrorFrame(seq, 0xC000+uint16(i), 64))
	}
	s.Run()
	logs := pool.Terminate()
	if len(logs) != 3 {
		t.Fatalf("pool terminate returned %d logs, want one per node", len(logs))
	}
	for i, l := range logs {
		recs := 0
		for c := l.Cursor(); ; recs++ {
			if _, more := c.Next(); !more {
				break
			}
		}
		if recs != 10 {
			t.Fatalf("node %d's log holds %d records, want 10", i, recs)
		}
	}
	// Each node captured the ten frames sent to it and discarded none.
	for i, node := range pool.Nodes {
		if node.RxDiscards != 0 {
			t.Fatalf("node %d discarded %d", i, node.RxDiscards)
		}
		if node.Captured != 10 {
			t.Fatalf("node %d captured %d records, want 10", i, node.Captured)
		}
	}
}

// TestLogIsArrivalOrderedAndHandedOverUncopied captures 3 000 packets
// on four slow cores of one node, big and small frames mixed so that the
// cores finish out of arrival order, and through several log blocks. The
// node's log must hold them in arrival order with the port restored, and
// a second TERM must hand back the very same bytes.
func TestLogIsArrivalOrderedAndHandedOverUncopied(t *testing.T) {
	s := sim.New(1)
	pool := NewPool(s, 1, Config{Cores: 4, PerCoreGbps: 10, RingDepth: 4096})
	src, dst := sim.Connect(s, "sw", "dump", 100, 100)
	src.SetReceiver(func([]byte) {})
	pool.Nodes[0].AttachPort(dst)
	const total = 3000
	for i := 1; i <= total; i++ {
		src.Send(mirrorFrame(uint64(i), uint16(0xC000+i), 1000*(i%3)))
	}
	s.Run()
	first := pool.Terminate()
	if len(first[0].blocks) < 4 {
		t.Fatalf("%d records fit in %d log blocks: the capture is too small", total, len(first[0].blocks))
	}
	recs := pool.Nodes[0].Terminate()
	if len(recs) != total {
		t.Fatalf("log holds %d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if m, _ := packet.ExtractMirrorMeta(r); m.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: the log is not in arrival order", i, m.Seq)
		}
		if v, err := packet.ParseHeaders(r); err != nil || !v.IsRoCE() {
			t.Fatalf("record %d parses (%v) to another port than 4791: not restored", i, err)
		}
	}
	c := pool.Terminate()[0].Cursor()
	for i := range recs {
		if r, _ := c.Next(); unsafe.SliceData(r) != unsafe.SliceData(recs[i]) || len(r) != len(recs[i]) {
			t.Fatalf("a second TERM returned a copy of record %d", i)
		}
	}
	if _, ok := c.Next(); ok {
		t.Fatal("a second TERM returned more records than the first")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := sim.New(1)
	n := NewNode(s, 0, Config{})
	if n.Cfg.Cores != 1 || n.Cfg.RingDepth != 1024 || n.Cfg.TrimBytes != 128 || n.Cfg.PerCoreGbps != 5 {
		t.Fatalf("defaults = %+v", n.Cfg)
	}
}
