package packet

import (
	"testing"
	"testing/quick"
)

func TestMirrorMetaRoundTrip(t *testing.T) {
	p := samplePacket(OpWriteMiddle, 900)
	wire := p.Serialize()
	m := MirrorMeta{Seq: 123456789, Event: EventDrop, Timestamp: 987654321012}
	EmbedMirrorMeta(wire, m)
	got, ok := ExtractMirrorMeta(wire)
	if !ok {
		t.Fatal("ExtractMirrorMeta failed")
	}
	if got != m {
		t.Fatalf("meta = %+v, want %+v", got, m)
	}
}

func TestPropertyMirrorMetaRoundTrip(t *testing.T) {
	base := samplePacket(OpSendMiddle, 128).Serialize()
	f := func(seq uint64, ev uint8, ts int64) bool {
		wire := append([]byte(nil), base...)
		m := MirrorMeta{
			Seq:       seq & metaMask,
			Event:     EventType(ev % 7),
			Timestamp: ts & metaMask,
		}
		EmbedMirrorMeta(wire, m)
		got, ok := ExtractMirrorMeta(wire)
		return ok && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorMetaPreservesRoCEFields(t *testing.T) {
	// Rewriting TTL/MACs must not disturb the fields analysis depends on.
	p := samplePacket(OpWriteMiddle, 300)
	wire := p.Serialize()
	EmbedMirrorMeta(wire, MirrorMeta{Seq: 42, Event: EventECN, Timestamp: 999})
	var got Packet
	if err := DecodeInto(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.BTH != p.BTH {
		t.Fatal("BTH disturbed by mirror metadata embedding")
	}
	if got.IP.Src != p.IP.Src || got.IP.Dst != p.IP.Dst {
		t.Fatal("IP addresses disturbed by mirror metadata embedding")
	}
	if len(got.Payload) != 300 {
		t.Fatal("payload disturbed by mirror metadata embedding")
	}
}

func TestMirrorMetaOnRuntBuffers(t *testing.T) {
	short := make([]byte, 8)
	EmbedMirrorMeta(short, MirrorMeta{Seq: 1}) // must not panic
	if _, ok := ExtractMirrorMeta(short); ok {
		t.Fatal("ExtractMirrorMeta succeeded on runt buffer")
	}
}

func TestRewriteUDPDstPort(t *testing.T) {
	p := samplePacket(OpWriteMiddle, 100)
	wire := p.Serialize()
	if UDPDstPort(wire) != RoCEv2Port {
		t.Fatalf("initial dport = %d", UDPDstPort(wire))
	}
	RewriteUDPDstPort(wire, 12345)
	if UDPDstPort(wire) != 12345 {
		t.Fatalf("dport after rewrite = %d, want 12345", UDPDstPort(wire))
	}
	// Restore, as the dumper does on TERM (§3.4).
	RewriteUDPDstPort(wire, RoCEv2Port)
	var got Packet
	if err := DecodeInto(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.UDP.DstPort != RoCEv2Port {
		t.Fatal("dport not restored")
	}
}

func TestEventTypeStringsAndParse(t *testing.T) {
	for _, e := range []EventType{EventNone, EventECN, EventDrop, EventCorrupt, EventSetMigReq, EventDelay, EventReorder} {
		s := e.String()
		got, ok := ParseEventType(s)
		if !ok || got != e {
			t.Errorf("ParseEventType(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseEventType("bogus"); ok {
		t.Error("ParseEventType accepted bogus input")
	}
	if EventType(200).String() != "unknown" {
		t.Error("out-of-range EventType String")
	}
}

func TestCorruptPayloadRefusesRunts(t *testing.T) {
	if CorruptPayload(make([]byte, 10)) {
		t.Fatal("CorruptPayload corrupted a runt frame")
	}
}
