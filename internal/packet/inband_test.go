package packet

import (
	"bytes"
	"testing"
)

func TestINTStampRoundTrip(t *testing.T) {
	wire := samplePacket(OpWriteMiddle, 1024).Serialize()
	if _, ok := DecodeINTStamp(wire); ok {
		t.Fatal("fresh RoCEv2 packet decoded as stamped (UDP checksum should be zero)")
	}
	if INTTransit(wire) != 0 {
		t.Fatalf("fresh packet carries transit tag %d", INTTransit(wire))
	}
	in := INTStamp{Transit: 0x1234, Hop: 3, QueueBytes: 12500, UtilPermille: 640}
	if !EmbedINTStamp(wire, in) {
		t.Fatal("EmbedINTStamp refused a valid stamp")
	}
	out, ok := DecodeINTStamp(wire)
	if !ok {
		t.Fatal("stamped packet did not decode")
	}
	if out.Transit != in.Transit || out.Hop != in.Hop {
		t.Fatalf("decoded transit/hop = %d/%d, want %d/%d", out.Transit, out.Hop, in.Transit, in.Hop)
	}
	if out.QueueBytes != DequantizeQueueBytes(QuantizeQueueBytes(in.QueueBytes)) {
		t.Fatalf("decoded queue bytes %d not the quantized bucket of %d", out.QueueBytes, in.QueueBytes)
	}
	if out.UtilPermille != DequantizeUtil(QuantizeUtil(in.UtilPermille)) {
		t.Fatalf("decoded util %d not the quantized bucket of %d", out.UtilPermille, in.UtilPermille)
	}
	if INTTransit(wire) != in.Transit {
		t.Fatalf("INTTransit = %d, want %d", INTTransit(wire), in.Transit)
	}
}

func TestINTStampRefusals(t *testing.T) {
	wire := samplePacket(OpWriteMiddle, 0).Serialize()
	if EmbedINTStamp(wire, INTStamp{Transit: 0}) {
		t.Fatal("zero transit tag accepted (0 must stay the unstamped sentinel)")
	}
	short := make([]byte, offBTH-1)
	if EmbedINTStamp(short, INTStamp{Transit: 1}) {
		t.Fatal("short frame accepted")
	}
	if _, ok := DecodeINTStamp(short); ok {
		t.Fatal("short frame decoded")
	}
	if INTTransit(short) != 0 {
		t.Fatal("short frame reports a transit tag")
	}
}

// The whole design rests on the stamped fields being iCRC-invariant:
// restamping at every hop must leave the packet's integrity check
// untouched so the receiving NIC model accepts the forwarded original.
func TestINTStampPreservesICRC(t *testing.T) {
	for _, op := range []Opcode{OpWriteMiddle, OpSendOnly, OpAcknowledge} {
		wire := samplePacket(op, 256).Serialize()
		before := ComputeICRC(wire[:len(wire)-4])
		for hop := uint8(0); hop < 4; hop++ {
			if !EmbedINTStamp(wire, INTStamp{Transit: 77, Hop: hop, QueueBytes: uint32(hop) * 3000, UtilPermille: uint16(hop) * 111}) {
				t.Fatalf("op %v: stamp at hop %d refused", op, hop)
			}
		}
		if after := ComputeICRC(wire[:len(wire)-4]); after != before {
			t.Fatalf("op %v: iCRC changed %#x -> %#x after stamping", op, before, after)
		}
	}
}

// Stamping must not disturb any byte outside the three masked fields.
func TestINTStampTouchesOnlyMaskedFields(t *testing.T) {
	wire := samplePacket(OpWriteMiddle, 64).Serialize()
	orig := append([]byte(nil), wire...)
	EmbedINTStamp(wire, INTStamp{Transit: 0xFFFF, Hop: 0xFF, QueueBytes: 1 << 30, UtilPermille: 9999})
	masked := map[int]bool{
		offUDPChecksum: true, offUDPChecksum + 1: true,
		offIPTTL:      true,
		offIPChecksum: true, offIPChecksum + 1: true,
	}
	for i := range wire {
		if !masked[i] && wire[i] != orig[i] {
			t.Fatalf("byte %d changed %#x -> %#x outside the masked INT fields", i, orig[i], wire[i])
		}
	}
}

func TestWireIsRoCE(t *testing.T) {
	wire := samplePacket(OpWriteMiddle, 0).Serialize()
	if !WireIsRoCE(wire) {
		t.Fatal("serialized RoCEv2 packet not recognized")
	}
	nonRoCE := append([]byte(nil), wire...)
	be.PutUint16(nonRoCE[offUDPDstPort:], 9999) // not the RoCEv2 port
	if WireIsRoCE(nonRoCE) {
		t.Fatal("non-RoCE destination port recognized as RoCE")
	}
	notIP := append([]byte(nil), wire...)
	be.PutUint16(notIP[12:14], 0x86DD)
	if WireIsRoCE(notIP) {
		t.Fatal("non-IPv4 ethertype recognized as RoCE")
	}
	if WireIsRoCE(wire[:offBTH-1]) {
		t.Fatal("short frame recognized as RoCE")
	}
}

func TestQuantizeQueueBytesProperties(t *testing.T) {
	// Exact below 16; monotone non-decreasing round-trip with ≤6.25%
	// relative error through the covered range; clamped above.
	for n := uint32(0); n < 16; n++ {
		if got := DequantizeQueueBytes(QuantizeQueueBytes(n)); got != n {
			t.Fatalf("small value %d round-tripped to %d", n, got)
		}
	}
	prev := uint32(0)
	for n := uint32(16); n <= 507904; n = n + n/7 + 1 {
		got := DequantizeQueueBytes(QuantizeQueueBytes(n))
		if got > n {
			t.Fatalf("bucket lower bound %d exceeds input %d", got, n)
		}
		if err := float64(n-got) / float64(n); err > 0.0625 {
			t.Fatalf("relative error %.4f for %d (bucket %d), want ≤6.25%%", err, n, got)
		}
		if got < prev {
			t.Fatalf("round-trip not monotone: %d then %d", prev, got)
		}
		prev = got
	}
	if QuantizeQueueBytes(1<<31) != 0xFF {
		t.Fatal("huge queue not clamped to 0xFF")
	}
}

func TestQuantizeUtilProperties(t *testing.T) {
	for p := uint16(0); p <= 1000; p++ {
		got := DequantizeUtil(QuantizeUtil(p))
		diff := int(got) - int(p)
		if diff < -2 || diff > 2 {
			t.Fatalf("util %d round-tripped to %d (off by %d, want ±2)", p, got, diff)
		}
	}
	if DequantizeUtil(QuantizeUtil(5000)) != 1000 {
		t.Fatal("over-range util not clamped to 1000")
	}
}

// Regression guard for the field offsets: they must land on the UDP
// checksum, IPv4 TTL, and IPv4 header checksum respectively, which are
// exactly the fields the iCRC masks (see icrc.go).
func TestINTFieldOffsets(t *testing.T) {
	p := samplePacket(OpWriteMiddle, 0)
	p.IP.TTL = 0xAB
	wire := p.Serialize()
	if wire[offIPTTL] != 0xAB {
		t.Fatalf("offIPTTL does not address the IPv4 TTL byte")
	}
	if !bytes.Equal(wire[offUDPChecksum:offUDPChecksum+2], []byte{0, 0}) {
		t.Fatal("UDP checksum of a fresh RoCEv2 packet is not zero")
	}
}
