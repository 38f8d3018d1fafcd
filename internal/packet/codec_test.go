package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// samplePacket builds a representative data packet for round-trip tests.
func samplePacket(op Opcode, payload int) *Packet {
	p := &Packet{
		Eth: Ethernet{
			Dst:       MAC{0x02, 0, 0, 0, 0, 2},
			Src:       MAC{0x02, 0, 0, 0, 0, 1},
			EtherType: EtherTypeIPv4,
		},
		IP: IPv4{
			DSCP: 26, ECN: ECNECT0, ID: 7, Flags: 2, TTL: 64,
			Protocol: ProtoUDP,
			Src:      addr("10.0.0.1"), Dst: addr("10.0.0.2"),
		},
		UDP: UDP{SrcPort: 49152, DstPort: RoCEv2Port},
		BTH: BTH{
			Opcode: op, MigReq: true, PKey: 0xFFFF,
			DestQP: 0xABCDE, PSN: 0x123456, AckReq: op.IsLast() || op.IsOnly(),
		},
	}
	if op.HasRETH() {
		p.RETH = RETH{VA: 0xDEADBEEF0000, RKey: 0x1234, DMALen: 65536}
	}
	if op.HasAETH() {
		p.AETH = AETH{Syndrome: SyndromeACK | 0x1F, MSN: 42}
	}
	if op.HasImm() {
		p.Imm = 0xCAFEBABE
	}
	if op.HasAtomicETH() {
		p.Atomic = AtomicETH{VA: 0xFEED0000, RKey: 0x77, SwapAdd: 0x1111222233334444, Compare: 0x5555}
	}
	if op.HasAtomicAck() {
		p.AtomicAck = 0x9999AAAABBBBCCCC
	}
	if payload > 0 {
		p.Payload = make([]byte, payload)
		for i := range p.Payload {
			p.Payload[i] = byte(i * 7)
		}
	}
	return p
}

func TestRoundTripAllOpcodes(t *testing.T) {
	ops := []Opcode{
		OpSendFirst, OpSendMiddle, OpSendLast, OpSendLastImm, OpSendOnly,
		OpSendOnlyImm, OpWriteFirst, OpWriteMiddle, OpWriteLast,
		OpWriteLastImm, OpWriteOnly, OpWriteOnlyImm, OpReadRequest,
		OpReadResponseFirst, OpReadResponseMiddle, OpReadResponseLast,
		OpReadResponseOnly, OpAcknowledge, OpAtomicAcknowledge,
		OpCompareSwap, OpFetchAdd, OpCNP,
	}
	for _, op := range ops {
		payload := 0
		if op.IsData() && !op.IsReadRequest() {
			payload = 1024
		}
		orig := samplePacket(op, payload)
		wire := orig.Serialize()

		var got Packet
		if err := DecodeInto(wire, &got); err != nil {
			t.Fatalf("%v: decode: %v", op, err)
		}
		if got.BTH != orig.BTH {
			t.Errorf("%v: BTH = %+v, want %+v", op, got.BTH, orig.BTH)
		}
		if got.IP.Src != orig.IP.Src || got.IP.Dst != orig.IP.Dst {
			t.Errorf("%v: IP addrs mismatch", op)
		}
		if op.HasRETH() && got.RETH != orig.RETH {
			t.Errorf("%v: RETH = %+v, want %+v", op, got.RETH, orig.RETH)
		}
		if op.HasAETH() && got.AETH != orig.AETH {
			t.Errorf("%v: AETH = %+v, want %+v", op, got.AETH, orig.AETH)
		}
		if op.HasImm() && got.Imm != orig.Imm {
			t.Errorf("%v: Imm = %#x, want %#x", op, got.Imm, orig.Imm)
		}
		if op.HasAtomicETH() && got.Atomic != orig.Atomic {
			t.Errorf("%v: AtomicETH = %+v, want %+v", op, got.Atomic, orig.Atomic)
		}
		if op.HasAtomicAck() && got.AtomicAck != orig.AtomicAck {
			t.Errorf("%v: AtomicAck = %#x, want %#x", op, got.AtomicAck, orig.AtomicAck)
		}
		if !bytes.Equal(got.Payload, orig.Payload) {
			t.Errorf("%v: payload mismatch (%d vs %d bytes)", op, len(got.Payload), len(orig.Payload))
		}
		if err := VerifyICRC(wire); err != nil {
			t.Errorf("%v: %v", op, err)
		}
		if !VerifyIPv4Checksum(wire) {
			t.Errorf("%v: bad IPv4 header checksum", op)
		}
		if len(wire) != orig.WireLen() {
			t.Errorf("%v: wire len %d != WireLen() %d", op, len(wire), orig.WireLen())
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(qp, psn uint32, payLen uint16, se, ackReq, mig bool) bool {
		p := samplePacket(OpWriteMiddle, int(payLen%2048))
		p.BTH.DestQP = qp & PSNMask
		p.BTH.PSN = psn & PSNMask
		p.BTH.SE, p.BTH.AckReq, p.BTH.MigReq = se, ackReq, mig
		wire := p.Serialize()
		var got Packet
		if err := DecodeInto(wire, &got); err != nil {
			return false
		}
		return got.BTH == p.BTH && bytes.Equal(got.Payload, p.Payload) &&
			VerifyICRC(wire) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestICRCSurvivesECNMarkAndTTLDecrement(t *testing.T) {
	p := samplePacket(OpWriteOnly, 256)
	wire := p.Serialize()
	SetECNCE(wire)
	wire[14+8]-- // TTL decrement, as a router would
	if err := VerifyICRC(wire); err != nil {
		t.Fatalf("iCRC must be invariant under ECN marking and TTL decrement: %v", err)
	}
	var got Packet
	if err := DecodeInto(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.IP.ECN != ECNCE {
		t.Fatalf("ECN = %d after SetECNCE, want CE", got.IP.ECN)
	}
}

// TestSetECNCEResealsTheIPv4Checksum marks writeFirst CE: TOS 0x00 →
// 0x03 and the header checksum 0x1472 → 0x146f (computed outside the
// repository). Under an INT transit tag the checksum bytes hold hop
// state and stay as they were.
func TestSetECNCEResealsTheIPv4Checksum(t *testing.T) {
	wire := append([]byte(nil), writeFirst...)
	SetECNCE(wire)
	want := append([]byte(nil), writeFirst...)
	want[15], want[24], want[25] = 0x03, 0x14, 0x6f
	if !bytes.Equal(wire, want) {
		t.Fatalf("CE-marked frame:\n got  % x\n want % x", wire, want)
	}
	if !VerifyIPv4Checksum(wire) {
		t.Fatal("CE-marked frame fails its IPv4 checksum")
	}

	tagged := append([]byte(nil), writeFirst...)
	tagged[24], tagged[25], tagged[40], tagged[41] = 0xab, 0xcd, 0x00, 0x07 // hop state, transit tag 7
	SetECNCE(tagged)
	want = append([]byte(nil), writeFirst...)
	want[15], want[24], want[25], want[40], want[41] = 0x03, 0xab, 0xcd, 0x00, 0x07
	if !bytes.Equal(tagged, want) {
		t.Fatalf("CE-marked INT frame:\n got  % x\n want % x", tagged, want)
	}
}

func TestICRCDetectsPayloadCorruption(t *testing.T) {
	p := samplePacket(OpSendOnly, 512)
	wire := p.Serialize()
	if !CorruptPayload(wire) {
		t.Fatal("CorruptPayload refused a payload-bearing packet")
	}
	if err := VerifyICRC(wire); err == nil {
		t.Fatal("iCRC verification passed on a corrupted packet")
	}
}

func TestICRCDetectsHeaderTampering(t *testing.T) {
	p := samplePacket(OpWriteOnly, 64)
	wire := p.Serialize()
	// Flip a PSN bit: invariant field, must break iCRC.
	wire[42+11] ^= 0x01
	if err := VerifyICRC(wire); err == nil {
		t.Fatal("iCRC passed after PSN tampering")
	}
}

// writeFirst is an RDMA Write First, QP 0x12, PSN 0x64, with a RETH for
// eight bytes at VA 0x1000 and those eight bytes as payload: 70 bytes of
// headers, 82 on the wire.
var writeFirst = []byte{
	0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // Ethernet dst
	0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // Ethernet src
	0x08, 0x00, // EtherType IPv4
	0x45, 0x00, 0x00, 0x44, // IPv4: v4 IHL 5, total length 68
	0x12, 0x35, 0x40, 0x00, // ID 0x1235, DF
	0x40, 0x11, 0x14, 0x72, // TTL 64, UDP, header checksum
	0x0a, 0x00, 0x00, 0x01, // 10.0.0.1
	0x0a, 0x00, 0x00, 0x02, // 10.0.0.2
	0xc0, 0x00, 0x12, 0xb7, // UDP 49152 -> 4791
	0x00, 0x30, 0x00, 0x00, // length 48, checksum 0
	0x06, 0x00, 0xff, 0xff, // BTH: RC Write First, P_Key 0xffff
	0x00, 0x00, 0x00, 0x12, // DestQP 0x12
	0x00, 0x00, 0x00, 0x64, // PSN 0x64
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, // RETH: VA 0x1000
	0x00, 0x00, 0x00, 0x77, // R_Key 0x77
	0x00, 0x00, 0x00, 0x08, // DMA length 8
	0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, // payload
	0x9f, 0x56, 0x59, 0x53, // iCRC 0x5359569f, least significant byte first
}

// edited returns writeFirst's first n bytes with b written at off.
func edited(n, off int, b ...byte) []byte {
	w := append([]byte(nil), writeFirst[:n]...)
	copy(w[off:], b)
	return w
}

// rejectCases holds frames with the exact error each decoder returns for
// them. DecodeHeaders refuses anything shorter than a BTH before it reads
// a byte.
var rejectCases = []struct {
	name          string
	data          []byte
	into, headers error
}{
	{"empty", nil, errTooShort, errTooShort},
	{"10 zero bytes", make([]byte, 10), errTooShort, errTooShort},
	{"14 zero bytes", make([]byte, EthernetSize), errNotIPv4, errTooShort},
	{"20 zero bytes", make([]byte, 20), errNotIPv4, errTooShort},
	{"write-first[:0]", writeFirst[:0], errTooShort, errTooShort},
	{"write-first[:13]", writeFirst[:13], errTooShort, errTooShort},
	{"write-first[:14]", writeFirst[:14], errTooShort, errTooShort},
	{"write-first[:33]", writeFirst[:33], errTooShort, errTooShort},
	{"write-first[:34]", writeFirst[:34], errTooShort, errTooShort},
	{"write-first[:41]", writeFirst[:41], errTooShort, errTooShort},
	{"write-first[:42]", writeFirst[:42], errTooShort, errTooShort},
	{"write-first[:53]", writeFirst[:53], errTooShort, errTooShort},
	{"write-first[:54]", writeFirst[:54], errTooShort, errTooShort},
	{"write-first[:58]", writeFirst[:58], errTooShort, errTooShort},
	{"write-first[:69]", writeFirst[:69], errTooShort, errTooShort},
	{"write-first[:70]", writeFirst[:70], errTooShort, nil},
	{"write-first", writeFirst, nil, nil},
	{"ipv6 ethertype", edited(82, 12, 0x86, 0xdd), errNotIPv4, errNotIPv4},
	{"ipv6 ethertype[:20]", edited(20, 12, 0x86, 0xdd), errNotIPv4, errTooShort},
	{"ip version 6", edited(82, 14, 0x65), errNotIPv4, errNotIPv4},
	{"ihl 6", edited(82, 14, 0x46), errBadIHL, errBadIHL},
	{"protocol 6", edited(82, 23, 6), errNotUDP, errNotUDP},
	{"compare-swap[:60]", edited(60, 42, byte(OpCompareSwap)), errTooShort, errTooShort},
	{"cnp without pad", edited(58, 42, byte(OpCNP)), errTooShort, nil},
	{"cnp", edited(74, 42, byte(OpCNP)), nil, nil},
}

// decodedWriteFirst is writeFirst decoded: the packet each reject case
// starts from, so a field a failed decode leaves unwritten shows.
func decodedWriteFirst(t *testing.T) Packet {
	t.Helper()
	if err := VerifyICRC(writeFirst); err != nil || !VerifyIPv4Checksum(writeFirst) {
		t.Errorf("writeFirst is not a valid frame: iCRC %v, IPv4 checksum ok %v", err, VerifyIPv4Checksum(writeFirst))
	}
	var full Packet
	if err := DecodeInto(writeFirst, &full); err != nil {
		t.Fatal(err)
	}
	return full
}

// TestDecodeErrors pins DecodeInto's error for each reject case and what
// a failed DecodeInto leaves in pkt: the Ethernet header once the frame
// holds one (the switch forwards undecodable frames by it), nothing
// before.
func TestDecodeErrors(t *testing.T) {
	full := decodedWriteFirst(t)
	for _, c := range rejectCases {
		p := full
		if err := DecodeInto(c.data, &p); err != c.into {
			t.Errorf("%s: DecodeInto = %v, want %v", c.name, err, c.into)
		}
		if c.into != nil && len(c.data) < EthernetSize && !reflect.DeepEqual(p, Packet{}) {
			t.Errorf("%s: DecodeInto left %+v", c.name, p)
		}
		if c.into != nil && len(c.data) >= EthernetSize {
			want := Ethernet{Dst: MAC(c.data[0:6]), Src: MAC(c.data[6:12]), EtherType: be.Uint16(c.data[12:14])}
			if p.Eth != want {
				t.Errorf("%s: DecodeInto left Eth %+v, want %+v", c.name, p.Eth, want)
			}
		}
	}
}

// TestDecodeHeadersErrors pins DecodeHeaders' error for each reject case
// and that it leaves pkt zero for anything shorter than a BTH.
func TestDecodeHeadersErrors(t *testing.T) {
	full := decodedWriteFirst(t)
	for _, c := range rejectCases {
		h := full
		if err := DecodeHeaders(c.data, &h); err != c.headers {
			t.Errorf("%s: DecodeHeaders = %v, want %v", c.name, err, c.headers)
		}
		if len(c.data) < EthernetSize+IPv4Size+UDPSize+BTHSize && !reflect.DeepEqual(h, Packet{}) {
			t.Errorf("%s: DecodeHeaders left %+v", c.name, h)
		}
	}
}

func TestIsRoCE(t *testing.T) {
	wire := samplePacket(OpWriteOnly, 0).Serialize()
	if v, err := ParseFrame(wire); err != nil || !v.IsRoCE() {
		t.Fatalf("RoCEv2 packet not recognized (%v)", err)
	}
	RewriteUDPDstPort(wire, 53)
	if v, err := ParseFrame(wire); err != nil || v.IsRoCE() {
		t.Fatalf("non-4791 packet classified as RoCE (%v)", err)
	}
}

func TestOpcodeClassification(t *testing.T) {
	checks := []struct {
		op                                  Opcode
		send, write, readReq, readResp, ack bool
	}{
		{OpSendFirst, true, false, false, false, false},
		{OpSendOnlyImm, true, false, false, false, false},
		{OpWriteMiddle, false, true, false, false, false},
		{OpReadRequest, false, false, true, false, false},
		{OpReadResponseMiddle, false, false, false, true, false},
		{OpAcknowledge, false, false, false, false, true},
	}
	for _, c := range checks {
		if c.op.IsSend() != c.send || c.op.IsWrite() != c.write ||
			c.op.IsReadRequest() != c.readReq || c.op.IsReadResponse() != c.readResp ||
			c.op.IsAck() != c.ack {
			t.Errorf("%v classification wrong", c.op)
		}
	}
	if !OpCNP.IsCNP() || OpCNP.IsData() {
		t.Error("CNP classification wrong")
	}
	if !OpWriteFirst.IsFirst() || OpWriteMiddle.IsFirst() || OpWriteMiddle.IsLast() || !OpWriteLast.IsLast() || !OpWriteOnly.IsOnly() {
		t.Error("first/last/only classification wrong")
	}
	if OpAcknowledge.IsData() {
		t.Error("ACK must not be a data packet (injector only targets data)")
	}
	if !OpReadRequest.IsData() {
		t.Error("READ_REQUEST is a data packet for injection purposes")
	}
}

func TestAETHSyndromes(t *testing.T) {
	if !(AETH{Syndrome: NakPSNSeqError}).IsNak() {
		t.Error("PSN sequence error not classified as NAK")
	}
	if !(AETH{Syndrome: SyndromeRNRNak | 5}).IsRNR() {
		t.Error("RNR syndrome not classified")
	}
	if !(AETH{Syndrome: SyndromeACK | 31}).IsAck() {
		t.Error("ACK syndrome not classified")
	}
	if (AETH{Syndrome: SyndromeACK}).IsNak() {
		t.Error("ACK classified as NAK")
	}
}

func TestPadCountRoundTrip(t *testing.T) {
	// IB payloads are 4-byte aligned on the wire; PadCount covers the gap.
	p := samplePacket(OpSendLast, 1022)
	p.BTH.PadCount = 2
	wire := p.Serialize()
	var got Packet
	if err := DecodeInto(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got.BTH.PadCount != 2 {
		t.Fatalf("PadCount = %d, want 2", got.BTH.PadCount)
	}
	if len(got.Payload) != 1022 {
		t.Fatalf("payload len = %d, want 1022 (pad must be stripped)", len(got.Payload))
	}
	if err := VerifyICRC(wire); err != nil {
		t.Fatal(err)
	}
}

func TestMACUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= metaMask
		return MACFromUint64(v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	p := samplePacket(OpWriteOnly, 100)
	s := p.String()
	for _, want := range []string{"WRITE_ONLY", "10.0.0.1", "psn=1193046"} {
		if !contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	nak := samplePacket(OpAcknowledge, 0)
	nak.AETH = AETH{Syndrome: NakPSNSeqError, MSN: 3}
	if !contains(nak.String(), "NAK") {
		t.Errorf("NAK String() = %q", nak.String())
	}
	if Opcode(0x77).String() != "OP_0x77" {
		t.Errorf("unknown opcode String() = %q", Opcode(0x77).String())
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
