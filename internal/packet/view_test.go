package packet_test

// A header oracle the encoder did not write. Each frame below is spelled
// byte by byte from the RoCEv2 wire format, and each expected field is a
// literal read off those bytes by hand. Most are trimmed mirror captures:
// they keep their headers and at most sixteen payload bytes, as a
// dumper's trim does, and IPv4 TotalLen still states the untrimmed
// length. Header checksums are zero: a View never reads them.

import (
	"bytes"
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
)

// mirrorEth is the Ethernet header of a mirror copy: the destination MAC
// holds ingress timestamp 1000 ns, the source MAC mirror sequence 1.
var mirrorEth = []byte{
	0x00, 0x00, 0x00, 0x00, 0x03, 0xe8, // timestamp 1000
	0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // seq 1
	0x08, 0x00, // EtherType IPv4
}

// ipUDP spells the IPv4 and UDP headers from 10.0.0.src to 10.0.0.dst
// with the given TOS byte and IPv4 total length; the UDP length is the
// total length less the 20-byte IPv4 header.
func ipUDP(tos byte, totalLen uint16, src, dst byte) []byte {
	udpLen := totalLen - 20
	return []byte{
		0x45, tos, byte(totalLen >> 8), byte(totalLen), // v4 IHL5, TOS, total length
		0x00, 0x00, 0x40, 0x00, // ID 0, DF
		0x00, 0x11, 0x00, 0x00, // TTL = event none, UDP, checksum 0
		10, 0, 0, src,
		10, 0, 0, dst,
		0xc0, 0x00, 0x12, 0xb7, // UDP 49152 -> 4791
		byte(udpLen >> 8), byte(udpLen), 0x00, 0x00, // length, checksum 0
	}
}

// payload16 is the first sixteen payload bytes a trim keeps: nonzero, so
// an extended header read where none is present shows.
var payload16 = bytes.Repeat([]byte{0xa5}, 16)

func frame(parts ...[]byte) []byte { return slices.Concat(append([][]byte{mirrorEth}, parts...)...) }

// viewFields is what a View says about its packet, one field per
// accessor the analyzers, the injector and the NIC read.
type viewFields struct {
	op             packet.Opcode
	psn, qp        uint32
	pad, ecn       uint8
	ackReq, migReq bool
	src, dst       netip.Addr
	aeth           packet.AETH
	reth           packet.RETH
	dmaLen, imm    uint32
	atomic         packet.AtomicETH
	atomicAck      uint64
	payloadLen     int // a whole frame's only
	origLen        int
	roce           bool
	str            string
}

func readView(v packet.View) viewFields {
	return viewFields{
		op: v.Opcode(), psn: v.PSN(), qp: v.DestQP(),
		pad: v.PadCount(), ecn: v.ECN(), ackReq: v.AckReq(), migReq: v.MigReq(),
		src: v.Src(), dst: v.Dst(),
		aeth: v.AETH(), reth: v.RETH(), dmaLen: v.DMALen(), imm: v.Imm(),
		atomic: v.Atomic(), atomicAck: v.AtomicAck(), payloadLen: v.PayloadLen(),
		origLen: v.OrigLen(), roce: v.IsRoCE(), str: v.String(),
	}
}

// decodedFields is what a decoded Packet says in those fields. String
// renders the headers alone, as a View's does.
func decodedFields(p packet.Packet) viewFields {
	f := viewFields{
		op: p.BTH.Opcode, psn: p.BTH.PSN, qp: p.BTH.DestQP,
		pad: p.BTH.PadCount, ecn: p.IP.ECN, ackReq: p.BTH.AckReq, migReq: p.BTH.MigReq,
		src: p.IP.Src, dst: p.IP.Dst,
		aeth: p.AETH, reth: p.RETH, dmaLen: p.RETH.DMALen, imm: p.Imm,
		atomic: p.Atomic, atomicAck: p.AtomicAck, payloadLen: len(p.Payload),
		origLen: packet.EthernetSize + int(p.IP.TotalLen), roce: p.UDP.DstPort == packet.RoCEv2Port,
	}
	p.Payload = nil
	f.str = p.String()
	return f
}

// checkView fails unless every accessor of v equals the field p holds,
// p being the decode of the same bytes. PayloadLen is held to p's
// payload only when whole says DecodeInto filled p from a whole frame:
// a trimmed capture's View does not know its packet's payload.
func checkView(v packet.View, p packet.Packet, whole bool) error {
	got, want := readView(v), decodedFields(p)
	if !whole {
		got.payloadLen = want.payloadLen
	}
	if got != want {
		return fmt.Errorf("accessors read\n%+v\nthe decoded packet holds\n%+v", got, want)
	}
	return nil
}

var (
	addrA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

var literalViews = []struct {
	name string
	wire []byte
	want viewFields
}{
	{"write-first", frame(
		ipUDP(0x02, 1084, 1, 2), // ECT(0); 20+8+12+16+1024+4
		[]byte{0x06, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x01, 0x00},                         // Write First, QP 0x12, PSN 0x100
		[]byte{0x00, 0x00, 0x7f, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0xab, 0xcd, 0x00, 0x00, 0x30, 0x00}, // RETH: VA, rkey, DMA length 0x3000
		payload16),
		viewFields{op: packet.OpWriteFirst, psn: 0x100, qp: 0x12, ecn: 2, src: addrA, dst: addrB,
			reth: packet.RETH{VA: 0x7f0000001000, RKey: 0xabcd, DMALen: 0x3000}, dmaLen: 0x3000, origLen: 1098,
			str: "WRITE_FIRST 10.0.0.1->10.0.0.2 qp=18 psn=256"}},
	{"write-middle-pad2", frame(
		ipUDP(0x02, 1068, 1, 2), // 20+8+12+1022+2+4
		[]byte{0x07, 0x20, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x01, 0x01}, // Write Middle, pad count 2, PSN 0x101
		payload16),
		viewFields{op: packet.OpWriteMiddle, psn: 0x101, qp: 0x12, pad: 2, ecn: 2, src: addrA, dst: addrB,
			origLen: 1082, str: "WRITE_MIDDLE 10.0.0.1->10.0.0.2 qp=18 psn=257"}},
	{"read-request", frame(
		ipUDP(0x02, 60, 1, 2), // 20+8+12+16+4
		[]byte{0x0c, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x34, 0x80, 0x00, 0x02, 0x00},                          // Read Request, QP 0x34, AckReq, PSN 0x200
		[]byte{0x00, 0x00, 0x7f, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0xab, 0xce, 0x00, 0x00, 0x20, 0x00}), // RETH: DMA length 0x2000
		viewFields{op: packet.OpReadRequest, psn: 0x200, qp: 0x34, ecn: 2, ackReq: true, src: addrA, dst: addrB,
			reth: packet.RETH{VA: 0x7f0000002000, RKey: 0xabce, DMALen: 0x2000}, dmaLen: 0x2000, origLen: 74,
			str: "READ_REQUEST 10.0.0.1->10.0.0.2 qp=52 psn=512"}},
	{"read-response-first", frame(
		ipUDP(0x02, 1072, 2, 1), // 20+8+12+4+1024+4
		[]byte{0x0d, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x56, 0x00, 0x00, 0x02, 0x00}, // Read Response First, QP 0x56, PSN 0x200
		[]byte{0x1f, 0x00, 0x00, 0x05}, // AETH: ACK, credits 31, MSN 5
		payload16),
		viewFields{op: packet.OpReadResponseFirst, psn: 0x200, qp: 0x56, ecn: 2, src: addrB, dst: addrA,
			aeth: packet.AETH{Syndrome: 0x1f, MSN: 5}, origLen: 1086,
			str: "READ_RESP_FIRST 10.0.0.2->10.0.0.1 qp=86 psn=512 ACK msn=5"}},
	{"read-response-middle", frame(
		ipUDP(0x02, 1068, 2, 1), // 20+8+12+1024+4
		[]byte{0x0e, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x56, 0x00, 0x00, 0x02, 0x01}, // Read Response Middle, PSN 0x201
		payload16),
		viewFields{op: packet.OpReadResponseMiddle, psn: 0x201, qp: 0x56, ecn: 2, src: addrB, dst: addrA,
			origLen: 1082, str: "READ_RESP_MIDDLE 10.0.0.2->10.0.0.1 qp=86 psn=513"}},
	{"read-response-last", frame(
		ipUDP(0x02, 560, 2, 1), // 20+8+12+4+509+3+4
		[]byte{0x0f, 0x30, 0xff, 0xff, 0x00, 0x00, 0x00, 0x56, 0x00, 0x00, 0x02, 0x02}, // Read Response Last, pad count 3, PSN 0x202
		[]byte{0x1f, 0x00, 0x00, 0x06}, // AETH: ACK, MSN 6
		payload16),
		viewFields{op: packet.OpReadResponseLast, psn: 0x202, qp: 0x56, pad: 3, ecn: 2, src: addrB, dst: addrA,
			aeth: packet.AETH{Syndrome: 0x1f, MSN: 6}, origLen: 574,
			str: "READ_RESP_LAST 10.0.0.2->10.0.0.1 qp=86 psn=514 ACK msn=6"}},
	{"ack", frame(
		ipUDP(0x00, 48, 2, 1), // Not-ECT; 20+8+12+4+4
		[]byte{0x11, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x01, 0x01}, // Acknowledge, QP 0x12, PSN 0x101
		[]byte{0x00, 0x00, 0x00, 0x03}), // AETH: ACK, MSN 3
		viewFields{op: packet.OpAcknowledge, psn: 0x101, qp: 0x12, src: addrB, dst: addrA,
			aeth: packet.AETH{MSN: 3}, origLen: 62,
			str: "ACK 10.0.0.2->10.0.0.1 qp=18 psn=257 ACK msn=3"}},
	{"nak-psn-sequence", frame(
		ipUDP(0x00, 48, 2, 1),
		[]byte{0x11, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x01, 0x01},
		[]byte{0x60, 0x00, 0x00, 0x02}), // AETH: NAK code 0 (PSN sequence error), MSN 2
		viewFields{op: packet.OpAcknowledge, psn: 0x101, qp: 0x12, src: addrB, dst: addrA,
			aeth: packet.AETH{Syndrome: packet.NakPSNSeqError, MSN: 2}, origLen: 62,
			str: "ACK 10.0.0.2->10.0.0.1 qp=18 psn=257 NAK(code=0) msn=2"}},
	{"atomic-ack", frame(
		ipUDP(0x00, 56, 2, 1), // 20+8+12+4+8+4
		[]byte{0x12, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x78, 0x00, 0x00, 0x03, 0x00}, // Atomic Acknowledge, QP 0x78, PSN 0x300
		[]byte{0x00, 0x00, 0x00, 0x09},                          // AETH: ACK, MSN 9
		[]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}), // original remote value
		viewFields{op: packet.OpAtomicAcknowledge, psn: 0x300, qp: 0x78, src: addrB, dst: addrA,
			aeth: packet.AETH{MSN: 9}, atomicAck: 0x0102030405060708, origLen: 70,
			str: "ATOMIC_ACK 10.0.0.2->10.0.0.1 qp=120 psn=768 ACK msn=9"}},
	{"cnp-ce", frame(
		ipUDP(0x03, 60, 2, 1), // CE; 20+8+12+16+4
		[]byte{0x81, 0x00, 0xff, 0xff, 0x40, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x00}, // CNP, BECN, QP 0x12, PSN 0
		make([]byte, 16)), // zeroed CNP pad
		viewFields{op: packet.OpCNP, qp: 0x12, ecn: packet.ECNCE, src: addrB, dst: addrA,
			origLen: 74, str: "CNP 10.0.0.2->10.0.0.1 qp=18 psn=0 CE"}},

	// Whole frames, so PayloadLen is read too: the iCRC bytes end them
	// (a View never checks their value).
	{"write-only-imm", frame(
		ipUDP(0x02, 72, 1, 2), // 20+8+12+16+4+5+3+4
		[]byte{0x0b, 0x70, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x80, 0x00, 0x01, 0x03},                         // Write Only Imm, MigReq, pad count 3, AckReq, PSN 0x103
		[]byte{0x00, 0x00, 0x7f, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0xab, 0xcf, 0x00, 0x00, 0x00, 0x05}, // RETH: VA, rkey 0xabcf, DMA length 5
		[]byte{0xde, 0xad, 0xbe, 0xef},                         // immediate, after the RETH
		[]byte{0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0x00, 0x00, 0x00}, // 5 payload bytes, 3 pad bytes
		[]byte{0x11, 0x22, 0x33, 0x44}),                        // iCRC
		viewFields{op: packet.OpWriteOnlyImm, psn: 0x103, qp: 0x12, pad: 3, ecn: 2, ackReq: true, migReq: true,
			src: addrA, dst: addrB, reth: packet.RETH{VA: 0x7f0000003000, RKey: 0xabcf, DMALen: 5}, dmaLen: 5,
			imm: 0xdeadbeef, payloadLen: 5, origLen: 86, str: "WRITE_ONLY_IMM 10.0.0.1->10.0.0.2 qp=18 psn=259"}},
	{"send-last-imm", frame(
		ipUDP(0x02, 56, 1, 2), // 20+8+12+4+8+4
		[]byte{0x03, 0x40, 0xff, 0xff, 0x00, 0x00, 0x00, 0x12, 0x80, 0x00, 0x01, 0x04}, // Send Last Imm, MigReq, AckReq, PSN 0x104
		[]byte{0x01, 0x02, 0x03, 0x04},                         // immediate, alone
		[]byte{0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}, // 8 payload bytes
		[]byte{0x11, 0x22, 0x33, 0x44}),                        // iCRC
		viewFields{op: packet.OpSendLastImm, psn: 0x104, qp: 0x12, ecn: 2, ackReq: true, migReq: true,
			src: addrA, dst: addrB, imm: 0x01020304, payloadLen: 8, origLen: 70,
			str: "SEND_LAST_IMM 10.0.0.1->10.0.0.2 qp=18 psn=260"}},
	{"compare-swap", frame(
		ipUDP(0x02, 72, 1, 2), // 20+8+12+28+4
		[]byte{0x13, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x78, 0x80, 0x00, 0x03, 0x00}, // Compare Swap, QP 0x78, AckReq, PSN 0x300
		[]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20, 0x08, // AtomicETH: VA 0x100002008
			0x00, 0x00, 0x10, 0x01, // rkey 0x1001
			0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // swap
			0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18}, // compare
		[]byte{0x11, 0x22, 0x33, 0x44}), // iCRC
		viewFields{op: packet.OpCompareSwap, psn: 0x300, qp: 0x78, ecn: 2, ackReq: true, src: addrA, dst: addrB,
			atomic:  packet.AtomicETH{VA: 0x100002008, RKey: 0x1001, SwapAdd: 0x0102030405060708, Compare: 0x1112131415161718},
			origLen: 86, str: "CMP_SWAP 10.0.0.1->10.0.0.2 qp=120 psn=768"}},
	{"fetch-add", frame(
		ipUDP(0x02, 72, 1, 2), // 20+8+12+28+4
		[]byte{0x14, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x78, 0x80, 0x00, 0x03, 0x01}, // Fetch Add, QP 0x78, AckReq, PSN 0x301
		[]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20, 0x10, // AtomicETH: VA 0x100002010
			0x00, 0x00, 0x10, 0x01, // rkey 0x1001
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // add 5
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // compare: unused
		[]byte{0x11, 0x22, 0x33, 0x44}), // iCRC
		viewFields{op: packet.OpFetchAdd, psn: 0x301, qp: 0x78, ecn: 2, ackReq: true, src: addrA, dst: addrB,
			atomic:  packet.AtomicETH{VA: 0x100002010, RKey: 0x1001, SwapAdd: 5},
			origLen: 86, str: "FETCH_ADD 10.0.0.1->10.0.0.2 qp=120 psn=769"}},
}

// TestViewMatchesLiterals parses each literal frame and requires every
// accessor to return the hand-read value, reading the frame in place. A
// frame as long as its IPv4 total length says is whole and parsed as a
// frame, and its PayloadLen is read; the trimmed ones are parsed as
// captures.
func TestViewMatchesLiterals(t *testing.T) {
	for _, c := range literalViews {
		whole, parse := len(c.wire) == c.want.origLen, packet.ParseHeaders
		if whole {
			parse = packet.ParseFrame
		}
		v, err := parse(c.wire)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.want.roce = true // every literal targets UDP port 4791
		got := readView(v)
		if !whole {
			got.payloadLen = 0
		}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
		if b := v.Bytes(); len(b) != len(c.wire) || &b[0] != &c.wire[0] {
			t.Errorf("%s: the view does not hold the parsed bytes", c.name)
		}
	}
}

// TestNoOpcodeCarriesAETHAndRETH holds the layout View.AETH relies on:
// an AETH, when present, directly follows the BTH.
func TestNoOpcodeCarriesAETHAndRETH(t *testing.T) {
	for op := 0; op < 256; op++ {
		if o := packet.Opcode(op); o.HasAETH() && o.HasRETH() {
			t.Errorf("opcode %v carries both an AETH and a RETH", o)
		}
	}
}

// TestAccessorsMatchDecodeOnCheckedInRuns runs every checked-in
// scenario and benchmark workload and holds each accessor of every
// trace entry's View to DecodeHeaders over the entry's bytes.
func TestAccessorsMatchDecodeOnCheckedInRuns(t *testing.T) {
	var files []string
	for _, g := range []string{"configs/*.yaml", "bench/workloads/*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in scenarios found")
	}
	for _, f := range files {
		cfg, err := config.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(rep.Trace.Entries) == 0 {
			t.Fatalf("%s: empty trace", f)
		}
		for i := range rep.Trace.Entries {
			e := &rep.Trace.Entries[i]
			var p packet.Packet
			if err := packet.DecodeHeaders(e.Bytes(), &p); err != nil {
				t.Fatalf("%s: entry %d (seq %d) does not decode: %v", f, i, e.Meta().Seq, err)
			}
			if err := checkView(e.View, p, false); err != nil {
				t.Fatalf("%s: entry %d (seq %d): %v", f, i, e.Meta().Seq, err)
			}
		}
	}
}
