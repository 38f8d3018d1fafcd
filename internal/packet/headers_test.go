package packet

import (
	"strings"
	"testing"
)

func TestDecodeHeadersOnTrimmedPackets(t *testing.T) {
	// DecodeHeaders must parse every header-bearing opcode from a
	// 128-byte trim, reporting the original wire length.
	ops := []Opcode{
		OpSendMiddle, OpWriteFirst, OpReadRequest, OpReadResponseFirst,
		OpAcknowledge, OpAtomicAcknowledge, OpCompareSwap, OpFetchAdd, OpSendOnlyImm,
	}
	for _, op := range ops {
		payload := 0
		if op.IsData() && !op.IsReadRequest() && !op.IsAtomic() {
			payload = 1024
		}
		orig := samplePacket(op, payload)
		wire := orig.Serialize()
		trim := 128
		if trim > len(wire) {
			trim = len(wire)
		}
		var got Packet
		err := DecodeHeaders(wire[:trim], &got)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if origLen := EthernetSize + int(got.IP.TotalLen); origLen != len(wire) {
			t.Errorf("%v: origLen = %d, want %d", op, origLen, len(wire))
		}
		if got.BTH != orig.BTH {
			t.Errorf("%v: BTH mismatch", op)
		}
		if op.HasRETH() && got.RETH != orig.RETH {
			t.Errorf("%v: RETH mismatch", op)
		}
		if op.HasAETH() && got.AETH != orig.AETH {
			t.Errorf("%v: AETH mismatch", op)
		}
		if op.HasImm() && got.Imm != orig.Imm {
			t.Errorf("%v: Imm mismatch", op)
		}
		if op.HasAtomicETH() && got.Atomic != orig.Atomic {
			t.Errorf("%v: AtomicETH mismatch", op)
		}
		if op.HasAtomicAck() && got.AtomicAck != orig.AtomicAck {
			t.Errorf("%v: AtomicAck mismatch", op)
		}
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC.String = %q", got)
	}
}

func TestRuntGuardsOnInPlaceHelpers(t *testing.T) {
	short := make([]byte, 4)
	SetECNCE(short)             // must not panic
	RewriteUDPDstPort(short, 1) // must not panic
	if UDPDstPort(short) != 0 {
		t.Error("runt dport not zero")
	}
	if VerifyIPv4Checksum(short) {
		t.Error("runt IPv4 checksum verified")
	}
}

func TestPacketStringVariants(t *testing.T) {
	rnr := samplePacket(OpAcknowledge, 0)
	rnr.AETH = AETH{Syndrome: SyndromeRNRNak | 3}
	if !strings.Contains(rnr.String(), "RNR") {
		t.Errorf("RNR String = %q", rnr.String())
	}
	ce := samplePacket(OpWriteMiddle, 10)
	ce.IP.ECN = ECNCE
	if !strings.Contains(ce.String(), "CE") {
		t.Errorf("CE String = %q", ce.String())
	}
}
