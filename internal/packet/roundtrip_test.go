package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// allOpcodes lists every opcode the codec understands, including the CNP.
var allOpcodes = []Opcode{
	OpSendFirst, OpSendMiddle, OpSendLast, OpSendLastImm, OpSendOnly,
	OpSendOnlyImm, OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteLastImm,
	OpWriteOnly, OpWriteOnlyImm, OpReadRequest, OpReadResponseFirst,
	OpReadResponseMiddle, OpReadResponseLast, OpReadResponseOnly,
	OpAcknowledge, OpAtomicAcknowledge, OpCompareSwap, OpFetchAdd, OpCNP,
}

// randPacket builds a structurally valid packet with randomized field
// values (masked to their wire widths) for the given opcode and payload
// length.
func randPacket(rng *rand.Rand, op Opcode, payloadLen int) *Packet {
	p := &Packet{
		Eth: Ethernet{
			Dst:       MACFromUint64(rng.Uint64()),
			Src:       MACFromUint64(rng.Uint64()),
			EtherType: EtherTypeIPv4,
		},
		IP: IPv4{
			DSCP:     uint8(rng.Intn(64)),
			ECN:      uint8(rng.Intn(4)),
			ID:       uint16(rng.Intn(1 << 16)),
			Flags:    0b010,
			TTL:      uint8(1 + rng.Intn(255)),
			Protocol: ProtoUDP,
			Src:      netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(256)), byte(1 + rng.Intn(250))}),
			Dst:      netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(256)), byte(1 + rng.Intn(250))}),
		},
		UDP: UDP{
			SrcPort: uint16(49152 + rng.Intn(16384)),
			DstPort: RoCEv2Port,
		},
		BTH: BTH{
			Opcode:   op,
			SE:       rng.Intn(2) == 0,
			MigReq:   rng.Intn(2) == 0,
			TVer:     uint8(rng.Intn(16)),
			PKey:     uint16(rng.Intn(1 << 16)),
			FECN:     rng.Intn(2) == 0,
			BECN:     rng.Intn(2) == 0,
			DestQP:   rng.Uint32() & PSNMask,
			AckReq:   rng.Intn(2) == 0,
			PSN:      rng.Uint32() & PSNMask,
			PadCount: uint8((4 - payloadLen%4) % 4),
		},
	}
	if op.HasRETH() {
		p.RETH = RETH{VA: rng.Uint64(), RKey: rng.Uint32(), DMALen: rng.Uint32()}
	}
	if op.HasAETH() {
		p.AETH = AETH{Syndrome: uint8(rng.Intn(256)), MSN: rng.Uint32() & PSNMask}
	}
	if op.HasImm() {
		p.Imm = rng.Uint32()
	}
	if op.HasAtomicETH() {
		p.Atomic = AtomicETH{VA: rng.Uint64(), RKey: rng.Uint32(), SwapAdd: rng.Uint64(), Compare: rng.Uint64()}
	}
	if op.HasAtomicAck() {
		p.AtomicAck = rng.Uint64()
	}
	if payloadLen > 0 {
		p.Payload = make([]byte, payloadLen)
		rng.Read(p.Payload)
	}
	return p
}

// payloadSizesFor returns payload lengths to exercise for an opcode:
// header-only packets (ACK, CNP, read request, atomics) carry none.
func payloadSizesFor(op Opcode) []int {
	if op.IsAck() || op.IsCNP() || op.IsReadRequest() || op.IsAtomic() {
		return []int{0}
	}
	return []int{0, 1, 3, 4, 17, 255, 256, 1024, 4095}
}

// TestRoundTripAppendWireDecodeInto is the fuzz-style agreement test: for
// every opcode, payload size, and mirror-metadata variant, the optimized
// AppendWire+DecodeInto pair must agree byte-for-byte and field-for-field
// with the legacy Serialize+Decode pair.
func TestRoundTripAppendWireDecodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prefix := []byte("scratch-prefix")
	scratch := make([]byte, 0, 8192)
	for _, op := range allOpcodes {
		for _, size := range payloadSizesFor(op) {
			for round := 0; round < 4; round++ {
				p := randPacket(rng, op, size)
				name := fmt.Sprintf("%s/len=%d/round=%d", op, size, round)

				legacy := p.Serialize()
				appended := p.AppendWire(nil)
				if !bytes.Equal(legacy, appended) {
					t.Fatalf("%s: AppendWire(nil) != Serialize", name)
				}
				// Appending after existing content must leave the prefix
				// intact and produce the same encoding.
				withPrefix := p.AppendWire(append([]byte(nil), prefix...))
				if !bytes.Equal(withPrefix[:len(prefix)], prefix) {
					t.Fatalf("%s: AppendWire clobbered the prefix", name)
				}
				if !bytes.Equal(withPrefix[len(prefix):], legacy) {
					t.Fatalf("%s: AppendWire after prefix != Serialize", name)
				}
				// Reusing a scratch buffer must yield identical bytes.
				scratch = p.AppendWire(scratch[:0])
				if !bytes.Equal(scratch, legacy) {
					t.Fatalf("%s: AppendWire(scratch) != Serialize", name)
				}
				if got, want := len(legacy), WireSize(op, size, int(p.BTH.PadCount)); got != want {
					t.Fatalf("%s: WireSize=%d, serialized %d bytes", name, want, got)
				}

				var viaDecode, viaDecodeInto Packet
				if err := DecodeInto(legacy, &viaDecode); err != nil {
					t.Fatalf("%s: Decode: %v", name, err)
				}
				// DecodeInto must fully overwrite stale state from a prior
				// decode of a different opcode.
				viaDecodeInto = *randPacket(rng, OpWriteOnlyImm, 32)
				if err := DecodeInto(legacy, &viaDecodeInto); err != nil {
					t.Fatalf("%s: DecodeInto: %v", name, err)
				}
				if !reflect.DeepEqual(viaDecode, viaDecodeInto) {
					t.Fatalf("%s: DecodeInto disagrees with Decode:\n  %+v\n  %+v", name, viaDecode, viaDecodeInto)
				}
				// Decoded packets must re-serialize to the identical bytes.
				if got := viaDecodeInto.AppendWire(nil); !bytes.Equal(got, legacy) {
					t.Fatalf("%s: decode→AppendWire not byte-identical", name)
				}
				if err := VerifyICRC(legacy); err != nil {
					t.Fatalf("%s: VerifyICRC on fresh encoding: %v", name, err)
				}

				// Mirror-metadata variants: embedding the mirror metadata
				// (MAC + TTL rewrites) and randomizing the RSS port must
				// keep the packet decodable with the iCRC intact, because
				// every rewritten field is masked from the iCRC.
				mirror := append([]byte(nil), legacy...)
				meta := MirrorMeta{
					Seq:       rng.Uint64() & metaMask,
					Event:     EventType(rng.Intn(7)),
					Timestamp: int64(rng.Uint64() & metaMask),
				}
				EmbedMirrorMeta(mirror, meta)
				rssPort := uint16(0xC000 + rng.Intn(0x3000))
				RewriteUDPDstPort(mirror, rssPort)
				SetECNCE(mirror)
				got, ok := ExtractMirrorMeta(mirror)
				if !ok || got != meta {
					t.Fatalf("%s: mirror metadata roundtrip: got %+v want %+v", name, got, meta)
				}
				if UDPDstPort(mirror) != rssPort {
					t.Fatalf("%s: RSS port rewrite lost", name)
				}
				// The UDP destination port IS iCRC-covered; the dumper
				// restores 4791 before buffering, after which the MAC/TTL
				// metadata rewrites alone must leave the iCRC intact
				// (those fields are masked from the computation).
				RewriteUDPDstPort(mirror, RoCEv2Port)
				var mp Packet
				if err := DecodeInto(mirror, &mp); err != nil {
					t.Fatalf("%s: DecodeInto(mirror): %v", name, err)
				}
				if err := VerifyICRC(mirror); err != nil {
					t.Fatalf("%s: mirror rewrites must not break the iCRC: %v", name, err)
				}
				if mp.IP.ECN != ECNCE {
					t.Fatalf("%s: SetECNCE lost", name)
				}
			}
		}
	}
}

// TestAppendWireGrowth checks the growth path: a buffer with insufficient
// capacity is reallocated without corrupting earlier content.
func TestAppendWireGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randPacket(rng, OpWriteOnly, 512)
	tiny := make([]byte, 3, 5)
	copy(tiny, "abc")
	out := p.AppendWire(tiny)
	if string(out[:3]) != "abc" {
		t.Fatalf("growth clobbered prefix: %q", out[:3])
	}
	if !bytes.Equal(out[3:], p.Serialize()) {
		t.Fatalf("grown encoding differs from Serialize")
	}
}
