package packet

import "math/bits"

// In-band telemetry (INT) wire format. Like the mirror metadata, INT
// state travels in rewritten header fields instead of growing the
// packet — but INT rides the *forwarded original*, so only fields the
// RoCEv2 iCRC masks as "invariant" are available (the mirror copy's MAC
// rewrites would corrupt the iCRC of a live packet). That leaves a
// 40-bit budget the receiver's NIC provably never consults:
//
//	UDP checksum      ← transit tag, 16 bits (RoCEv2 leaves it zero)
//	IPv4 TTL          ← hop ID of the most recent stamping hop
//	IPv4 hdr checksum ← compact hop state: quantized queue depth (8b)
//	                    + quantized link utilization (8b)
//
// A transit tag of zero means "never stamped": origin hops assign tags
// starting at 1, so the zero UDP checksum every freshly serialized
// RoCEv2 packet carries is unambiguous. The tag is the low 16 bits of a
// monotonically growing transit ID (collector-side state maps it back to
// the full ID); downstream hops overwrite TTL and the compact state with
// their own view, postcard-style, while the tag rides unchanged. A
// frame that ends before the BTH is too short to carry the fields.

// INTStamp is the compact per-hop record carried in the spare header
// fields. QueueBytes and UtilPermille round-trip through one byte each
// (see QuantizeQueueBytes / QuantizeUtil), so a decoded stamp reports
// the quantized values, not the exact ones the hop observed.
type INTStamp struct {
	// Transit is the 16-bit wire tag identifying the packet transit
	// (1-based; 0 never appears in a valid stamp).
	Transit uint16
	// Hop is the ID of the hop that wrote the stamp.
	Hop uint8
	// QueueBytes is the hop's egress queue depth at arrival (quantized).
	QueueBytes uint32
	// UtilPermille is the hop's link utilization in 1/1000 (quantized to
	// 4‰ steps).
	UtilPermille uint16
}

// EmbedINTStamp rewrites the INT fields of a serialized packet in
// place. It is alloc-free and must be called on the forwarded original
// (the fields are iCRC-invariant, so the packet stays valid). Stamps
// with a zero transit tag are refused, as are frames too short to carry
// the UDP header. Reports whether the stamp was written.
func EmbedINTStamp(wire []byte, s INTStamp) bool {
	if len(wire) < offBTH || s.Transit == 0 {
		return false
	}
	be.PutUint16(wire[offUDPChecksum:], s.Transit)
	wire[offIPTTL] = s.Hop
	wire[offIPChecksum] = QuantizeQueueBytes(s.QueueBytes)
	wire[offIPChecksum+1] = QuantizeUtil(s.UtilPermille)
	return true
}

// DecodeINTStamp reads the most recent INT stamp from a serialized
// packet. ok is false for frames too short or never stamped.
func DecodeINTStamp(wire []byte) (s INTStamp, ok bool) {
	if len(wire) < offBTH {
		return INTStamp{}, false
	}
	s.Transit = be.Uint16(wire[offUDPChecksum:])
	if s.Transit == 0 {
		return INTStamp{}, false
	}
	s.Hop = wire[offIPTTL]
	s.QueueBytes = DequantizeQueueBytes(wire[offIPChecksum])
	s.UtilPermille = DequantizeUtil(wire[offIPChecksum+1])
	return s, true
}

// INTTransit reads just the transit tag (0 = unstamped). It is the
// cheap check transit hops use before doing any stamping work.
func INTTransit(wire []byte) uint16 {
	if len(wire) < offBTH {
		return 0
	}
	return be.Uint16(wire[offUDPChecksum:])
}

// WireIsRoCE reports whether a serialized frame is an IPv4/UDP packet
// addressed to the RoCEv2 port, without decoding headers. Stamping
// hooks use it to skip non-RoCE frames (e.g. RSS-randomized mirror
// copies, whose rewritten destination port takes them out of scope).
func WireIsRoCE(wire []byte) bool {
	return len(wire) >= offBTH &&
		be.Uint16(wire[offEtherType:]) == EtherTypeIPv4 &&
		wire[offIPProto] == ProtoUDP &&
		be.Uint16(wire[offUDPDstPort:]) == RoCEv2Port
}

// QuantizeQueueBytes compresses a queue depth into one byte using a
// 4-bit-exponent / 4-bit-mantissa floating format: exact up to 15
// bytes, ≤6.25% relative error up to 507904 bytes (496 KB, well past
// any queue this fabric builds), clamped above.
func QuantizeQueueBytes(n uint32) uint8 {
	if n < 16 {
		return uint8(n)
	}
	e := uint32(bits.Len32(n)) - 5 // n>=16 ⇒ Len>=5
	if e > 14 {
		return 0xFF
	}
	m := (n >> e) - 16 // in [0,15]
	return uint8((e+1)<<4 | m)
}

// DequantizeQueueBytes inverts QuantizeQueueBytes (to the quantized
// bucket's lower bound).
func DequantizeQueueBytes(b uint8) uint32 {
	e := uint32(b >> 4)
	m := uint32(b & 0xF)
	if e == 0 {
		return m
	}
	return (16 + m) << (e - 1)
}

// QuantizeUtil compresses a permille utilization into one byte (4‰
// steps, clamped at 1000‰).
func QuantizeUtil(p uint16) uint8 {
	if p >= 1000 {
		return 250
	}
	return uint8((p + 2) / 4)
}

// DequantizeUtil inverts QuantizeUtil.
func DequantizeUtil(b uint8) uint16 {
	if b >= 250 {
		return 1000
	}
	return uint16(b) * 4
}
