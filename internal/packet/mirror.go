package packet

import "encoding/binary"

// EventType labels the injected event a mirrored packet experienced
// (§3.4 "Indicating events"). It travels in the mirrored copy's TTL field.
type EventType uint8

const (
	EventNone      EventType = iota
	EventECN                 // IP.ECN rewritten to Congestion Experienced
	EventDrop                // the original is discarded after the ingress mirror
	EventCorrupt             // payload bit flipped; iCRC left stale
	EventSetMigReq           // BTH.MigReq forced to 1 (§6.2.3 interop debugging aid)
	EventDelay               // forwarding postponed by a configured duration (§7 future work)
	EventReorder             // forwarding slipped behind later packets (§7 future work)
)

var eventNames = [...]string{"none", "ecn", "drop", "corrupt", "set-migreq", "delay", "reorder"}

func (e EventType) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "unknown"
}

// ParseEventType converts a config string ("drop", "ecn", ...) into an
// EventType.
func ParseEventType(s string) (EventType, bool) {
	for i, n := range eventNames {
		if n == s {
			return EventType(i), true
		}
	}
	return EventNone, false
}

// MirrorMeta is the data-plane metadata the event injector embeds into
// every mirrored packet (§3.4): a global mirror sequence number for
// integrity checking, the event type applied to the original, and the
// nanosecond ingress hardware timestamp. Rather than growing the packet —
// which would overload the mirror ports' bandwidth — Lumina rewrites
// header fields not needed for analysis:
//
//	TTL               ← event type
//	source MAC        ← mirror sequence number (48 bits)
//	destination MAC   ← ingress timestamp, ns (48 bits)
type MirrorMeta struct {
	Seq       uint64 // global mirror sequence number (wraps at 2^48)
	Event     EventType
	Timestamp int64 // ingress-pipeline hardware timestamp, ns (wraps at 2^48)
}

// metaMask keeps embedded values within their 48-bit MAC-field homes.
const metaMask = (1 << 48) - 1

// EmbedMirrorMeta rewrites the header fields of a serialized mirrored
// packet in place. It must be called on the mirror copy, never the
// forwarded original.
func EmbedMirrorMeta(wire []byte, m MirrorMeta) {
	if len(wire) < offUDP {
		return
	}
	*(*MAC)(wire[offEthDst:]) = MACFromUint64(uint64(m.Timestamp) & metaMask)
	*(*MAC)(wire[offEthSrc:]) = MACFromUint64(m.Seq & metaMask)
	wire[offIPTTL] = byte(m.Event)
}

// ExtractMirrorMeta recovers the embedded metadata from a mirrored
// packet's headers.
func ExtractMirrorMeta(wire []byte) (MirrorMeta, bool) {
	if len(wire) < offUDP {
		return MirrorMeta{}, false
	}
	return MirrorMeta{
		Seq:       MAC(wire[offEthSrc:]).Uint64(),
		Event:     EventType(wire[offIPTTL]),
		Timestamp: int64(MAC(wire[offEthDst:]).Uint64()),
	}, true
}

// RewriteUDPDstPort overwrites the UDP destination port of a serialized
// packet in place. The injector uses it to randomize mirrored packets'
// ports so the dumpers' RSS spreads a single QP's packets across all CPU
// cores (§3.4), and the dumper restores 4791 before writing to disk.
func RewriteUDPDstPort(wire []byte, port uint16) {
	if len(wire) < offBTH {
		return
	}
	be.PutUint16(wire[offUDPDstPort:], port)
}

// CorruptPayload flips one bit of the IB payload (or, for header-only
// packets, the last pre-iCRC byte) without updating the iCRC, emulating
// the injector's corruption action. Reports whether a bit was flipped.
func CorruptPayload(wire []byte) bool {
	if len(wire) < HeaderOverhead+1 {
		return false
	}
	// Flipping the byte just before the iCRC is always payload/pad for
	// data packets and always safe structurally.
	idx := len(wire) - ICRCSize - 1
	wire[idx] ^= 0x01
	return true
}

// SetECNCE rewrites the IP ECN field of a serialized packet to
// Congestion Experienced in place. The iCRC is unaffected by design (the
// TOS byte is masked from the iCRC computation). The IPv4 header
// checksum is resealed unless the frame carries an INT transit tag (a
// non-zero UDP checksum), whose hop state the checksum bytes hold.
func SetECNCE(wire []byte) {
	if len(wire) <= offIPTOS {
		return
	}
	wire[offIPTOS] = wire[offIPTOS]&^0x3 | ECNCE
	if len(wire) >= offBTH && be.Uint16(wire[offUDPChecksum:]) == 0 {
		be.PutUint16(wire[offIPChecksum:], 0)
		be.PutUint16(wire[offIPChecksum:], ipv4Checksum(wire[offIP:offUDP]))
	}
}

// SetMigReq sets the BTH MigReq bit of a whole frame in place — the
// injector's set-migreq action (§6.2.3) — and reseals the iCRC, which
// covers the bit. No other byte changes, so INT hop state in the IPv4
// checksum field survives.
func SetMigReq(wire []byte) {
	if len(wire) < offExt+ICRCSize {
		return
	}
	wire[offBTHFlags] |= 0x40
	crc := len(wire) - ICRCSize
	binary.LittleEndian.PutUint32(wire[crc:], ComputeICRC(wire[:crc]))
}
