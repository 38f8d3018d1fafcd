package packet

import "net/netip"

// The RoCEv2 wire layout: the one table of header offsets every reader
// and writer of header bytes indexes through — the encoder, the
// decoder, View's accessors and the in-place rewriters. IPv4 carries no
// options (the parser refuses them), so every field through the BTH
// sits at a fixed offset. The extended headers follow the BTH in the
// order RETH, AETH, Immediate, AtomicETH, AtomicAck, each present when
// the opcode says so; their fields are given from the header's start.
const (
	offEthDst    = 0
	offEthSrc    = 6
	offEtherType = 12

	offIP         = EthernetSize
	offIPVerIHL   = offIP      // version (high 4 bits), IHL (low 4 bits)
	offIPTOS      = offIP + 1  // DSCP (high 6 bits), ECN (low 2 bits)
	offIPTotalLen = offIP + 2  // 16 bits
	offIPID       = offIP + 4  // 16 bits
	offIPFlags    = offIP + 6  // flags (high 3 bits), fragment offset (13 bits)
	offIPTTL      = offIP + 8  // mirror copies: event type; INT: hop ID
	offIPProto    = offIP + 9  // protocol
	offIPChecksum = offIP + 10 // 16 bits; INT: compact hop state
	offIPSrc      = offIP + 12 // 4 bytes
	offIPDst      = offIP + 16 // 4 bytes

	offUDP         = offIP + IPv4Size
	offUDPSrcPort  = offUDP
	offUDPDstPort  = offUDP + 2
	offUDPLength   = offUDP + 4
	offUDPChecksum = offUDP + 6 // RoCEv2 leaves it zero; INT: transit tag

	offBTH       = offUDP + UDPSize
	offBTHOpcode = offBTH
	offBTHFlags  = offBTH + 1 // SE, MigReq, pad count (2 bits), TVer (4 bits)
	offBTHPKey   = offBTH + 2
	offBTHResv8a = offBTH + 4 // FECN, BECN
	offBTHDestQP = offBTH + 5 // 24 bits
	offBTHAckReq = offBTH + 8
	offBTHPSN    = offBTH + 9 // 24 bits

	offExt = offBTH + BTHSize // the first extended header

	rethVA, rethRKey, rethDMALen                       = 0, 8, 12
	aethSyndrome, aethMSN                              = 0, 1 // MSN: 24 bits
	atomicVA, atomicRKey, atomicSwapAdd, atomicCompare = 0, 8, 12, 20
)

// extSizes[op] is the length of the extended headers an op packet
// carries after its BTH.
var extSizes = func() (t [256]uint8) {
	for i := range t {
		op, n := Opcode(i), 0
		if op.HasRETH() {
			n += RETHSize
		}
		if op.HasAETH() {
			n += AETHSize
		}
		if op.HasImm() {
			n += ImmSize
		}
		if op.HasAtomicETH() {
			n += AtomicETHSize
		}
		if op.HasAtomicAck() {
			n += AtomicAckSize
		}
		t[i] = uint8(n)
	}
	return t
}()

// parseHeaders applies the header checks to the front of b in wire
// order, each length check just before the bytes it guards.
func parseHeaders(b []byte) error {
	if len(b) < EthernetSize {
		return errTooShort
	}
	if be.Uint16(b[offEtherType:]) != EtherTypeIPv4 {
		return errNotIPv4
	}
	if len(b) < offUDP {
		return errTooShort
	}
	if b[offIPVerIHL]>>4 != 4 {
		return errNotIPv4
	}
	if b[offIPVerIHL]&0xF != 5 {
		return errBadIHL
	}
	if b[offIPProto] != ProtoUDP {
		return errNotUDP
	}
	if len(b) < offExt {
		return errTooShort
	}
	if len(b) < extEnd(b) {
		return errTooShort
	}
	return nil
}

// extEnd returns the offset just past the extended headers of b's
// opcode, which the BTH at the front of b names.
func extEnd(b []byte) int { return offExt + int(extSizes[b[offBTHOpcode]]) }

// parseFrame applies parseHeaders' checks and then the whole frame's:
// after the headers, a CNP's 16-byte pad, and the pad bytes and iCRC
// that end every frame. It returns the payload's bounds.
func parseFrame(b []byte) (start, end int, err error) {
	if err = parseHeaders(b); err != nil {
		return 0, 0, err
	}
	if start, end = payloadBounds(b); end < start {
		return 0, 0, errTooShort
	}
	return start, end, nil
}

// payloadBounds returns where the payload of a frame whose headers
// parseHeaders accepted starts (after a CNP's pad) and ends (before the
// pad bytes and iCRC).
func payloadBounds(b []byte) (start, end int) {
	start = extEnd(b)
	if Opcode(b[offBTHOpcode]) == OpCNP {
		start += cnpPadSize
	}
	return start, len(b) - ICRCSize - int(padCount(b))
}

// View is wire bytes whose headers ParseHeaders or ParseFrame accepted,
// read in place through accessors: nothing is copied or decoded ahead of
// a read. The only way to make a non-zero View is through those checks,
// so every accessor finds the bytes it reads.
type View struct{ b []byte }

// ParseHeaders checks the headers at the front of b — Ethernet, IPv4
// without options, UDP, the BTH and the extended headers its opcode
// names — and tolerates a truncated payload and a missing iCRC: it is
// for trimmed mirror captures, which keep the first 128 bytes of every
// packet (§5). Anything shorter than a BTH is refused before a byte is
// read.
func ParseHeaders(b []byte) (View, error) {
	if len(b) < offExt {
		return View{}, errTooShort
	}
	if err := parseHeaders(b); err != nil {
		return View{}, err
	}
	return View{b}, nil
}

// ParseFrame checks a whole frame as DecodeInto does: ParseHeaders'
// checks, then a CNP's pad and the pad bytes and iCRC at the end. The
// iCRC's value is not checked (see VerifyICRC).
func ParseFrame(b []byte) (View, error) {
	if _, _, err := parseFrame(b); err != nil {
		return View{}, err
	}
	return View{b}, nil
}

// Bytes returns the viewed bytes.
func (v View) Bytes() []byte { return v.b }

// IsRoCE reports whether the packet targets the RoCEv2 UDP port (Fig. 6's
// "RoCE Packet?" branch); the parse already held it to IPv4 and UDP.
func (v View) IsRoCE() bool { return be.Uint16(v.b[offUDPDstPort:]) == RoCEv2Port }

// Opcode returns the BTH opcode.
func (v View) Opcode() Opcode { return Opcode(v.b[offBTHOpcode]) }

// PSN returns the BTH packet sequence number.
func (v View) PSN() uint32 { return uint24(v.b[offBTHPSN:]) }

// DestQP returns the BTH destination queue pair number.
func (v View) DestQP() uint32 { return uint24(v.b[offBTHDestQP:]) }

// PadCount returns the BTH pad count.
func (v View) PadCount() uint8 { return padCount(v.b) }

// ECN returns the IPv4 ECN codepoint.
func (v View) ECN() uint8 { return v.b[offIPTOS] & 0x3 }

// Src returns the IPv4 source address.
func (v View) Src() netip.Addr { return netip.AddrFrom4([4]byte(v.b[offIPSrc:])) }

// Dst returns the IPv4 destination address.
func (v View) Dst() netip.Addr { return netip.AddrFrom4([4]byte(v.b[offIPDst:])) }

// AETH returns the ACK extended transport header, zero for an opcode
// that carries none. No opcode carries both an AETH and a RETH, so an
// AETH always directly follows the BTH.
func (v View) AETH() AETH {
	if !v.Opcode().HasAETH() {
		return AETH{}
	}
	return AETH{Syndrome: v.b[offExt+aethSyndrome], MSN: uint24(v.b[offExt+aethMSN:])}
}

// AckReq reports the BTH acknowledge-request bit.
func (v View) AckReq() bool { return v.b[offBTHAckReq]&0x80 != 0 }

// MigReq reports the BTH migration-request bit.
func (v View) MigReq() bool { return v.b[offBTHFlags]&0x40 != 0 }

// RETH returns the RDMA extended transport header, zero for an opcode
// that carries none. A RETH always directly follows the BTH.
func (v View) RETH() RETH {
	if !v.Opcode().HasRETH() {
		return RETH{}
	}
	h := v.b[offExt:]
	return RETH{VA: be.Uint64(h[rethVA:]), RKey: be.Uint32(h[rethRKey:]), DMALen: be.Uint32(h[rethDMALen:])}
}

// DMALen returns the RETH DMA length, or 0 for an opcode that carries
// no RETH.
func (v View) DMALen() uint32 { return v.RETH().DMALen }

// Imm returns the immediate data, 0 for an opcode that carries none. An
// immediate always ends the extended headers.
func (v View) Imm() uint32 {
	if !v.Opcode().HasImm() {
		return 0
	}
	return be.Uint32(v.b[extEnd(v.b)-ImmSize:])
}

// Atomic returns the atomic extended transport header, zero for an
// opcode that carries none. It always directly follows the BTH.
func (v View) Atomic() AtomicETH {
	if !v.Opcode().HasAtomicETH() {
		return AtomicETH{}
	}
	h := v.b[offExt:]
	return AtomicETH{VA: be.Uint64(h[atomicVA:]), RKey: be.Uint32(h[atomicRKey:]),
		SwapAdd: be.Uint64(h[atomicSwapAdd:]), Compare: be.Uint64(h[atomicCompare:])}
}

// AtomicAck returns the original remote value an atomic acknowledge
// carries, 0 for any other opcode. It always ends the extended headers.
func (v View) AtomicAck() uint64 {
	if !v.Opcode().HasAtomicAck() {
		return 0
	}
	return be.Uint64(v.b[extEnd(v.b)-AtomicAckSize:])
}

// PayloadLen returns the payload length of a whole frame, as ParseFrame
// bounds it. A trimmed capture's View says nothing of its packet's
// payload, and its PayloadLen is meaningless.
func (v View) PayloadLen() int {
	start, end := payloadBounds(v.b)
	return end - start
}

// OrigLen returns the packet's untrimmed wire length: the Ethernet
// header plus the IPv4 total length.
func (v View) OrigLen() int { return EthernetSize + int(be.Uint16(v.b[offIPTotalLen:])) }

// String renders the headers as Packet.String does.
func (v View) String() string {
	var p Packet
	p.decodeHeaders(v.b)
	return p.String()
}

// FrameDst returns the destination MAC of a frame, or the zero MAC for
// one shorter than an Ethernet header: the switch forwards by it
// whether or not the rest of the frame parses.
func FrameDst(b []byte) (m MAC) {
	if len(b) >= EthernetSize {
		m = MAC(b[offEthDst:])
	}
	return m
}

// FiveTuple returns the bytes receive-side scaling hashes, in wire
// order: the IPv4 protocol, the source and destination addresses and
// the UDP source and destination ports. ok is false for a frame too
// short to hold them.
func FiveTuple(b []byte) (t [13]byte, ok bool) {
	if len(b) < offBTH {
		return t, false
	}
	t[0] = b[offIPProto]
	copy(t[1:], b[offIPSrc:offUDPLength])
	return t, true
}

func padCount(b []byte) uint8 { return b[offBTHFlags] >> 4 & 0x3 }

func uint24(b []byte) uint32 { return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2]) }

func putUint24(b []byte, v uint32) {
	b[0] = byte(v >> 16)
	b[1] = byte(v >> 8)
	b[2] = byte(v)
}
