package packet

import (
	"fmt"
	"net/netip"
)

// Serialize encodes the packet to wire bytes, computing IPv4 TotalLen and
// header checksum, UDP Length, and the iCRC. The returned buffer is
// freshly allocated. It is a thin compatibility wrapper around AppendWire;
// hot paths that reuse buffers should call AppendWire directly. No
// simulated component calls it any more: outside tests it survives for
// one-off set-up encodes in perfgate and the frozen bench/probes.go
// (ROADMAP item 6c), as Decode does for the injector's and the examples'
// stack-local parses.
func (p *Packet) Serialize() []byte {
	buf := make([]byte, p.WireLen())
	p.serializeInto(buf)
	return buf
}

// AppendWire appends the packet's wire encoding to buf and returns the
// extended slice, computing IPv4 TotalLen and header checksum, UDP
// Length, and the iCRC exactly as Serialize does. When cap(buf) already
// covers the encoded size the call performs zero allocations, which is
// what lets per-connection scratch buffers make the encode path
// allocation-free.
func (p *Packet) AppendWire(buf []byte) []byte {
	n := p.WireLen()
	off := len(buf)
	if cap(buf)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+n]
	p.serializeInto(buf[off:])
	return buf
}

func (p *Packet) serializeInto(buf []byte) {
	ibLen := p.WireLen() - EthernetSize - IPv4Size - UDPSize // BTH..iCRC
	p.IP.TotalLen = uint16(IPv4Size + UDPSize + ibLen)
	p.UDP.Length = uint16(UDPSize + ibLen)

	// Ethernet.
	copy(buf[0:6], p.Eth.Dst[:])
	copy(buf[6:12], p.Eth.Src[:])
	be.PutUint16(buf[12:14], p.Eth.EtherType)

	// IPv4.
	ip := buf[14:34]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = p.IP.DSCP<<2 | p.IP.ECN&0x3
	be.PutUint16(ip[2:4], p.IP.TotalLen)
	be.PutUint16(ip[4:6], p.IP.ID)
	be.PutUint16(ip[6:8], uint16(p.IP.Flags)<<13|p.IP.FragOff&0x1FFF)
	ip[8] = p.IP.TTL
	ip[9] = p.IP.Protocol
	// checksum at ip[10:12] computed below
	src := p.IP.Src.As4()
	dst := p.IP.Dst.As4()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	ip[10], ip[11] = 0, 0
	ck := ipv4Checksum(ip)
	be.PutUint16(ip[10:12], ck)
	p.IP.Checksum = ck

	// UDP. RoCEv2 leaves the UDP checksum zero (it is not invariant and
	// the iCRC already covers the payload).
	udp := buf[34:42]
	be.PutUint16(udp[0:2], p.UDP.SrcPort)
	be.PutUint16(udp[2:4], p.UDP.DstPort)
	be.PutUint16(udp[4:6], p.UDP.Length)
	be.PutUint16(udp[6:8], p.UDP.Checksum)

	// BTH.
	b := buf[42:54]
	b[0] = uint8(p.BTH.Opcode)
	b[1] = 0
	if p.BTH.SE {
		b[1] |= 0x80
	}
	if p.BTH.MigReq {
		b[1] |= 0x40
	}
	b[1] |= (p.BTH.PadCount & 0x3) << 4
	b[1] |= p.BTH.TVer & 0xF
	be.PutUint16(b[2:4], p.BTH.PKey)
	b[4] = 0 // resv8a: FECN/BECN live here in RoCEv2 practice
	if p.BTH.FECN {
		b[4] |= 0x80
	}
	if p.BTH.BECN {
		b[4] |= 0x40
	}
	putUint24(b[5:8], p.BTH.DestQP)
	b[8] = 0
	if p.BTH.AckReq {
		b[8] |= 0x80
	}
	putUint24(b[9:12], p.BTH.PSN)

	off := 54
	op := p.BTH.Opcode
	if op.HasRETH() {
		r := buf[off : off+RETHSize]
		be.PutUint64(r[0:8], p.RETH.VA)
		be.PutUint32(r[8:12], p.RETH.RKey)
		be.PutUint32(r[12:16], p.RETH.DMALen)
		off += RETHSize
	}
	if op.HasAETH() {
		a := buf[off : off+AETHSize]
		a[0] = p.AETH.Syndrome
		putUint24(a[1:4], p.AETH.MSN)
		off += AETHSize
	}
	if op.HasImm() {
		be.PutUint32(buf[off:off+4], p.Imm)
		off += ImmSize
	}
	if op.HasAtomicETH() {
		a := buf[off : off+AtomicETHSize]
		be.PutUint64(a[0:8], p.Atomic.VA)
		be.PutUint32(a[8:12], p.Atomic.RKey)
		be.PutUint64(a[12:20], p.Atomic.SwapAdd)
		be.PutUint64(a[20:28], p.Atomic.Compare)
		off += AtomicETHSize
	}
	if op.HasAtomicAck() {
		be.PutUint64(buf[off:off+8], p.AtomicAck)
		off += AtomicAckSize
	}
	if op == OpCNP {
		// 16 zero bytes of CNP padding. Written explicitly: the buffer
		// may be a reused scratch holding a previous packet's bytes.
		clear(buf[off : off+cnpPadSize])
		off += cnpPadSize
	}
	copy(buf[off:], p.Payload)
	off += len(p.Payload)
	clear(buf[off : off+int(p.BTH.PadCount)]) // pad bytes are zero on the wire
	off += int(p.BTH.PadCount)

	icrc := ComputeICRC(buf[:off])
	p.ICRC = icrc
	// iCRC is transmitted little-endian (least significant byte first),
	// mirroring the Ethernet FCS convention.
	buf[off] = byte(icrc)
	buf[off+1] = byte(icrc >> 8)
	buf[off+2] = byte(icrc >> 16)
	buf[off+3] = byte(icrc >> 24)
}

// Decode parses wire bytes into pkt, which is overwritten. It is a thin
// compatibility wrapper around DecodeInto.
func Decode(data []byte, pkt *Packet) error {
	return DecodeInto(data, pkt)
}

// DecodeInto parses wire bytes into pkt in place, which is overwritten —
// no per-call allocation. The payload slice aliases data rather than
// copying it; callers that retain pkt across reuse of the source buffer
// must copy the payload themselves. DecodeInto returns an error for
// structurally invalid packets; iCRC validity is reported separately by
// VerifyICRC so that corrupted-but-parseable packets (Lumina's corruption
// events) can still be inspected.
func DecodeInto(data []byte, pkt *Packet) error {
	*pkt = Packet{}
	if len(data) < EthernetSize {
		return errTooShort
	}
	copy(pkt.Eth.Dst[:], data[0:6])
	copy(pkt.Eth.Src[:], data[6:12])
	pkt.Eth.EtherType = be.Uint16(data[12:14])
	if pkt.Eth.EtherType != EtherTypeIPv4 {
		return errNotIPv4
	}
	if len(data) < EthernetSize+IPv4Size {
		return errTooShort
	}
	ip := data[14:]
	if ip[0]>>4 != 4 {
		return errNotIPv4
	}
	if ip[0]&0xF != 5 {
		return errBadIHL
	}
	pkt.IP.DSCP = ip[1] >> 2
	pkt.IP.ECN = ip[1] & 0x3
	pkt.IP.TotalLen = be.Uint16(ip[2:4])
	pkt.IP.ID = be.Uint16(ip[4:6])
	ff := be.Uint16(ip[6:8])
	pkt.IP.Flags = uint8(ff >> 13)
	pkt.IP.FragOff = ff & 0x1FFF
	pkt.IP.TTL = ip[8]
	pkt.IP.Protocol = ip[9]
	pkt.IP.Checksum = be.Uint16(ip[10:12])
	pkt.IP.Src = netip.AddrFrom4([4]byte(ip[12:16]))
	pkt.IP.Dst = netip.AddrFrom4([4]byte(ip[16:20]))
	if pkt.IP.Protocol != ProtoUDP {
		return errNotUDP
	}
	if len(data) < 42 {
		return errTooShort
	}
	udp := data[34:42]
	pkt.UDP.SrcPort = be.Uint16(udp[0:2])
	pkt.UDP.DstPort = be.Uint16(udp[2:4])
	pkt.UDP.Length = be.Uint16(udp[4:6])
	pkt.UDP.Checksum = be.Uint16(udp[6:8])

	if len(data) < 54 {
		return errTooShort
	}
	b := data[42:54]
	pkt.BTH.Opcode = Opcode(b[0])
	pkt.BTH.SE = b[1]&0x80 != 0
	pkt.BTH.MigReq = b[1]&0x40 != 0
	pkt.BTH.PadCount = (b[1] >> 4) & 0x3
	pkt.BTH.TVer = b[1] & 0xF
	pkt.BTH.PKey = be.Uint16(b[2:4])
	pkt.BTH.FECN = b[4]&0x80 != 0
	pkt.BTH.BECN = b[4]&0x40 != 0
	pkt.BTH.DestQP = uint24(b[5:8])
	pkt.BTH.AckReq = b[8]&0x80 != 0
	pkt.BTH.PSN = uint24(b[9:12])

	off := 54
	op := pkt.BTH.Opcode
	if op.HasRETH() {
		if len(data) < off+RETHSize {
			return errTooShort
		}
		r := data[off : off+RETHSize]
		pkt.RETH.VA = be.Uint64(r[0:8])
		pkt.RETH.RKey = be.Uint32(r[8:12])
		pkt.RETH.DMALen = be.Uint32(r[12:16])
		off += RETHSize
	}
	if op.HasAETH() {
		if len(data) < off+AETHSize {
			return errTooShort
		}
		a := data[off : off+AETHSize]
		pkt.AETH.Syndrome = a[0]
		pkt.AETH.MSN = uint24(a[1:4])
		off += AETHSize
	}
	if op.HasImm() {
		if len(data) < off+ImmSize {
			return errTooShort
		}
		pkt.Imm = be.Uint32(data[off : off+4])
		off += ImmSize
	}
	if op.HasAtomicETH() {
		if len(data) < off+AtomicETHSize {
			return errTooShort
		}
		a := data[off : off+AtomicETHSize]
		pkt.Atomic.VA = be.Uint64(a[0:8])
		pkt.Atomic.RKey = be.Uint32(a[8:12])
		pkt.Atomic.SwapAdd = be.Uint64(a[12:20])
		pkt.Atomic.Compare = be.Uint64(a[20:28])
		off += AtomicETHSize
	}
	if op.HasAtomicAck() {
		if len(data) < off+AtomicAckSize {
			return errTooShort
		}
		pkt.AtomicAck = be.Uint64(data[off : off+8])
		off += AtomicAckSize
	}
	if op == OpCNP {
		if len(data) < off+cnpPadSize {
			return errTooShort
		}
		off += cnpPadSize
	}

	tail := ICRCSize + int(pkt.BTH.PadCount)
	if len(data) < off+tail {
		return errTooShort
	}
	pkt.Payload = data[off : len(data)-tail]
	if len(pkt.Payload) == 0 {
		pkt.Payload = nil
	}
	crcOff := len(data) - ICRCSize
	pkt.ICRC = uint32(data[crcOff]) | uint32(data[crcOff+1])<<8 |
		uint32(data[crcOff+2])<<16 | uint32(data[crcOff+3])<<24
	return nil
}

// DecodeHeaders parses only the protocol headers (Ethernet/IPv4/UDP/BTH
// and extended headers), tolerating truncated payloads and a missing
// iCRC. It exists for trimmed mirror captures: the traffic dumpers keep
// only the first 128 bytes of every packet (§5), which always cover the
// headers but rarely the payload. Payload and ICRC are left zero;
// OrigLen (14 + IPv4 TotalLen) tells the caller how long the packet was
// on the wire.
func DecodeHeaders(data []byte, pkt *Packet) (origLen int, err error) {
	*pkt = Packet{}
	if len(data) < 54 {
		return 0, errTooShort
	}
	// Reuse Decode's header parsing by lying about the tail: parse the
	// fixed part manually (identical logic, no payload bounds checks).
	copy(pkt.Eth.Dst[:], data[0:6])
	copy(pkt.Eth.Src[:], data[6:12])
	pkt.Eth.EtherType = be.Uint16(data[12:14])
	if pkt.Eth.EtherType != EtherTypeIPv4 {
		return 0, errNotIPv4
	}
	ip := data[14:]
	if ip[0]>>4 != 4 {
		return 0, errNotIPv4
	}
	if ip[0]&0xF != 5 {
		return 0, errBadIHL
	}
	pkt.IP.DSCP = ip[1] >> 2
	pkt.IP.ECN = ip[1] & 0x3
	pkt.IP.TotalLen = be.Uint16(ip[2:4])
	pkt.IP.ID = be.Uint16(ip[4:6])
	ff := be.Uint16(ip[6:8])
	pkt.IP.Flags = uint8(ff >> 13)
	pkt.IP.FragOff = ff & 0x1FFF
	pkt.IP.TTL = ip[8]
	pkt.IP.Protocol = ip[9]
	pkt.IP.Checksum = be.Uint16(ip[10:12])
	pkt.IP.Src = netip.AddrFrom4([4]byte(ip[12:16]))
	pkt.IP.Dst = netip.AddrFrom4([4]byte(ip[16:20]))
	if pkt.IP.Protocol != ProtoUDP {
		return 0, errNotUDP
	}
	udp := data[34:42]
	pkt.UDP.SrcPort = be.Uint16(udp[0:2])
	pkt.UDP.DstPort = be.Uint16(udp[2:4])
	pkt.UDP.Length = be.Uint16(udp[4:6])
	pkt.UDP.Checksum = be.Uint16(udp[6:8])

	b := data[42:54]
	pkt.BTH.Opcode = Opcode(b[0])
	pkt.BTH.SE = b[1]&0x80 != 0
	pkt.BTH.MigReq = b[1]&0x40 != 0
	pkt.BTH.PadCount = (b[1] >> 4) & 0x3
	pkt.BTH.TVer = b[1] & 0xF
	pkt.BTH.PKey = be.Uint16(b[2:4])
	pkt.BTH.FECN = b[4]&0x80 != 0
	pkt.BTH.BECN = b[4]&0x40 != 0
	pkt.BTH.DestQP = uint24(b[5:8])
	pkt.BTH.AckReq = b[8]&0x80 != 0
	pkt.BTH.PSN = uint24(b[9:12])

	off := 54
	op := pkt.BTH.Opcode
	if op.HasRETH() {
		if len(data) < off+RETHSize {
			return 0, errTooShort
		}
		r := data[off : off+RETHSize]
		pkt.RETH.VA = be.Uint64(r[0:8])
		pkt.RETH.RKey = be.Uint32(r[8:12])
		pkt.RETH.DMALen = be.Uint32(r[12:16])
		off += RETHSize
	}
	if op.HasAETH() {
		if len(data) < off+AETHSize {
			return 0, errTooShort
		}
		a := data[off : off+AETHSize]
		pkt.AETH.Syndrome = a[0]
		pkt.AETH.MSN = uint24(a[1:4])
		off += AETHSize
	}
	if op.HasImm() {
		if len(data) < off+ImmSize {
			return 0, errTooShort
		}
		pkt.Imm = be.Uint32(data[off : off+4])
		off += ImmSize
	}
	if op.HasAtomicETH() {
		if len(data) < off+AtomicETHSize {
			return 0, errTooShort
		}
		a := data[off : off+AtomicETHSize]
		pkt.Atomic.VA = be.Uint64(a[0:8])
		pkt.Atomic.RKey = be.Uint32(a[8:12])
		pkt.Atomic.SwapAdd = be.Uint64(a[12:20])
		pkt.Atomic.Compare = be.Uint64(a[20:28])
		off += AtomicETHSize
	}
	if op.HasAtomicAck() {
		if len(data) < off+AtomicAckSize {
			return 0, errTooShort
		}
		pkt.AtomicAck = be.Uint64(data[off : off+8])
	}
	return EthernetSize + int(pkt.IP.TotalLen), nil
}

// VerifyICRC recomputes the invariant CRC over wire bytes and compares it
// with the trailing iCRC field. It returns an error describing the
// mismatch, or nil. Corruption events injected by the switch flip payload
// bits without fixing the iCRC, so receivers detect them here exactly as
// real RNICs do.
func VerifyICRC(data []byte) error {
	if len(data) < HeaderOverhead {
		return errTooShort
	}
	crcOff := len(data) - ICRCSize
	got := uint32(data[crcOff]) | uint32(data[crcOff+1])<<8 |
		uint32(data[crcOff+2])<<16 | uint32(data[crcOff+3])<<24
	want := ComputeICRC(data[:crcOff])
	if got != want {
		return fmt.Errorf("packet: iCRC mismatch: wire %#08x, computed %#08x", got, want)
	}
	return nil
}

func putUint24(b []byte, v uint32) {
	b[0] = byte(v >> 16)
	b[1] = byte(v >> 8)
	b[2] = byte(v)
}

func uint24(b []byte) uint32 {
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
}

func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(be.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// VerifyIPv4Checksum recomputes the header checksum over the 20-byte IPv4
// header in a serialized packet.
func VerifyIPv4Checksum(data []byte) bool {
	if len(data) < EthernetSize+IPv4Size {
		return false
	}
	return ipv4Checksum(data[14:34]) == 0
}
