package packet

import (
	"encoding/binary"
	"fmt"
)

// Serialize encodes the packet into a freshly allocated buffer. Outside
// tests only the frozen bench/probes.go calls it (ROADMAP item 6c);
// everything else calls AppendWire.
func (p *Packet) Serialize() []byte { return p.AppendWire(nil) }

// AppendWire appends the packet's wire encoding to buf and returns the
// extended slice, computing IPv4 TotalLen and header checksum, UDP
// Length, and the iCRC. When cap(buf) already covers the encoded size
// the call performs zero allocations, which is what lets per-connection
// scratch buffers make the encode path allocation-free.
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
	ibLen := p.WireLen() - offBTH // BTH..iCRC
	p.IP.TotalLen = uint16(IPv4Size + UDPSize + ibLen)
	p.UDP.Length = uint16(UDPSize + ibLen)

	// The fixed headers go through a BTH-deep view of the front, so
	// their constant offsets need no bounds checks.
	h := (*[offExt]byte)(buf)
	copy(h[offEthDst:], p.Eth.Dst[:])
	copy(h[offEthSrc:], p.Eth.Src[:])
	be.PutUint16(h[offEtherType:], p.Eth.EtherType)

	h[offIPVerIHL] = 0x45 // version 4, IHL 5
	h[offIPTOS] = p.IP.DSCP<<2 | p.IP.ECN&0x3
	be.PutUint16(h[offIPTotalLen:], p.IP.TotalLen)
	be.PutUint16(h[offIPID:], p.IP.ID)
	be.PutUint16(h[offIPFlags:], uint16(p.IP.Flags)<<13|p.IP.FragOff&0x1FFF)
	h[offIPTTL] = p.IP.TTL
	h[offIPProto] = p.IP.Protocol
	*(*[4]byte)(h[offIPSrc:]) = p.IP.Src.As4()
	*(*[4]byte)(h[offIPDst:]) = p.IP.Dst.As4()
	be.PutUint16(h[offIPChecksum:], 0)
	ck := ipv4Checksum(h[offIP:offUDP])
	be.PutUint16(h[offIPChecksum:], ck)
	p.IP.Checksum = ck

	// RoCEv2 leaves the UDP checksum zero (it is not invariant and the
	// iCRC already covers the payload).
	be.PutUint16(h[offUDPSrcPort:], p.UDP.SrcPort)
	be.PutUint16(h[offUDPDstPort:], p.UDP.DstPort)
	be.PutUint16(h[offUDPLength:], p.UDP.Length)
	be.PutUint16(h[offUDPChecksum:], p.UDP.Checksum)

	h[offBTHOpcode] = uint8(p.BTH.Opcode)
	h[offBTHFlags] = bit(p.BTH.SE, 0x80) | bit(p.BTH.MigReq, 0x40) | (p.BTH.PadCount&0x3)<<4 | p.BTH.TVer&0xF
	be.PutUint16(h[offBTHPKey:], p.BTH.PKey)
	// resv8a: FECN/BECN live here in RoCEv2 practice.
	h[offBTHResv8a] = bit(p.BTH.FECN, 0x80) | bit(p.BTH.BECN, 0x40)
	putUint24(h[offBTHDestQP:], p.BTH.DestQP)
	h[offBTHAckReq] = bit(p.BTH.AckReq, 0x80)
	putUint24(h[offBTHPSN:], p.BTH.PSN)

	off := offExt
	op := p.BTH.Opcode
	if op.HasRETH() {
		be.PutUint64(buf[off+rethVA:], p.RETH.VA)
		be.PutUint32(buf[off+rethRKey:], p.RETH.RKey)
		be.PutUint32(buf[off+rethDMALen:], p.RETH.DMALen)
		off += RETHSize
	}
	if op.HasAETH() {
		buf[off+aethSyndrome] = p.AETH.Syndrome
		putUint24(buf[off+aethMSN:], p.AETH.MSN)
		off += AETHSize
	}
	if op.HasImm() {
		be.PutUint32(buf[off:], p.Imm)
		off += ImmSize
	}
	if op.HasAtomicETH() {
		be.PutUint64(buf[off+atomicVA:], p.Atomic.VA)
		be.PutUint32(buf[off+atomicRKey:], p.Atomic.RKey)
		be.PutUint64(buf[off+atomicSwapAdd:], p.Atomic.SwapAdd)
		be.PutUint64(buf[off+atomicCompare:], p.Atomic.Compare)
		off += AtomicETHSize
	}
	if op.HasAtomicAck() {
		be.PutUint64(buf[off:], p.AtomicAck)
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

	// iCRC is transmitted little-endian (least significant byte first),
	// mirroring the Ethernet FCS convention.
	icrc := ComputeICRC(buf[:off])
	binary.LittleEndian.PutUint32(buf[off:], icrc)
	p.ICRC = icrc
}

// bit returns mask when set holds, else 0.
func bit(set bool, mask uint8) uint8 {
	if set {
		return mask
	}
	return 0
}

// DecodeInto parses wire bytes into pkt in place, which is overwritten —
// no per-call allocation. The payload slice aliases data rather than
// copying it; callers that retain pkt across reuse of the source buffer
// must copy the payload themselves. DecodeInto applies ParseFrame's
// checks and returns its error for structurally invalid packets,
// leaving pkt zero but for the Ethernet header of a frame that holds
// one (the switch forwards an undecodable frame by it). iCRC validity is
// reported separately by VerifyICRC so that corrupted-but-parseable
// packets (Lumina's corruption events) can still be inspected.
func DecodeInto(data []byte, pkt *Packet) error {
	start, end, err := parseFrame(data)
	if err != nil {
		*pkt = Packet{}
		if len(data) >= EthernetSize {
			pkt.decodeEthernet(data)
		}
		return err
	}
	pkt.decodeHeaders(data)
	if end > start {
		pkt.Payload = data[start:end]
	}
	pkt.ICRC = binary.LittleEndian.Uint32(data[len(data)-ICRCSize:])
	return nil
}

func (p *Packet) decodeEthernet(b []byte) {
	h := (*[EthernetSize]byte)(b)
	p.Eth.Dst = MAC(h[offEthDst:])
	p.Eth.Src = MAC(h[offEthSrc:])
	p.Eth.EtherType = be.Uint16(h[offEtherType:])
}

// decodeHeaders overwrites p with the headers of b, which parseHeaders
// accepted, leaving Payload and ICRC zero. A field a View reads is
// filled by its accessor; the rest are stored one by one through a
// fixed-size view of the BTH-deep front, so the constant offsets need
// no bounds checks.
func (p *Packet) decodeHeaders(b []byte) {
	v := View{b}
	*p = Packet{RETH: v.RETH(), AETH: v.AETH(), Atomic: v.Atomic(), AtomicAck: v.AtomicAck(), Imm: v.Imm()}
	p.decodeEthernet(b)
	h := (*[offExt]byte)(b)
	p.IP.DSCP = h[offIPTOS] >> 2
	p.IP.ECN = v.ECN()
	p.IP.TotalLen = be.Uint16(h[offIPTotalLen:])
	p.IP.ID = be.Uint16(h[offIPID:])
	p.IP.Flags = h[offIPFlags] >> 5
	p.IP.FragOff = be.Uint16(h[offIPFlags:]) & 0x1FFF
	p.IP.TTL = h[offIPTTL]
	p.IP.Protocol = h[offIPProto]
	p.IP.Checksum = be.Uint16(h[offIPChecksum:])
	p.IP.Src, p.IP.Dst = v.Src(), v.Dst()
	p.UDP.SrcPort = be.Uint16(h[offUDPSrcPort:])
	p.UDP.DstPort = be.Uint16(h[offUDPDstPort:])
	p.UDP.Length = be.Uint16(h[offUDPLength:])
	p.UDP.Checksum = be.Uint16(h[offUDPChecksum:])
	p.BTH.Opcode = v.Opcode()
	p.BTH.SE = h[offBTHFlags]&0x80 != 0
	p.BTH.MigReq = v.MigReq()
	p.BTH.PadCount = v.PadCount()
	p.BTH.TVer = h[offBTHFlags] & 0xF
	p.BTH.PKey = be.Uint16(h[offBTHPKey:])
	p.BTH.FECN = h[offBTHResv8a]&0x80 != 0
	p.BTH.BECN = h[offBTHResv8a]&0x40 != 0
	p.BTH.DestQP = v.DestQP()
	p.BTH.AckReq = v.AckReq()
	p.BTH.PSN = v.PSN()
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
