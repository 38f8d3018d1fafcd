// Package packet implements the RoCEv2 wire format used by every Lumina
// component: Ethernet / IPv4 / UDP / InfiniBand BTH, the extended
// transport headers and the invariant CRC (iCRC), as real bytes — what
// the hardware testbed's P4 parser and DPDK dumper see.
//
// One table of offsets (view.go) spells the header layout. Senders fill
// a Packet and AppendWire encodes it, computing every length, the IPv4
// header checksum and the iCRC. Receivers (the switch, the NICs, the
// dumpers, the trace) read a View: bytes ParseFrame or ParseHeaders
// checked, read in place by one accessor per field, through which
// DecodeInto also fills a Packet.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// RoCEv2Port is the UDP destination port reserved for RoCEv2.
const RoCEv2Port = 4791

// EtherTypeIPv4 is the Ethernet type for IPv4 payloads.
const EtherTypeIPv4 = 0x0800

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// Header sizes on the wire, in bytes.
const (
	EthernetSize  = 14
	IPv4Size      = 20
	UDPSize       = 8
	BTHSize       = 12
	RETHSize      = 16
	AETHSize      = 4
	ImmSize       = 4
	AtomicETHSize = 28 // VA(8) + RKey(4) + SwapAdd(8) + Compare(8)
	AtomicAckSize = 8  // original remote data
	ICRCSize      = 4

	// HeaderOverhead is the framing cost of a payload-bearing RoCEv2
	// packet without extended headers (e.g. a SEND middle packet).
	HeaderOverhead = EthernetSize + IPv4Size + UDPSize + BTHSize + ICRCSize
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Uint64 packs the address into the low 48 bits of a uint64.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// MACFromUint64 unpacks the low 48 bits of v into a MAC.
func MACFromUint64(v uint64) MAC {
	return MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Ethernet is the layer-2 header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// IPv4 is the layer-3 header. Options are not supported (IHL is fixed at
// 5 words), matching what RoCEv2 deployments actually emit.
type IPv4 struct {
	DSCP     uint8 // 6-bit differentiated services code point
	ECN      uint8 // 2-bit ECN field (see ECN* constants)
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3-bit flags (DF = 0b010)
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      netip.Addr
	Dst      netip.Addr
}

// ECN codepoints.
const (
	ECNNotECT = 0b00 // not ECN-capable
	ECNECT1   = 0b01 // ECN-capable transport (1)
	ECNECT0   = 0b10 // ECN-capable transport (0)
	ECNCE     = 0b11 // congestion experienced
)

// UDP is the layer-4 header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Opcode is the 8-bit InfiniBand BTH opcode. The high 3 bits select the
// transport service (000 = RC, 110 = CNP class), the low 5 bits the
// operation.
type Opcode uint8

// Reliable Connection (RC) opcodes, per IBTA spec volume 1 §9.4.5, plus
// the RoCEv2 CNP opcode used by DCQCN.
const (
	OpSendFirst          Opcode = 0x00
	OpSendMiddle         Opcode = 0x01
	OpSendLast           Opcode = 0x02
	OpSendLastImm        Opcode = 0x03
	OpSendOnly           Opcode = 0x04
	OpSendOnlyImm        Opcode = 0x05
	OpWriteFirst         Opcode = 0x06
	OpWriteMiddle        Opcode = 0x07
	OpWriteLast          Opcode = 0x08
	OpWriteLastImm       Opcode = 0x09
	OpWriteOnly          Opcode = 0x0A
	OpWriteOnlyImm       Opcode = 0x0B
	OpReadRequest        Opcode = 0x0C
	OpReadResponseFirst  Opcode = 0x0D
	OpReadResponseMiddle Opcode = 0x0E
	OpReadResponseLast   Opcode = 0x0F
	OpReadResponseOnly   Opcode = 0x10
	OpAcknowledge        Opcode = 0x11
	OpAtomicAcknowledge  Opcode = 0x12
	OpCompareSwap        Opcode = 0x13
	OpFetchAdd           Opcode = 0x14
	OpCNP                Opcode = 0x81 // RoCEv2 congestion notification packet
)

var opcodeNames = map[Opcode]string{
	OpSendFirst:          "SEND_FIRST",
	OpSendMiddle:         "SEND_MIDDLE",
	OpSendLast:           "SEND_LAST",
	OpSendLastImm:        "SEND_LAST_IMM",
	OpSendOnly:           "SEND_ONLY",
	OpSendOnlyImm:        "SEND_ONLY_IMM",
	OpWriteFirst:         "WRITE_FIRST",
	OpWriteMiddle:        "WRITE_MIDDLE",
	OpWriteLast:          "WRITE_LAST",
	OpWriteLastImm:       "WRITE_LAST_IMM",
	OpWriteOnly:          "WRITE_ONLY",
	OpWriteOnlyImm:       "WRITE_ONLY_IMM",
	OpReadRequest:        "READ_REQUEST",
	OpReadResponseFirst:  "READ_RESP_FIRST",
	OpReadResponseMiddle: "READ_RESP_MIDDLE",
	OpReadResponseLast:   "READ_RESP_LAST",
	OpReadResponseOnly:   "READ_RESP_ONLY",
	OpAcknowledge:        "ACK",
	OpAtomicAcknowledge:  "ATOMIC_ACK",
	OpCompareSwap:        "CMP_SWAP",
	OpFetchAdd:           "FETCH_ADD",
	OpCNP:                "CNP",
}

func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP_%#02x", uint8(o))
}

// IsSend reports whether the opcode is a SEND variant.
func (o Opcode) IsSend() bool { return o <= OpSendOnlyImm }

// IsWrite reports whether the opcode is an RDMA WRITE variant.
func (o Opcode) IsWrite() bool { return o >= OpWriteFirst && o <= OpWriteOnlyImm }

// IsReadRequest reports whether the opcode is an RDMA READ request.
func (o Opcode) IsReadRequest() bool { return o == OpReadRequest }

// IsReadResponse reports whether the opcode is an RDMA READ response.
func (o Opcode) IsReadResponse() bool {
	return o >= OpReadResponseFirst && o <= OpReadResponseOnly
}

// IsAck reports whether the opcode is an acknowledgement (ACK or NAK both
// travel as OpAcknowledge with an AETH syndrome).
func (o Opcode) IsAck() bool { return o == OpAcknowledge || o == OpAtomicAcknowledge }

// IsAtomic reports whether the opcode is an atomic request.
func (o Opcode) IsAtomic() bool { return o == OpCompareSwap || o == OpFetchAdd }

// IsCNP reports whether the packet is a DCQCN congestion notification.
func (o Opcode) IsCNP() bool { return o == OpCNP }

// IsData reports whether the packet carries message payload (the packets
// Lumina's event injector targets; §3.3 footnote 2 excludes control
// packets such as ACK/NACK/CNP).
func (o Opcode) IsData() bool {
	return o.IsSend() || o.IsWrite() || o.IsReadResponse() || o.IsReadRequest() || o.IsAtomic()
}

// IsFirst reports whether the opcode starts a multi-packet message.
func (o Opcode) IsFirst() bool {
	switch o {
	case OpSendFirst, OpWriteFirst, OpReadResponseFirst:
		return true
	}
	return false
}

// IsLast reports whether the opcode ends a multi-packet message.
func (o Opcode) IsLast() bool {
	switch o {
	case OpSendLast, OpSendLastImm, OpWriteLast, OpWriteLastImm, OpReadResponseLast:
		return true
	}
	return false
}

// IsOnly reports whether the opcode is a single-packet message.
func (o Opcode) IsOnly() bool {
	switch o {
	case OpSendOnly, OpSendOnlyImm, OpWriteOnly, OpWriteOnlyImm, OpReadResponseOnly:
		return true
	}
	return false
}

// HasRETH reports whether the wire format includes an RDMA extended
// transport header after the BTH.
func (o Opcode) HasRETH() bool {
	switch o {
	case OpWriteFirst, OpWriteOnly, OpWriteOnlyImm, OpReadRequest:
		return true
	}
	return false
}

// HasAETH reports whether the wire format includes an ACK extended
// transport header after the BTH.
func (o Opcode) HasAETH() bool {
	switch o {
	case OpAcknowledge, OpAtomicAcknowledge, OpReadResponseFirst, OpReadResponseLast, OpReadResponseOnly:
		return true
	}
	return false
}

// HasAtomicETH reports whether the wire format includes an atomic
// extended transport header (compare-swap / fetch-add requests).
func (o Opcode) HasAtomicETH() bool { return o.IsAtomic() }

// HasAtomicAck reports whether the wire format includes the atomic
// acknowledge payload (the original remote value).
func (o Opcode) HasAtomicAck() bool { return o == OpAtomicAcknowledge }

// HasImm reports whether the wire format includes a 4-byte immediate.
func (o Opcode) HasImm() bool {
	switch o {
	case OpSendLastImm, OpSendOnlyImm, OpWriteLastImm, OpWriteOnlyImm:
		return true
	}
	return false
}

// BTH is the InfiniBand base transport header (12 bytes).
type BTH struct {
	Opcode   Opcode
	SE       bool  // solicited event
	MigReq   bool  // migration request (APM state; §6.2.3's interop bug hinges on it)
	PadCount uint8 // 2-bit pad count
	TVer     uint8 // 4-bit transport header version
	PKey     uint16
	FECN     bool   // forward ECN (resv8a bit 7 in RoCEv2 usage)
	BECN     bool   // backward ECN
	DestQP   uint32 // 24-bit destination queue pair number
	AckReq   bool
	PSN      uint32 // 24-bit packet sequence number
}

// PSNMask keeps PSNs within their 24-bit space.
const PSNMask = 0xFFFFFF

// RETH is the RDMA extended transport header (16 bytes): remote virtual
// address, rkey, and DMA length.
type RETH struct {
	VA     uint64
	RKey   uint32
	DMALen uint32
}

// AETH syndromes. The high 3 bits classify: 000 ACK, 001 RNR NAK,
// 011 NAK; the low 5 bits carry credits or the NAK code.
const (
	SyndromeACK     uint8 = 0x00
	SyndromeRNRNak  uint8 = 0x20
	SyndromeNakBase uint8 = 0x60
	NakPSNSeqError  uint8 = 0x60 // NAK code 0: PSN sequence error (Go-back-N trigger)
	NakInvalidReq   uint8 = 0x61
	NakRemoteAccess uint8 = 0x62
	NakRemoteOpErr  uint8 = 0x63
	NakInvalidRDReq uint8 = 0x64
)

// AETH is the ACK extended transport header (4 bytes).
type AETH struct {
	Syndrome uint8
	MSN      uint32 // 24-bit message sequence number
}

// AtomicETH is the atomic extended transport header (28 bytes) carried
// by compare-swap and fetch-add requests.
type AtomicETH struct {
	VA      uint64
	RKey    uint32
	SwapAdd uint64 // swap value (cmp-swap) or addend (fetch-add)
	Compare uint64 // comparand (cmp-swap only)
}

// IsNak reports whether the syndrome encodes a NAK.
func (a AETH) IsNak() bool { return a.Syndrome&0xE0 == 0x60 }

// IsRNR reports whether the syndrome encodes a receiver-not-ready NAK.
func (a AETH) IsRNR() bool { return a.Syndrome&0xE0 == 0x20 }

// IsAck reports whether the syndrome encodes a positive acknowledgement.
func (a AETH) IsAck() bool { return a.Syndrome&0xE0 == 0x00 }

// Packet is a fully parsed RoCEv2 packet. Exactly which extended headers
// are meaningful follows from BTH.Opcode (see HasRETH/HasAETH/HasImm).
type Packet struct {
	Eth    Ethernet
	IP     IPv4
	UDP    UDP
	BTH    BTH
	RETH   RETH
	AETH   AETH
	Atomic AtomicETH
	// AtomicAck is the original remote value returned by an atomic
	// acknowledge.
	AtomicAck uint64
	Imm       uint32

	// Payload is the IB payload (message data). For header-only packets
	// it is empty. DecodeInto aliases it into the source buffer (NoCopy
	// semantics); callers that retain packets across buffer reuse must
	// copy it.
	Payload []byte

	// ICRC is the invariant CRC read from (DecodeInto) or written to
	// (AppendWire) the wire.
	ICRC uint32
}

// WireLen returns the total serialized length in bytes.
func (p *Packet) WireLen() int {
	return WireSize(p.BTH.Opcode, len(p.Payload), int(p.BTH.PadCount))
}

// WireSize returns the serialized length of a packet with the given
// opcode, payload length, and pad count — without building a Packet.
// The transmit schedulers size queue entries with it so the hot path
// never constructs a packet twice (once for its length, once for its
// bytes).
func WireSize(op Opcode, payloadLen, padCount int) int {
	n := offExt + int(extSizes[op]) + payloadLen + padCount + ICRCSize
	if op == OpCNP {
		n += cnpPadSize
	}
	return n
}

// cnpPadSize: RoCEv2 CNPs carry a 16-byte zeroed payload field.
const cnpPadSize = 16

func (p *Packet) String() string {
	s := fmt.Sprintf("%s %s->%s qp=%d psn=%d", p.BTH.Opcode, p.IP.Src, p.IP.Dst, p.BTH.DestQP, p.BTH.PSN)
	if p.BTH.Opcode.HasAETH() {
		switch {
		case p.AETH.IsNak():
			s += fmt.Sprintf(" NAK(code=%d)", p.AETH.Syndrome&0x1F)
		case p.AETH.IsRNR():
			s += " RNR"
		default:
			s += " ACK"
		}
		s += fmt.Sprintf(" msn=%d", p.AETH.MSN)
	}
	if len(p.Payload) > 0 {
		s += fmt.Sprintf(" len=%d", len(p.Payload))
	}
	if p.IP.ECN == ECNCE {
		s += " CE"
	}
	return s
}

var (
	errTooShort = fmt.Errorf("packet: buffer too short")
	errNotIPv4  = fmt.Errorf("packet: not IPv4")
	errNotUDP   = fmt.Errorf("packet: not UDP")
	errBadIHL   = fmt.Errorf("packet: unsupported IHL (options present)")
)

// binary byte-order shorthand: all IB/IP fields are big-endian.
var be = binary.BigEndian
