package packet

import (
	"encoding/binary"
	"hash/crc32"
)

// ComputeICRC computes the RoCEv2 invariant CRC over a serialized packet
// (everything up to, but excluding, the trailing 4 iCRC bytes).
//
// Per the IBTA RoCEv2 annex, the iCRC is the Ethernet CRC-32 computed
// over:
//
//  1. eight bytes of 0xFF standing in for the (absent) LRH and the
//     masked fields of a hypothetical GRH — for IPv4 this prefix masks
//     fields that routers may rewrite;
//  2. the IPv4 header with Type of Service (DSCP+ECN), TTL and header
//     checksum masked to 0xFF — these change in flight;
//  3. the UDP header with the checksum masked to 0xFF;
//  4. the BTH with the resv8a byte (FECN/BECN) masked to 0xFF;
//  5. all remaining transport headers, payload and pad bytes verbatim.
//
// Masking means the iCRC survives ECN marking and TTL decrement — which
// is also what lets Lumina's injector mark ECN without recomputing it,
// and what forces the injector's corruption action to actually break it.
func ComputeICRC(wire []byte) uint32 {
	if len(wire) < offExt {
		return 0
	}
	// The masked image is the 0xFF prefix plus the 40 header bytes after
	// Ethernet with five fields forced to 0xFF: six 8-byte blocks. The
	// prefix block is folded into icrcSeed; each other block is loaded
	// little-endian from the wire, masked with an OR and hashed by
	// slicing-by-8 — no copy of the head, no write to the frame. Only the
	// long unmasked tail goes through crc32.Update's optimized path; the
	// two compose exactly: Update(0, head)+Update(·, tail) ≡ this.
	h := wire[offIP:offExt]
	le := binary.LittleEndian
	crc := slice8(icrcSeed, le.Uint64(h[0:])|0xFF<<8)   // IP 0-7: TOS (DSCP+ECN)
	crc = slice8(crc, le.Uint64(h[8:])|0xFF|0xFFFF<<16) // IP 8-15: TTL, header checksum
	crc = slice8(crc, le.Uint64(h[16:]))                // IP 16-19, UDP 0-3
	crc = slice8(crc, le.Uint64(h[24:])|0xFFFF<<16)     // UDP 4-7: checksum; BTH 0-3
	crc = slice8(crc, le.Uint64(h[32:])|0xFF)           // BTH 4-11: resv8a (FECN/BECN)
	return crc32.Update(^crc, crc32.IEEETable, wire[offExt:])
}

// icrcTables are the slicing-by-8 tables of the IEEE polynomial: table k
// maps a byte to its CRC contribution after k further zero bytes.
var icrcTables = func() (t [8][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < 8; k++ {
		for i, v := range t[k-1] {
			t[k][i] = t[0][byte(v)] ^ v>>8
		}
	}
	return t
}()

// icrcSeed is the CRC state after the eight 0xFF bytes that stand in for
// the LRH and the masked GRH fields.
var icrcSeed = slice8(^uint32(0), ^uint64(0))

// slice8 advances a reflected CRC-32 state over eight bytes held
// little-endian in v.
func slice8(crc uint32, v uint64) uint32 {
	t := &icrcTables
	lo, hi := crc^uint32(v), uint32(v>>32)
	return t[7][byte(lo)] ^ t[6][byte(lo>>8)] ^ t[5][byte(lo>>16)] ^ t[4][lo>>24] ^
		t[3][byte(hi)] ^ t[2][byte(hi>>8)] ^ t[1][byte(hi>>16)] ^ t[0][hi>>24]
}
