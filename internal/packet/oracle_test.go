package packet_test

// An iCRC oracle the encoder did not write. The two frames below are
// spelled byte by byte from the RoCEv2 wire format; their IPv4 checksums
// and iCRCs were computed once outside this repository (Python's
// zlib.crc32 over the masked image) and are literals too. refICRC is the
// byte-at-a-time definition with its own table, sharing nothing with
// icrc.go. The fuzz targets at the bottom run the same two checks —
// fast path against the definition, decode against encode — over
// whatever bytes the fuzzer finds.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/packet"
)

// writeMiddleFrame is an RDMA Write Middle, QP 0x12, PSN 0x65, ECT(0),
// sixteen payload bytes.
var writeMiddleFrame = []byte{
	0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // Ethernet dst
	0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // Ethernet src
	0x08, 0x00, // EtherType IPv4
	0x45, 0x02, 0x00, 0x3c, // IPv4: v4 IHL5, DSCP 0 ECN 2, total length 60
	0x12, 0x34, 0x40, 0x00, // ID 0x1234, DF
	0x40, 0x11, 0x14, 0x79, // TTL 64, UDP, header checksum
	0x0a, 0x00, 0x00, 0x01, // 10.0.0.1
	0x0a, 0x00, 0x00, 0x02, // 10.0.0.2
	0xc0, 0x00, 0x12, 0xb7, // UDP 49152 -> 4791
	0x00, 0x28, 0x00, 0x00, // length 40, checksum 0
	0x07, 0x00, 0xff, 0xff, // BTH: RC Write Middle, no flags, P_Key 0xffff
	0x00, 0x00, 0x00, 0x12, // resv8a, DestQP 0x12
	0x00, 0x00, 0x00, 0x65, // no AckReq, PSN 0x65
	0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, // payload
	0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
	0xa7, 0x1a, 0x43, 0x7e, // iCRC 0x7e431aa7, least significant byte first
}

// ackFrame is the matching Acknowledge: DSCP 26, TTL 63, MSN 1.
var ackFrame = []byte{
	0x02, 0x00, 0x00, 0x00, 0x00, 0x02,
	0x02, 0x00, 0x00, 0x00, 0x00, 0x01,
	0x08, 0x00,
	0x45, 0x68, 0x00, 0x30, // DSCP 26 ECN 0, total length 48
	0x00, 0x07, 0x40, 0x00, // ID 7, DF
	0x3f, 0x11, 0x27, 0x4c, // TTL 63, UDP, header checksum
	0x0a, 0x00, 0x00, 0x01,
	0x0a, 0x00, 0x00, 0x02,
	0xc0, 0x01, 0x12, 0xb7, // UDP 49153 -> 4791
	0x00, 0x1c, 0x00, 0x00, // length 28, checksum 0
	0x11, 0x00, 0xff, 0xff, // BTH: RC Acknowledge
	0x00, 0x00, 0x00, 0x11, // DestQP 0x11
	0x00, 0x00, 0x00, 0x65, // PSN 0x65
	0x00, 0x00, 0x00, 0x01, // AETH: ACK, MSN 1
	0xa9, 0x6d, 0x4b, 0xc0, // iCRC 0xc04b6da9
}

var literalFrames = []struct {
	name string
	wire []byte
	icrc uint32
	want packet.Packet // what the frame says, field by field
}{
	{"write-middle", writeMiddleFrame, 0x7e431aa7, packet.Packet{
		Eth: packet.Ethernet{Dst: packet.MACFromUint64(0x020000000002), Src: packet.MACFromUint64(0x020000000001), EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{ECN: 2, TotalLen: 60, ID: 0x1234, Flags: 0b010, TTL: 64, Protocol: packet.ProtoUDP, Checksum: 0x1479,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2})},
		UDP:     packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port, Length: 40},
		BTH:     packet.BTH{Opcode: packet.OpWriteMiddle, PKey: 0xffff, DestQP: 0x12, PSN: 0x65},
		Payload: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		ICRC:    0x7e431aa7,
	}},
	{"ack", ackFrame, 0xc04b6da9, packet.Packet{
		Eth: packet.Ethernet{Dst: packet.MACFromUint64(0x020000000002), Src: packet.MACFromUint64(0x020000000001), EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{DSCP: 26, TotalLen: 48, ID: 7, Flags: 0b010, TTL: 63, Protocol: packet.ProtoUDP, Checksum: 0x274c,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2})},
		UDP:  packet.UDP{SrcPort: 49153, DstPort: packet.RoCEv2Port, Length: 28},
		BTH:  packet.BTH{Opcode: packet.OpAcknowledge, PKey: 0xffff, DestQP: 0x11, PSN: 0x65},
		AETH: packet.AETH{MSN: 1},
		ICRC: 0xc04b6da9,
	}},
}

const icrcHead = packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize

// maskedOffsets are the wire offsets the iCRC treats as 0xFF: IPv4 TOS,
// TTL and header checksum, the UDP checksum, BTH resv8a.
var maskedOffsets = []int{15, 22, 24, 25, 40, 41, 46}

var refTable = func() (t [256]uint32) {
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = c>>1 ^ 0xEDB88320
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}()

// refICRC is the definition: CRC-32 (reflected 0xEDB88320, all-ones
// preset, inverted result), one byte at a time, over eight 0xFF bytes
// and then everything after the Ethernet header with the masked offsets
// replaced by 0xFF. Frames too short to hold a BTH have no iCRC: 0.
func refICRC(wire []byte) uint32 {
	if len(wire) < icrcHead {
		return 0
	}
	image := append(bytes.Repeat([]byte{0xFF}, 8), wire[packet.EthernetSize:]...)
	for _, off := range maskedOffsets {
		image[8+off-packet.EthernetSize] = 0xFF
	}
	crc := ^uint32(0)
	for _, b := range image {
		crc = refTable[byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

func TestLiteralFrames(t *testing.T) {
	for _, f := range literalFrames {
		body := f.wire[:len(f.wire)-packet.ICRCSize]
		if got := refICRC(body); got != f.icrc {
			t.Errorf("%s: reference iCRC %#08x, literal %#08x", f.name, got, f.icrc)
		}
		if got := packet.ComputeICRC(body); got != f.icrc {
			t.Errorf("%s: ComputeICRC %#08x, literal %#08x", f.name, got, f.icrc)
		}
		if err := packet.VerifyICRC(f.wire); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		var got packet.Packet
		if err := packet.DecodeInto(f.wire, &got); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, f.want) {
			t.Errorf("%s: decoded\n%+v\nwant\n%+v", f.name, got, f.want)
		}
		// The encoder, given only the fields, must spell the same bytes.
		in := f.want
		in.IP.TotalLen, in.IP.Checksum, in.UDP.Length, in.ICRC = 0, 0, 0, 0
		if enc := in.AppendWire(nil); !bytes.Equal(enc, f.wire) {
			t.Errorf("%s: encoded\n% x\nwant\n% x", f.name, enc, f.wire)
		}
	}
}

func TestComputeICRCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, payload := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1024, 4096} {
		for i := 0; i < 50; i++ {
			wire := make([]byte, icrcHead+payload)
			rng.Read(wire)
			if got, want := packet.ComputeICRC(wire), refICRC(wire); got != want {
				t.Fatalf("payload %d: ComputeICRC %#08x, reference %#08x for % x", payload, got, want, wire[:icrcHead])
			}
		}
	}
	for n := 0; n < icrcHead; n++ {
		if got := packet.ComputeICRC(make([]byte, n)); got != 0 {
			t.Fatalf("runt of %d bytes: ComputeICRC %#08x, want 0", n, got)
		}
	}
}

func TestICRCSingleBitFlips(t *testing.T) {
	invariant := map[int]bool{}
	for off := 0; off < packet.EthernetSize; off++ {
		invariant[off] = true // not covered: the iCRC starts at the IP header
	}
	for _, off := range maskedOffsets {
		invariant[off] = true
	}
	for _, f := range literalFrames {
		body := bytes.Clone(f.wire[:len(f.wire)-packet.ICRCSize])
		for off := range body {
			for bit := 0; bit < 8; bit++ {
				body[off] ^= 1 << bit
				changed := packet.ComputeICRC(body) != f.icrc
				body[off] ^= 1 << bit
				if changed == invariant[off] {
					t.Errorf("%s: flipping bit %d of byte %d: iCRC changed = %v", f.name, bit, off, changed)
				}
			}
		}
	}
}

// fuzzSeeds are the literal frames plus one frame per (opcode, length)
// from the captures of the corpus scenarios — what their trace.pcap
// files hold, trimmed mirror copies included. Both targets share one
// replay of the corpus.
var fuzzSeeds = sync.OnceValues(func() ([][]byte, error) {
	seeds := [][]byte{writeMiddleFrame, ackFrame, nil, writeMiddleFrame[:icrcHead-1]}
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "corpus", "*", "scenario.yaml"))
	if err != nil || len(scenarios) == 0 {
		return nil, fmt.Errorf("no corpus scenarios: %v", err)
	}
	type shape struct {
		op packet.Opcode
		n  int
	}
	seen := map[shape]bool{}
	for _, path := range scenarios {
		cfg, err := config.Load(path)
		if err != nil {
			return nil, err
		}
		rep, err := orchestrator.Run(cfg, orchestrator.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for i := range rep.Trace.Entries {
			e := &rep.Trace.Entries[i]
			if k := (shape{e.Pkt.BTH.Opcode, len(e.Wire)}); !seen[k] {
				seen[k] = true
				seeds = append(seeds, e.Wire)
			}
		}
	}
	return seeds, nil
})

func addSeeds(f *testing.F) {
	seeds, err := fuzzSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

func FuzzComputeICRC(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, wire []byte) {
		before := bytes.Clone(wire)
		if got, want := packet.ComputeICRC(wire), refICRC(wire); got != want {
			t.Fatalf("ComputeICRC %#08x, reference %#08x", got, want)
		}
		if !bytes.Equal(wire, before) {
			t.Fatal("ComputeICRC wrote to the frame")
		}
	})
}

// FuzzDecodeInto: no input panics the decoder, and a frame it accepts
// re-encodes to one that decodes to the same packet with a valid iCRC.
func FuzzDecodeInto(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, wire []byte) {
		var p, q packet.Packet
		if packet.DecodeInto(wire, &p) != nil {
			return
		}
		enc := p.AppendWire(nil) // also refreshes p's computed fields
		if len(enc) != p.WireLen() {
			t.Fatalf("encoded %d bytes, WireLen %d", len(enc), p.WireLen())
		}
		if err := packet.VerifyICRC(enc); err != nil {
			t.Fatal(err)
		}
		if err := packet.DecodeInto(enc, &q); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n%+v\n%+v", p, q)
		}
	})
}
