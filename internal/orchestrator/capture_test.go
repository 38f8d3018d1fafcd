package orchestrator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
)

// The capture validator: every frame of the trace.pcap a run writes is
// checked against the RoCEv2 wire rules spelled out below from the
// specifications, with nothing from internal/packet — no offsets,
// parsers, checksum or iCRC code. What it checks:
//
//   - structure: Ethernet type IPv4, an IPv4 header without options whose
//     total length is the frame's original length, UDP to port 4791 whose
//     length is the IPv4 payload's, a BTH, and the extension headers the
//     IBA (vol. 1 §9.2–9.5) prescribes for its opcode;
//   - the IPv4 header checksum (RFC 791), valid once the TTL is set back to
//     the sender's 64, since the mirror carries its event type there
//     (§3.4);
//   - the iCRC (RoCEv2 annex A17.3.3) of every frame captured whole,
//     unless the frame's event is corrupt;
//   - the mirror metadata: sequence number in the source MAC, ingress
//     timestamp in the destination MAC and in the pcap record, event type
//     in the TTL, each equal to the run's trace entry at the same index,
//     and sequence numbers that run consecutively (§3.5's first
//     integrity condition; every checked-in scenario captures whole).
//
// Under INT a forwarded frame carries its transit tag in the UDP checksum
// and its hop's queue and utilisation state in the IPv4 checksum bytes,
// so that checksum cannot hold on a tagged frame. Each scenario therefore
// runs twice, plain and with every observer on: the plain capture takes
// every check, and the INT capture takes every check but that checksum on
// tagged frames, and must equal the plain capture byte for byte outside
// the four bytes INT owns.

const (
	capSenderTTL  = 64
	capRoCEv2Port = 4791
	capEvCorrupt  = 3 // §3.4's event numbering: none, ecn, drop, corrupt, …
	capIPv4Start  = 14
	capUDPStart   = capIPv4Start + 20
	capBTHStart   = capUDPStart + 8
	capExtStart   = capBTHStart + 12
)

// capExt is the extension-header length the IBA prescribes after the BTH
// of each RC opcode this model sends, and the RoCEv2 CNP's (its 16
// reserved bytes). An opcode missing here is illegal.
var capExt = map[byte]int{
	0x00: 0,  // SEND First
	0x01: 0,  // SEND Middle
	0x02: 0,  // SEND Last
	0x03: 4,  // SEND Last with Immediate: ImmDt
	0x04: 0,  // SEND Only
	0x05: 4,  // SEND Only with Immediate: ImmDt
	0x06: 16, // RDMA WRITE First: RETH
	0x07: 0,  // RDMA WRITE Middle
	0x08: 0,  // RDMA WRITE Last
	0x09: 4,  // RDMA WRITE Last with Immediate: ImmDt
	0x0A: 16, // RDMA WRITE Only: RETH
	0x0B: 20, // RDMA WRITE Only with Immediate: RETH, ImmDt
	0x0C: 16, // RDMA READ Request: RETH
	0x0D: 4,  // RDMA READ Response First: AETH
	0x0E: 0,  // RDMA READ Response Middle
	0x0F: 4,  // RDMA READ Response Last: AETH
	0x10: 4,  // RDMA READ Response Only: AETH
	0x11: 4,  // Acknowledge: AETH
	0x12: 12, // ATOMIC Acknowledge: AETH, AtomicAckETH
	0x13: 28, // CmpSwap: AtomicETH
	0x14: 28, // FetchAdd: AtomicETH
	0x81: 16, // CNP: reserved bytes
}

// capFrame is one pcap record as the validator reads it.
type capFrame struct {
	ts   int64
	orig int
	data []byte
}

// readCapture parses a little-endian nanosecond pcap file.
func readCapture(b []byte) ([]capFrame, error) {
	le := binary.LittleEndian
	if len(b) < 24 || le.Uint32(b) != 0xA1B23C4D || le.Uint32(b[20:]) != 1 {
		return nil, fmt.Errorf("not a nanosecond Ethernet pcap")
	}
	var out []capFrame
	for b = b[24:]; len(b) > 0; {
		if len(b) < 16 {
			return nil, fmt.Errorf("record %d: header cut short", len(out))
		}
		incl, orig := int(le.Uint32(b[8:])), int(le.Uint32(b[12:]))
		if len(b) < 16+incl || incl > orig {
			return nil, fmt.Errorf("record %d: captured %d of %d bytes, %d left", len(out), incl, orig, len(b)-16)
		}
		out = append(out, capFrame{
			ts:   int64(le.Uint32(b))*1e9 + int64(le.Uint32(b[4:])),
			orig: orig,
			data: b[16 : 16+incl],
		})
		b = b[16+incl:]
	}
	return out, nil
}

// capIPv4Checksum is RFC 791's one's-complement sum of the header with
// the TTL set to ttl; a valid header sums to zero.
func capIPv4Checksum(h []byte, ttl byte) uint16 {
	var sum uint32
	for i := 0; i < 20; i += 2 {
		w := uint32(h[i])<<8 | uint32(h[i+1])
		if i == 8 {
			w = uint32(ttl)<<8 | uint32(h[9])
		}
		sum += w
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// capICRC is the RoCEv2 invariant CRC of a whole frame (iCRC excluded):
// CRC-32 over eight 0xFF bytes, then the frame from the IPv4 header on
// with TOS, TTL, the IPv4 checksum, the UDP checksum and the BTH's
// resv8a byte set to 0xFF.
func capICRC(frame []byte) uint32 {
	img := append(bytes.Repeat([]byte{0xFF}, 8), frame[capIPv4Start:]...)
	for _, off := range []int{1, 8, 10, 11, 26, 27, 32} {
		img[8+off] = 0xFF
	}
	return crc32.ChecksumIEEE(img)
}

// checkCaptureFrame returns what is wrong with f, a frame of a capture
// whose dumpers keep trim bytes of each packet.
func checkCaptureFrame(f capFrame, trim int) error {
	b := f.data
	be := binary.BigEndian
	if want := min(f.orig, trim); len(b) != want {
		return fmt.Errorf("captured %d bytes of a %d-byte frame, want %d", len(b), f.orig, want)
	}
	if len(b) < capExtStart {
		return fmt.Errorf("%d bytes end before the BTH does", len(b))
	}
	ip := b[capIPv4Start:capUDPStart]
	switch {
	case be.Uint16(b[12:]) != 0x0800:
		return fmt.Errorf("EtherType %#04x", be.Uint16(b[12:]))
	case ip[0] != 0x45:
		return fmt.Errorf("IPv4 version/IHL byte %#02x", ip[0])
	case ip[9] != 17:
		return fmt.Errorf("IP protocol %d", ip[9])
	case int(be.Uint16(ip[2:])) != f.orig-capIPv4Start:
		return fmt.Errorf("IPv4 total length %d in a %d-byte frame", be.Uint16(ip[2:]), f.orig)
	case int(be.Uint16(b[capUDPStart+4:])) != f.orig-capUDPStart:
		return fmt.Errorf("UDP length %d in a %d-byte frame", be.Uint16(b[capUDPStart+4:]), f.orig)
	case be.Uint16(b[capUDPStart+2:]) != capRoCEv2Port:
		return fmt.Errorf("UDP destination port %d", be.Uint16(b[capUDPStart+2:]))
	}
	op := b[capBTHStart]
	ext, ok := capExt[op]
	if !ok {
		return fmt.Errorf("opcode %#02x is not one this model sends", op)
	}
	pad := int(b[capBTHStart+1] >> 4 & 3)
	if payload := f.orig - capExtStart - ext - pad - 4; payload < 0 || op == 0x81 && payload+pad != 0 {
		return fmt.Errorf("opcode %#02x: %d-byte frame leaves %d payload bytes after %d of extension headers and %d of pad", op, f.orig, payload, ext, pad)
	}
	if len(b) < capExtStart+ext {
		return fmt.Errorf("opcode %#02x: %d bytes cut its %d bytes of extension headers", op, len(b), ext)
	}
	if be.Uint16(b[capUDPStart+6:]) == 0 { // no INT transit tag
		if ck := capIPv4Checksum(ip, capSenderTTL); ck != 0 {
			return fmt.Errorf("IPv4 checksum off by %#04x at TTL %d", ck, capSenderTTL)
		}
	}
	if len(b) == f.orig && ip[8] != capEvCorrupt {
		crc := len(b) - 4
		if got, want := binary.LittleEndian.Uint32(b[crc:]), capICRC(b[:crc]); got != want {
			return fmt.Errorf("iCRC %#08x, want %#08x", got, want)
		}
	}
	return nil
}

// capMAC48 reads a 48-bit big-endian MAC field.
func capMAC48(b []byte) uint64 {
	return uint64(binary.BigEndian.Uint16(b))<<32 | uint64(binary.BigEndian.Uint32(b[2:]))
}

// runCapture runs cfg, writes its artifacts and reads back the capture.
func runCapture(t *testing.T, cfg config.Test, opts Options) []capFrame {
	t.Helper()
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := readCapture(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(rep.Trace.Entries) {
		t.Fatalf("trace.pcap holds %d frames, the trace %d entries", len(frames), len(rep.Trace.Entries))
	}
	for i, f := range frames {
		if err := checkCaptureFrame(f, cfg.Dumpers.TrimBytes); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		e := &rep.Trace.Entries[i]
		m := e.Meta()
		seq, ts, ev := capMAC48(f.data[6:]), int64(capMAC48(f.data)), f.data[capIPv4Start+8]
		if seq != m.Seq || ts != m.Timestamp || ev != byte(m.Event) || f.ts != ts || int64(e.Time()) != ts {
			t.Fatalf("frame %d: (seq, timestamp, event, pcap time) = (%d, %d, %d, %d), entry metadata %+v at %d",
				i, seq, ts, ev, f.ts, m, e.Time())
		}
		if first := capMAC48(frames[0].data[6:]); seq != first+uint64(i) {
			t.Fatalf("frame %d: sequence number %d, want %d after frame 0's %d (§3.5 condition 1)", i, seq, first+uint64(i), first)
		}
	}
	return frames
}

// TestCaptureFramesAreWellFormed runs every checked-in scenario,
// benchmark workload and corpus entry plain and with every observer on,
// and holds each frame of both captures to the rules above. A corpus
// entry's subtest is named by its ID.
func TestCaptureFramesAreWellFormed(t *testing.T) {
	var files []string
	for _, g := range []string{"configs/*.yaml", "bench/workloads/*.yaml", "corpus/*/scenario.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 22 {
		t.Fatalf("found %d checked-in scenarios, want at least 22", len(files))
	}
	for _, file := range files {
		name := filepath.Base(file)
		if name == "scenario.yaml" {
			name = filepath.Base(filepath.Dir(file))
		}
		t.Run(name, func(t *testing.T) {
			cfg, err := config.Load(file)
			if err != nil {
				t.Fatal(err)
			}
			plain := runCapture(t, cfg, DefaultOptions())
			withINT := runCapture(t, cfg, allObservers())
			if len(plain) == 0 || len(withINT) != len(plain) {
				t.Fatalf("captures of %d (plain) and %d (INT) frames", len(plain), len(withINT))
			}
			tagged := 0
			for i := range plain {
				p, q := plain[i], withINT[i]
				if binary.BigEndian.Uint16(p.data[capUDPStart+6:]) != 0 {
					t.Fatalf("frame %d: plain run's UDP checksum is not zero", i)
				}
				if binary.BigEndian.Uint16(q.data[capUDPStart+6:]) != 0 {
					tagged++
				}
				if p.ts != q.ts || p.orig != q.orig || len(p.data) != len(q.data) {
					t.Fatalf("frame %d: INT run's record header differs from the plain run's", i)
				}
				for j := range p.data {
					if p.data[j] != q.data[j] && j != capIPv4Start+10 && j != capIPv4Start+11 &&
						j != capUDPStart+6 && j != capUDPStart+7 {
						t.Fatalf("frame %d: byte %d is %#02x with INT on, %#02x off", i, j, q.data[j], p.data[j])
					}
				}
			}
			if tagged == 0 {
				t.Fatal("INT run tagged no captured frame")
			}
		})
	}
}
