package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Classic pcap constants. We write the nanosecond-resolution variant
// (magic 0xA1B23C4D) because the injector's timestamps are nanoseconds.
const (
	pcapMagicNs    = 0xA1B23C4D
	pcapMagicMicro = 0xA1B2C3D4
	pcapVersionMaj = 2
	pcapVersionMin = 4
	linkTypeEther  = 1
)

// pcapBufSize is WritePcap's write buffer. A record is a hundred-odd
// bytes, so an unbuffered capture costs two system calls per packet.
const pcapBufSize = 64 << 10

// WritePcap serializes the trace as a classic pcap capture. Each
// record's timestamp is the switch ingress timestamp; captured length is
// the trimmed length, original length the wire length. Output is
// buffered: w receives writes of pcapBufSize (a *bufio.Writer at least
// that large is used as it is) and the final flush's error is returned.
func (t *Trace) WritePcap(w io.Writer) error {
	le := binary.LittleEndian
	bw := bufio.NewWriterSize(w, pcapBufSize)
	hdr := bw.AvailableBuffer()
	hdr = le.AppendUint32(hdr, pcapMagicNs)
	hdr = le.AppendUint16(hdr, pcapVersionMaj)
	hdr = le.AppendUint16(hdr, pcapVersionMin)
	hdr = le.AppendUint64(hdr, 0)     // thiszone, sigfigs
	hdr = le.AppendUint32(hdr, 65535) // snaplen
	hdr = le.AppendUint32(hdr, linkTypeEther)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for i := range t.Entries {
		e := &t.Entries[i]
		ts := e.Meta.Timestamp
		rec := bw.AvailableBuffer()
		rec = le.AppendUint32(rec, uint32(ts/1e9))
		rec = le.AppendUint32(rec, uint32(ts%1e9))
		rec = le.AppendUint32(rec, uint32(len(e.Wire)))
		rec = le.AppendUint32(rec, uint32(e.OrigLen))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		if _, err := bw.Write(e.Wire); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PcapPacket is one record read back from a pcap file.
type PcapPacket struct {
	TimestampNs int64
	OrigLen     int
	Data        []byte
}

// ReadPcap parses a classic pcap capture (both µs and ns magic, little
// endian — the variant WritePcap produces, plus the common tcpdump
// output for interoperability).
func ReadPcap(r io.Reader) ([]PcapPacket, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: pcap header: %w", err)
	}
	le := binary.LittleEndian
	magic := le.Uint32(hdr[0:4])
	var nsScale int64
	switch magic {
	case pcapMagicNs:
		nsScale = 1
	case pcapMagicMicro:
		nsScale = 1000
	default:
		return nil, fmt.Errorf("trace: unsupported pcap magic %#x", magic)
	}
	var out []PcapPacket
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			// A partial record header means the file was cut mid-record:
			// only EOF exactly on a record boundary is a complete capture.
			return nil, fmt.Errorf("trace: truncated pcap: partial header for record %d: %w",
				len(out), err)
		}
		sec := int64(le.Uint32(rec[0:4]))
		frac := int64(le.Uint32(rec[4:8]))
		incl := le.Uint32(rec[8:12])
		orig := le.Uint32(rec[12:16])
		if incl > 1<<20 {
			return nil, fmt.Errorf("trace: invalid pcap: record %d claims implausible length %d",
				len(out), incl)
		}
		if orig < incl {
			return nil, fmt.Errorf("trace: invalid pcap: record %d original length %d smaller than captured %d",
				len(out), orig, incl)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("trace: truncated pcap: record %d body cut short (want %d bytes): %w",
				len(out), incl, err)
		}
		out = append(out, PcapPacket{
			TimestampNs: sec*1e9 + frac*nsScale,
			OrigLen:     int(orig),
			Data:        data,
		})
	}
}
