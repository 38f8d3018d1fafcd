package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
)

// rawRecord is one pcap record spelled field by field, so a test can
// write headers WritePcap never would.
type rawRecord struct {
	sec, frac, incl, orig uint32
	data                  []byte
}

func rawPcap(magic uint32, recs ...rawRecord) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magic)
	b = le.AppendUint16(b, pcapVersionMaj)
	b = le.AppendUint16(b, pcapVersionMin)
	b = le.AppendUint64(b, 0)
	b = le.AppendUint32(b, 65535)
	b = le.AppendUint32(b, linkTypeEther)
	for _, r := range recs {
		for _, v := range []uint32{r.sec, r.frac, r.incl, r.orig} {
			b = le.AppendUint32(b, v)
		}
		b = append(b, r.data...)
	}
	return b
}

// TestReadPcapShortReads reads valid and invalid captures through
// readers that return less than asked for, or data together with EOF:
// a valid capture must decode to the same packets through each, and an
// invalid one must fail through each.
func TestReadPcapShortReads(t *testing.T) {
	tr, err := Reconstruct([][]dumper.Record{{
		mkRecord(1, packet.EventNone, 1234567890123, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventDrop, 1234567890456, packet.OpAcknowledge, 1, 0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()
	var written []PcapPacket
	for _, e := range tr.Entries {
		written = append(written, PcapPacket{TimestampNs: e.Meta.Timestamp, OrigLen: e.OrigLen(), Data: e.Wire})
	}

	valid := []struct {
		name string
		data []byte
		want []PcapPacket
	}{
		{"header only", rawPcap(pcapMagicNs), nil},
		{"two records", capture, written},
		{"microsecond magic", rawPcap(pcapMagicMicro, rawRecord{1, 500, 4, 60, []byte("abcd")}),
			[]PcapPacket{{TimestampNs: 1_000_500_000, OrigLen: 60, Data: []byte("abcd")}}},
	}
	invalid := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 2}},
		{"bad magic", make([]byte, 24)},
		{"record header cut", capture[:24+8]},
		{"record body cut", capture[:len(capture)-5]},
		{"implausible length", rawPcap(pcapMagicNs, rawRecord{0, 0, 1<<20 + 1, 1<<20 + 1, nil})},
		{"original below captured", rawPcap(pcapMagicNs, rawRecord{0, 0, 4, 3, []byte("abcd")})},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"one byte", iotest.OneByteReader},
		{"data with EOF", iotest.DataErrReader},
	}
	for _, rd := range readers {
		for _, tc := range valid {
			got, err := ReadPcap(rd.wrap(bytes.NewReader(tc.data)))
			if err != nil {
				t.Errorf("%s reader, %s: %v", rd.name, tc.name, err)
			} else if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s reader, %s: got %+v, want %+v", rd.name, tc.name, got, tc.want)
			}
		}
		for _, tc := range invalid {
			if pkts, err := ReadPcap(rd.wrap(bytes.NewReader(tc.data))); err == nil {
				t.Errorf("%s reader, %s: accepted, %d packet(s)", rd.name, tc.name, len(pkts))
			}
		}
	}
}
