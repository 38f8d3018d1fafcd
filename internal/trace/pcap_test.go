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
	tr, err := Reconstruct([]dumper.Log{logOf(
		mkRecord(1, packet.EventNone, 1234567890123, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventDrop, 1234567890456, packet.OpAcknowledge, 1, 0),
	)})
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
		written = append(written, PcapPacket{TimestampNs: e.Meta().Timestamp, OrigLen: e.OrigLen(), Data: e.Bytes()})
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

// TestFromPcapKeepsLargeRecords reads captures holding one record of
// 65 535, 65 536 or 1 MiB bytes, the largest ReadPcap accepts, through
// FromPcap as `lumina trace` does. A record whose headers decode is one
// entry holding every one of its bytes; a zero-filled one, or the same
// record behind a good one, fails with the message naming its index.
// No length may be cut to fit a narrower record header.
func TestFromPcapKeepsLargeRecords(t *testing.T) {
	good := mkRecord(7, packet.EventNone, 99, packet.OpWriteOnly, 3, 64)
	small := mkRecord(6, packet.EventNone, 98, packet.OpWriteOnly, 2, 64)
	for _, n := range []int{65535, 65536, 1 << 20} {
		wire := make([]byte, n)
		copy(wire, good)
		tr, err := FromPcap(bytes.NewReader(rawPcap(pcapMagicNs, rawRecord{0, 99, uint32(n), uint32(n), wire})))
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if len(tr.Entries) != 1 {
			t.Fatalf("%d bytes: %d entries", n, len(tr.Entries))
		}
		e := &tr.Entries[0]
		if want := (packet.MirrorMeta{Seq: 7, Timestamp: 99}); e.Meta() != want || !bytes.Equal(e.Bytes(), wire) {
			t.Errorf("%d bytes: entry %+v of %d bytes, want %+v holding all %d", n, e.Meta(), len(e.Bytes()), want, n)
		}
		if e.OrigLen() != 138 || e.PSN() != 3 {
			t.Errorf("%d bytes: OrigLen %d, PSN %d, want 138 and 3", n, e.OrigLen(), e.PSN())
		}

		zeros := make([]byte, n)
		for _, c := range []struct {
			recs []rawRecord
			want string
		}{
			{[]rawRecord{{0, 1, uint32(n), uint32(n), zeros}}, "trace: record 0: packet: not IPv4"},
			{[]rawRecord{{0, 1, uint32(len(small)), uint32(len(small)), small}, {0, 2, uint32(n), uint32(n), zeros}},
				"trace: record 1: packet: not IPv4"},
		} {
			if _, err := FromPcap(bytes.NewReader(rawPcap(pcapMagicNs, c.recs...))); err == nil || err.Error() != c.want {
				t.Errorf("%d zero bytes after %d records: error %v, want %q", n, len(c.recs)-1, err, c.want)
			}
		}
	}
	_, err := FromPcap(bytes.NewReader(rawPcap(pcapMagicNs, rawRecord{0, 0, 1<<20 + 1, 1<<20 + 1, make([]byte, 1<<20+1)})))
	if want := "trace: invalid pcap: record 0 claims implausible length 1048577"; err == nil || err.Error() != want {
		t.Errorf("1 MiB + 1: error %v, want %q", err, want)
	}
}
