package trace

import (
	"bytes"
	"net/netip"
	"testing"
	"unsafe"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
)

// mkRecord builds a trimmed dumper record with embedded mirror metadata.
func mkRecord(seq uint64, ev packet.EventType, ts int64, op packet.Opcode, psn uint32, payload int) []byte {
	p := &packet.Packet{
		Eth: packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		},
		UDP: packet.UDP{SrcPort: 55555, DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: op, DestQP: 0x77, PSN: psn},
	}
	if op.HasAETH() {
		p.AETH = packet.AETH{Syndrome: packet.NakPSNSeqError, MSN: 1}
	}
	if payload > 0 {
		p.Payload = make([]byte, payload)
	}
	wire := p.Serialize()
	packet.EmbedMirrorMeta(wire, packet.MirrorMeta{Seq: seq, Event: ev, Timestamp: ts})
	trim := 128
	if trim > len(wire) {
		trim = len(wire)
	}
	return wire[:trim]
}

// logOf is a dumper log holding a serviced copy of each record, in order.
func logOf(recs ...[]byte) dumper.Log {
	var l dumper.Log
	for _, r := range recs {
		l.Append(r)
	}
	return l
}

func TestReconstructSortsBySeq(t *testing.T) {
	recs := [][]byte{
		mkRecord(3, packet.EventNone, 300, packet.OpWriteLast, 12, 512),
		mkRecord(1, packet.EventNone, 100, packet.OpWriteFirst, 10, 1024),
		mkRecord(2, packet.EventDrop, 200, packet.OpWriteMiddle, 11, 1024),
	}
	tr, err := Reconstruct([]dumper.Log{logOf(recs...)})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Entries {
		if e.Meta().Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Meta().Seq)
		}
	}
	if tr.Entries[1].Meta().Event != packet.EventDrop {
		t.Fatal("event metadata lost")
	}
	if tr.Entries[0].PSN() != 10 {
		t.Fatal("headers mis-decoded")
	}
	// WRITE_FIRST carries a RETH.
	want := packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize +
		packet.RETHSize + 1024 + packet.ICRCSize
	if tr.Entries[0].OrigLen() != want {
		t.Fatalf("OrigLen = %d, want %d", tr.Entries[0].OrigLen(), want)
	}
}

func TestIntegrityCheckPasses(t *testing.T) {
	recs := [][]byte{
		mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64),
		mkRecord(2, packet.EventNone, 200, packet.OpAcknowledge, 1, 0),
	}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	if err := tr.IntegrityCheck(2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrityCheckDetectsGap(t *testing.T) {
	recs := [][]byte{
		mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64),
		mkRecord(3, packet.EventNone, 300, packet.OpWriteOnly, 2, 64),
	}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	err := tr.IntegrityCheck(3, 3)
	ie, ok := err.(*IntegrityError)
	if !ok || ie.Condition != 1 {
		t.Fatalf("err = %v, want condition-1 failure", err)
	}
}

func TestIntegrityCheckDetectsMirrorCountMismatch(t *testing.T) {
	recs := [][]byte{mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64)}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	err := tr.IntegrityCheck(5, 1)
	ie, ok := err.(*IntegrityError)
	if !ok || ie.Condition != 2 {
		t.Fatalf("err = %v, want condition-2 failure", err)
	}
	err = tr.IntegrityCheck(1, 9)
	ie, ok = err.(*IntegrityError)
	if !ok || ie.Condition != 3 {
		t.Fatalf("err = %v, want condition-3 failure", err)
	}
}

func TestFilters(t *testing.T) {
	recs := [][]byte{
		mkRecord(1, packet.EventNone, 10, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventECN, 20, packet.OpWriteLast, 2, 512),
		mkRecord(3, packet.EventNone, 30, packet.OpAcknowledge, 2, 0),
		mkRecord(4, packet.EventNone, 40, packet.OpCNP, 0, 0),
	}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	var data, acks, naks, cnps, ecns int
	for i := range tr.Entries {
		e := &tr.Entries[i]
		switch op := e.Opcode(); {
		case op.IsData():
			data++
		case op.IsAck():
			acks++
			if e.AETH().IsNak() { // mkRecord sets NAK syndrome on AETH packets
				naks++
			}
		case op.IsCNP():
			cnps++
		}
		if e.Meta().Event == packet.EventECN {
			ecns++
		}
	}
	if data != 2 || acks != 1 || naks != 1 || cnps != 1 || ecns != 1 {
		t.Fatalf("data %d, acks %d, naks %d, CNPs %d, ECN events %d; want 2, 1, 1, 1, 1", data, acks, naks, cnps, ecns)
	}
	first, last := tr.Span()
	if first != 10 || last != 40 {
		t.Fatalf("span = %v..%v", first, last)
	}
}

func TestReconstructRejectsGarbage(t *testing.T) {
	if _, err := Reconstruct([]dumper.Log{logOf([]byte{1, 2, 3})}); err == nil {
		t.Fatal("garbage record accepted")
	}
	bad := mkRecord(1, packet.EventNone, 10, packet.OpWriteOnly, 1, 64)
	bad[12], bad[13] = 0x86, 0xDD // not IPv4
	if _, err := Reconstruct([]dumper.Log{logOf(bad)}); err == nil {
		t.Fatal("non-IPv4 record accepted")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	recs := [][]byte{
		mkRecord(1, packet.EventNone, 1234567890123, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventDrop, 1234567890456, packet.OpWriteMiddle, 2, 1024),
	}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("read %d packets", len(pkts))
	}
	if pkts[0].TimestampNs != 1234567890123 {
		t.Fatalf("ts = %d", pkts[0].TimestampNs)
	}
	if !bytes.Equal(pkts[0].Data, tr.Entries[0].Bytes()) {
		t.Fatal("data mismatch after round trip")
	}
	if pkts[0].OrigLen != tr.Entries[0].OrigLen() {
		t.Fatalf("orig len = %d, want %d", pkts[0].OrigLen, tr.Entries[0].OrigLen())
	}
}

func TestReadPcapRejectsBadMagic(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
	if _, err := ReadPcap(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadPcapTruncatedRecord(t *testing.T) {
	recs := [][]byte{mkRecord(1, packet.EventNone, 1, packet.OpWriteOnly, 1, 64)}
	tr, _ := Reconstruct([]dumper.Log{logOf(recs...)})
	var buf bytes.Buffer
	tr.WritePcap(&buf)
	data := buf.Bytes()
	if _, err := ReadPcap(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestEmptyTracePcap(t *testing.T) {
	tr := &Trace{}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(&buf)
	if err != nil || len(pkts) != 0 {
		t.Fatalf("pkts=%v err=%v", pkts, err)
	}
	if err := tr.IntegrityCheck(0, 0); err != nil {
		t.Fatalf("empty trace integrity: %v", err)
	}
}

// TestKeyNamesTheHeaderAddresses: Key — called per packet by every
// analyzer — is the entry's header addresses and destination QP, for
// every pair of an interleaved capture and for the reverse direction as
// a pair of its own, and allocates nothing.
func TestKeyNamesTheHeaderAddresses(t *testing.T) {
	addrs := []string{"10.0.0.1", "10.0.0.2", "10.0.1.9", "192.168.7.250"}
	var recs [][]byte
	for i := 0; i < 64; i++ {
		src, dst := addrs[i%3], addrs[(i/2+1)%4]
		rec := mkRecord(uint64(i+1), packet.EventNone, int64(i), packet.OpWriteMiddle, uint32(i), 64)
		s4, d4 := netip.MustParseAddr(src).As4(), netip.MustParseAddr(dst).As4()
		copy(rec[packet.EthernetSize+12:], s4[:])
		copy(rec[packet.EthernetSize+16:], d4[:])
		recs = append(recs, rec)
	}
	tr, err := Reconstruct([]dumper.Log{logOf(recs...)})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[ConnKey]int{}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		want := ConnKey{Src: netip.MustParseAddr(addrs[i%3]), Dst: netip.MustParseAddr(addrs[(i/2+1)%4]), DstQPN: 0x77}
		if got := e.Key(); got != want {
			t.Fatalf("entry %d: Key() = %+v, its record was built with %+v", i, got, want)
		}
		byKey[e.Key()]++
		for j := range tr.Entries[:i] {
			o := &tr.Entries[j]
			reversed := e.Key().Src == o.Key().Dst && e.Key().Dst == o.Key().Src
			if e.Reverses(o) != reversed {
				t.Fatalf("entry %d Reverses(%d) = %v, keys %+v, %+v", i, j, e.Reverses(o), e.Key(), o.Key())
			}
		}
	}
	if len(byKey) < 6 {
		t.Fatalf("capture holds %d connection keys; the interleaving no longer mixes directions", len(byKey))
	}
	var sink ConnKey
	if avg := testing.AllocsPerRun(10, func() {
		for i := range tr.Entries {
			sink = tr.Entries[i].Key()
		}
	}); avg != 0 {
		t.Fatalf("Key allocates on a reconstructed trace: %.1f allocs per pass", avg)
	}
	_ = sink
}

// TestEntryShape pins the sizes this package and the dumper were cut to
// on 64-bit platforms: an entry is a View, one slice of captured bytes,
// and nothing beside it.
func TestEntryShape(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Entry{}); n != 24 {
		t.Errorf("trace.Entry is %d bytes, want 24", n)
	}
}
