package trace

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
)

// mkRecord builds a trimmed dumper record with embedded mirror metadata.
func mkRecord(seq uint64, ev packet.EventType, ts int64, op packet.Opcode, psn uint32, payload int) dumper.Record {
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
	return dumper.Record{Wire: wire[:trim], Node: int(seq) % 3}
}

func TestReconstructSortsBySeq(t *testing.T) {
	recs := []dumper.Record{
		mkRecord(3, packet.EventNone, 300, packet.OpWriteLast, 12, 512),
		mkRecord(1, packet.EventNone, 100, packet.OpWriteFirst, 10, 1024),
		mkRecord(2, packet.EventDrop, 200, packet.OpWriteMiddle, 11, 1024),
	}
	tr, err := Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Entries {
		if e.Meta.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Meta.Seq)
		}
	}
	if tr.Entries[1].Meta.Event != packet.EventDrop {
		t.Fatal("event metadata lost")
	}
	if tr.Entries[0].Pkt.BTH.PSN != 10 {
		t.Fatal("headers mis-decoded")
	}
	// WRITE_FIRST carries a RETH.
	want := packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize +
		packet.RETHSize + 1024 + packet.ICRCSize
	if tr.Entries[0].OrigLen != want {
		t.Fatalf("OrigLen = %d, want %d", tr.Entries[0].OrigLen, want)
	}
}

func TestIntegrityCheckPasses(t *testing.T) {
	recs := []dumper.Record{
		mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64),
		mkRecord(2, packet.EventNone, 200, packet.OpAcknowledge, 1, 0),
	}
	tr, _ := Reconstruct(recs)
	if err := tr.IntegrityCheck(2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrityCheckDetectsGap(t *testing.T) {
	recs := []dumper.Record{
		mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64),
		mkRecord(3, packet.EventNone, 300, packet.OpWriteOnly, 2, 64),
	}
	tr, _ := Reconstruct(recs)
	err := tr.IntegrityCheck(3, 3)
	ie, ok := err.(*IntegrityError)
	if !ok || ie.Condition != 1 {
		t.Fatalf("err = %v, want condition-1 failure", err)
	}
}

func TestIntegrityCheckDetectsMirrorCountMismatch(t *testing.T) {
	recs := []dumper.Record{mkRecord(1, packet.EventNone, 100, packet.OpWriteOnly, 1, 64)}
	tr, _ := Reconstruct(recs)
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
	recs := []dumper.Record{
		mkRecord(1, packet.EventNone, 10, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventECN, 20, packet.OpWriteLast, 2, 512),
		mkRecord(3, packet.EventNone, 30, packet.OpAcknowledge, 2, 0),
		mkRecord(4, packet.EventNone, 40, packet.OpCNP, 0, 0),
	}
	tr, _ := Reconstruct(recs)
	if got := len(tr.DataPackets()); got != 2 {
		t.Fatalf("DataPackets = %d", got)
	}
	if got := len(tr.Acks()); got != 1 {
		t.Fatalf("Acks = %d", got)
	}
	if got := len(tr.Naks()); got != 1 { // mkRecord sets NAK syndrome on AETH packets
		t.Fatalf("Naks = %d", got)
	}
	if got := len(tr.CNPs()); got != 1 {
		t.Fatalf("CNPs = %d", got)
	}
	if got := len(tr.EventsOfType(packet.EventECN)); got != 1 {
		t.Fatalf("EventsOfType(ECN) = %d", got)
	}
	conns := tr.ByConnection()
	if len(conns) != 1 {
		t.Fatalf("connections = %d", len(conns))
	}
	first, last := tr.Span()
	if first != 10 || last != 40 {
		t.Fatalf("span = %v..%v", first, last)
	}
}

func TestReconstructRejectsGarbage(t *testing.T) {
	if _, err := Reconstruct([]dumper.Record{{Wire: []byte{1, 2, 3}}}); err == nil {
		t.Fatal("garbage record accepted")
	}
	bad := mkRecord(1, packet.EventNone, 10, packet.OpWriteOnly, 1, 64)
	bad.Wire[12], bad.Wire[13] = 0x86, 0xDD // not IPv4
	if _, err := Reconstruct([]dumper.Record{bad}); err == nil {
		t.Fatal("non-IPv4 record accepted")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	recs := []dumper.Record{
		mkRecord(1, packet.EventNone, 1234567890123, packet.OpWriteFirst, 1, 1024),
		mkRecord(2, packet.EventDrop, 1234567890456, packet.OpWriteMiddle, 2, 1024),
	}
	tr, _ := Reconstruct(recs)
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
	if !bytes.Equal(pkts[0].Data, tr.Entries[0].Wire) {
		t.Fatal("data mismatch after round trip")
	}
	if pkts[0].OrigLen != tr.Entries[0].OrigLen {
		t.Fatalf("orig len = %d, want %d", pkts[0].OrigLen, tr.Entries[0].OrigLen)
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
	recs := []dumper.Record{mkRecord(1, packet.EventNone, 1, packet.OpWriteOnly, 1, 64)}
	tr, _ := Reconstruct(recs)
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

func TestThroughputTimeline(t *testing.T) {
	recs := []dumper.Record{
		mkRecord(1, packet.EventNone, 0, packet.OpWriteMiddle, 1, 1024),
		mkRecord(2, packet.EventNone, 500, packet.OpWriteMiddle, 2, 1024),
		mkRecord(3, packet.EventNone, 1500, packet.OpWriteMiddle, 3, 1024),
		mkRecord(4, packet.EventNone, 1600, packet.OpAcknowledge, 3, 0), // not data
	}
	tr, _ := Reconstruct(recs)
	tl := tr.ThroughputTimeline(1000, nil)
	if len(tl) != 2 {
		t.Fatalf("buckets = %d, want 2", len(tl))
	}
	// Bucket 0 holds packets 1,2 (2 × 1066-byte wire), bucket 1 holds 3.
	if tl[0].Gbps <= tl[1].Gbps {
		t.Fatalf("bucket rates %v: first should carry twice the bytes", tl)
	}
	if tl[1].Gbps == 0 {
		t.Fatal("second bucket empty")
	}
	// Filtered timeline: keep nothing → all zero.
	zero := tr.ThroughputTimeline(1000, func(*Entry) bool { return false })
	for _, p := range zero {
		if p.Gbps != 0 {
			t.Fatalf("filtered timeline nonzero: %v", zero)
		}
	}
	if got := tr.ThroughputTimeline(0, nil); got != nil {
		t.Fatal("zero bucket should yield nil")
	}
}

// TestKeyIsInternedPerTrace: Reconstruct formats each address pair of a
// trace once, so Key — called per packet by every analyzer — allocates
// nothing, yet returns exactly the key formatting would: same strings,
// same map-key behaviour, for every pair of an interleaved capture and
// for the reverse direction as a pair of its own.
func TestKeyIsInternedPerTrace(t *testing.T) {
	addrs := []string{"10.0.0.1", "10.0.0.2", "10.0.1.9", "192.168.7.250"}
	var recs []dumper.Record
	for i := 0; i < 64; i++ {
		src, dst := addrs[i%3], addrs[(i/2+1)%4]
		rec := mkRecord(uint64(i+1), packet.EventNone, int64(i), packet.OpWriteMiddle, uint32(i), 64)
		s4, d4 := netip.MustParseAddr(src).As4(), netip.MustParseAddr(dst).As4()
		copy(rec.Wire[packet.EthernetSize+12:], s4[:])
		copy(rec.Wire[packet.EthernetSize+16:], d4[:])
		recs = append(recs, rec)
	}
	tr, err := Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[ConnKey]int{}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		want := ConnKey{Src: e.Pkt.IP.Src.String(), Dst: e.Pkt.IP.Dst.String(), DstQPN: e.Pkt.BTH.DestQP}
		if got := e.Key(); got != want {
			t.Fatalf("entry %d: Key() = %+v, formatting gives %+v", i, got, want)
		}
		byKey[e.Key()]++
		for j := range tr.Entries[:i] {
			o := &tr.Entries[j]
			if e.SameConn(o) != (e.Key() == o.Key()) {
				t.Fatalf("entry %d SameConn(%d) = %v disagrees with the keys %+v, %+v", i, j, e.SameConn(o), e.Key(), o.Key())
			}
			reversed := e.Key().Src == o.Key().Dst && e.Key().Dst == o.Key().Src
			if e.Reverses(o) != reversed {
				t.Fatalf("entry %d Reverses(%d) = %v, keys %+v, %+v", i, j, e.Reverses(o), e.Key(), o.Key())
			}
		}
	}
	if len(byKey) < 6 {
		t.Fatalf("capture holds %d connection keys; the interleaving no longer exercises the table", len(byKey))
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
	// An entry built by hand has no interned pair and still answers.
	bare := Entry{Pkt: tr.Entries[0].Pkt}
	if bare.Key() != tr.Entries[0].Key() {
		t.Fatalf("hand-built entry: Key() = %+v, want %+v", bare.Key(), tr.Entries[0].Key())
	}
}
