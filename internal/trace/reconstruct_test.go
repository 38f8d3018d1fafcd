package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
)

// reconstructReference is the specification Reconstruct is held to:
// parse every record in input order, failing at the first bad one, then
// stable-sort the records by mirror sequence number. It keeps each
// record's metadata as ExtractMirrorMeta read it, so an Entry whose
// Meta decodes anything else differs from it.
func reconstructReference(recs [][]byte) ([]refEntry, error) {
	out := make([]refEntry, 0, len(recs))
	for i, r := range recs {
		meta, ok := packet.ExtractMirrorMeta(r)
		if !ok {
			return nil, fmt.Errorf("trace: record %d too short for mirror metadata", i)
		}
		if _, err := packet.ParseHeaders(r); err != nil {
			return nil, fmt.Errorf("trace: record %d: %v", i, err)
		}
		out = append(out, refEntry{meta, r})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].meta.Seq < out[j].meta.Seq })
	return out, nil
}

// refEntry is one record of the reference's trace: its metadata and
// its bytes.
type refEntry struct {
	meta packet.MirrorMeta
	wire []byte
}

// recordsFor builds one record per sequence number, in the given order.
// Each record's bytes have their own backing array, so records sharing a
// sequence number stay distinguishable and a stability slip shows in the
// comparison.
func recordsFor(seqs []uint64) [][]byte {
	ops := []packet.Opcode{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLast, packet.OpAcknowledge}
	recs := make([][]byte, len(seqs))
	for i, seq := range seqs {
		recs[i] = mkRecord(seq, packet.EventType(i%3), int64(seq)*10, ops[i%len(ops)], uint32(i), 64*(i%4))
	}
	return recs
}

// randomCuts splits recs into the contents of logs at random points,
// empty logs included, as a dumper pool's nodes split one capture.
func randomCuts(rng *rand.Rand, recs [][]byte) [][][]byte {
	var segs [][][]byte
	for len(recs) > 0 || rng.Intn(3) == 0 {
		n := rng.Intn(len(recs) + 1)
		if rng.Intn(2) == 0 {
			n = min(n, rng.Intn(4)) // short and empty logs
		}
		segs = append(segs, recs[:n:n])
		recs = recs[n:]
	}
	return segs
}

// badRecords fails Reconstruct each in its own way: too short for the
// mirror metadata, long enough for it but not for the headers, not
// IPv4, or a RETH cut short.
func badRecords() [][]byte {
	notIPv4 := mkRecord(9, packet.EventNone, 90, packet.OpWriteOnly, 9, 64)
	notIPv4[12], notIPv4[13] = 0x86, 0xDD
	return [][]byte{
		{1, 2, 3},        // no mirror metadata
		make([]byte, 40), // metadata, truncated headers
		notIPv4,          // metadata, undecodable
		mkRecord(4, packet.EventNone, 40, packet.OpWriteFirst, 4, 0)[:60], // metadata, truncated RETH
	}
}

// logsOf writes each segment into a log of its own and reads the logs
// back, in order, record by record: the records Reconstruct reads, which
// must be the segments' bytes.
func logsOf(t *testing.T, segs [][][]byte) ([]dumper.Log, [][]byte) {
	t.Helper()
	logs := make([]dumper.Log, len(segs))
	var recs [][]byte
	for i, seg := range segs {
		logs[i] = logOf(seg...)
		c := logs[i].Cursor()
		for wire, more := c.Next(); more; wire, more = c.Next() {
			recs = append(recs, wire)
		}
	}
	want := slices.Concat(segs...)
	if !slices.EqualFunc(recs, want, bytes.Equal) {
		t.Fatalf("the logs read back %d records, not the %d written", len(recs), len(want))
	}
	return logs, recs
}

// checkAgainstReference writes each segment into a log, runs Reconstruct
// on the logs and requires exactly the reference's result over their
// records in order: the same entries in the same order, each viewing the
// very bytes of the record the reference placed there, or the same
// error text.
func checkAgainstReference(t *testing.T, name string, segs [][][]byte) {
	t.Helper()
	logs, recs := logsOf(t, segs)
	want, werr := reconstructReference(recs)
	got, err := Reconstruct(logs)
	if werr != nil || err != nil {
		if werr == nil || err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: error %v, reference %v", name, err, werr)
		}
		return
	}
	if len(got.Entries) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", name, len(got.Entries), len(want))
	}
	for i := range got.Entries {
		g, w := &got.Entries[i], &want[i]
		gw, ww := g.Bytes(), w.wire
		if g.Meta() != w.meta || len(gw) != len(ww) || unsafe.SliceData(gw) != unsafe.SliceData(ww) {
			t.Fatalf("%s: entry %d holds record %d (%+v), reference has record %d (%+v)", name, i,
				recordIndex(recs, gw), g.Meta(), recordIndex(recs, ww), w.meta)
		}
	}
}

// recordIndex returns the position in recs of the record whose bytes
// wire is, or -1.
func recordIndex(recs [][]byte, wire []byte) int {
	return slices.IndexFunc(recs, func(r []byte) bool { return unsafe.SliceData(r) == unsafe.SliceData(wire) })
}

// TestReconstructMatchesStableSort checks the merge against the
// reference on the input shapes that stress it: already sorted, reversed
// (every record its own run), shuffled, duplicate-heavy, gapped, a few
// long interleaved runs and hundreds of two-record runs, each as one log
// and cut into logs at random. A dumper pool's shape, one ascending log
// per node, and a run that goes on across a log boundary are checked as
// such.
func TestReconstructMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	iota64 := func(n int, f func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	shuffled := iota64(500, func(i int) uint64 { return uint64(i + 1) })
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	// Four nodes, each holding an increasing subsequence of 1..800.
	nodes := make([][]uint64, 4)
	for seq := uint64(1); seq <= 800; seq++ {
		n := rng.Intn(len(nodes))
		nodes[n] = append(nodes[n], seq)
	}
	var pool [][][]byte
	for _, seqs := range nodes {
		pool = append(pool, recordsFor(seqs))
	}
	checkAgainstReference(t, "pool", pool)
	sorted := recordsFor(iota64(6, func(i int) uint64 { return uint64(i + 1) }))
	checkAgainstReference(t, "run across logs", [][][]byte{nil, sorted[:2], nil, sorted[2:3], sorted[3:]})

	cases := map[string][]uint64{
		"empty":      nil,
		"single":     {7},
		"sorted":     iota64(300, func(i int) uint64 { return uint64(i + 1) }),
		"reversed":   iota64(300, func(i int) uint64 { return uint64(300 - i) }),
		"shuffled":   shuffled,
		"duplicates": iota64(400, func(int) uint64 { return uint64(rng.Intn(12)) }),
		"all-equal":  iota64(100, func(int) uint64 { return 5 }),
		"gapped":     iota64(300, func(int) uint64 { return uint64(rng.Int63n(1 << 40)) }),
		"per-node":   slices.Concat(nodes...),
		"short-runs": iota64(600, func(i int) uint64 { return uint64(i%2) + uint64(rng.Intn(50)) }),
	}
	for name, seqs := range cases {
		recs := recordsFor(seqs)
		if _, err := reconstructReference(recs); err != nil {
			t.Fatalf("%s: reference failed: %v", name, err)
		}
		checkAgainstReference(t, name, [][][]byte{recs})
		for k := 0; k < 8; k++ {
			checkAgainstReference(t, fmt.Sprintf("%s cut %d", name, k), randomCuts(rng, recs))
		}
	}
}

// TestReconstructReportsFirstBadRecord plants records that fail either
// check — too short for the mirror metadata, long enough for it but not
// for the headers, or undecodable — at every pair of positions of a
// shuffled capture, written into three logs cut at the planted records,
// and requires the reference's error: the same record index across the
// logs, the same message.
func TestReconstructReportsFirstBadRecord(t *testing.T) {
	bad := badRecords()
	seqs := []uint64{5, 1, 4, 2, 8, 3, 7, 6}
	for a, first := range bad {
		for b, second := range bad {
			for i := 0; i <= len(seqs); i++ {
				for j := i; j <= len(seqs); j++ {
					recs := recordsFor(seqs)
					recs = slices.Insert(recs, j, second)
					recs = slices.Insert(recs, i, first)
					logs, read := logsOf(t, [][][]byte{recs[:i], recs[i:j], recs[j:]})
					_, want := reconstructReference(read)
					_, got := Reconstruct(logs)
					if want == nil || got == nil || got.Error() != want.Error() {
						t.Fatalf("bad records %d@%d and %d@%d: error %v, reference %v", a, i, b, j+1, got, want)
					}
				}
			}
		}
	}
}

// FuzzReconstructSegments holds Reconstruct to the reference on inputs
// the fuzzer cuts into logs. Each byte is one step: 0xFF ends the
// current log (two in a row leave an empty one), 0xFE appends a bad
// record of the kind the next byte picks, and any other byte appends a
// record with that sequence number. Results must match the reference
// over the logs' records in order, error text included.
func FuzzReconstructSegments(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 4, 5, 6})             // a run across logs
	f.Add([]byte{3, 2, 0xFF, 0xFF, 1, 0xFF, 0, 0})    // empty logs, reversed
	f.Add([]byte{1, 4, 0xFF, 2, 5, 0xFF, 3, 6})       // interleaved nodes
	f.Add([]byte{5, 5, 0xFF, 5, 0xFE, 2, 0xFF, 1, 7}) // ties, a bad record
	f.Add([]byte{0xFE, 0, 0xFF, 0xFE, 3})
	bad := badRecords()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		segs := [][][]byte{nil}
		ops := []packet.Opcode{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLast, packet.OpAcknowledge}
		n := 0
		for k := 0; k < len(data); k++ {
			var r []byte
			switch b := data[k]; {
			case b == 0xFF:
				segs = append(segs, nil)
				continue
			case b == 0xFE && k+1 < len(data):
				k++
				r = bad[int(data[k])%len(bad)]
			default:
				r = mkRecord(uint64(b), packet.EventType(n%3), int64(b)*10, ops[n%len(ops)], uint32(n), 64*(n%4))
			}
			n++
			last := len(segs) - 1
			segs[last] = append(segs[last], r)
		}
		checkAgainstReference(t, fmt.Sprintf("%x", data), segs)
	})
}
