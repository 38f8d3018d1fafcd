package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/packet"
)

// reconstructReference is the specification Reconstruct is held to:
// decode every record in input order, failing at the first bad one, then
// stable-sort the entries by mirror sequence number.
func reconstructReference(recs []dumper.Record) (*Trace, error) {
	tr := &Trace{Entries: make([]Entry, 0, len(recs))}
	for i, r := range recs {
		meta, ok := packet.ExtractMirrorMeta(r.Wire)
		if !ok {
			return nil, fmt.Errorf("trace: record %d too short for mirror metadata", i)
		}
		var pkt packet.Packet
		origLen, err := packet.DecodeHeaders(r.Wire, &pkt)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %v", i, err)
		}
		tr.Entries = append(tr.Entries, Entry{
			Meta: meta, Pkt: pkt, OrigLen: origLen, Wire: r.Wire,
			Node: r.Node, Core: r.Core,
		})
	}
	sort.SliceStable(tr.Entries, func(i, j int) bool {
		return tr.Entries[i].Meta.Seq < tr.Entries[j].Meta.Seq
	})
	return tr, nil
}

// recordsFor builds one record per sequence number, in the given order.
// Core carries the input position, so records sharing a sequence number
// stay distinguishable and a stability slip shows in the comparison.
func recordsFor(seqs []uint64) []dumper.Record {
	ops := []packet.Opcode{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLast, packet.OpAcknowledge}
	recs := make([]dumper.Record, len(seqs))
	for i, seq := range seqs {
		recs[i] = mkRecord(seq, packet.EventType(i%3), int64(seq)*10, ops[i%len(ops)], uint32(i), 64*(i%4))
		recs[i].Core = i
	}
	return recs
}

// TestReconstructMatchesStableSort checks the merge against the
// reference on the input shapes that stress it: already sorted, reversed
// (every record its own run), shuffled, duplicate-heavy, gapped, a few
// long interleaved runs (what a dumper pool produces) and hundreds of
// two-record runs.
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

	// Eight cores, each holding an increasing subsequence of 1..800.
	cores := make([][]uint64, 8)
	for seq := uint64(1); seq <= 800; seq++ {
		c := rng.Intn(len(cores))
		cores[c] = append(cores[c], seq)
	}
	var perCore []uint64
	for _, c := range cores {
		perCore = append(perCore, c...)
	}

	cases := map[string][]uint64{
		"empty":      nil,
		"single":     {7},
		"sorted":     iota64(300, func(i int) uint64 { return uint64(i + 1) }),
		"reversed":   iota64(300, func(i int) uint64 { return uint64(300 - i) }),
		"shuffled":   shuffled,
		"duplicates": iota64(400, func(int) uint64 { return uint64(rng.Intn(12)) }),
		"all-equal":  iota64(100, func(int) uint64 { return 5 }),
		"gapped":     iota64(300, func(int) uint64 { return uint64(rng.Int63n(1 << 40)) }),
		"per-core":   perCore,
		"short-runs": iota64(600, func(i int) uint64 { return uint64(i%2) + uint64(rng.Intn(50)) }),
	}
	for name, seqs := range cases {
		recs := recordsFor(seqs)
		want, err := reconstructReference(recs)
		if err != nil {
			t.Fatalf("%s: reference failed: %v", name, err)
		}
		got, err := Reconstruct(recs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The reference's entries carry no interned addresses, so their
		// Key formats them: the specification the interned form must meet.
		for i := range got.Entries {
			if i < len(want.Entries) && got.Entries[i].Key() != want.Entries[i].Key() {
				t.Fatalf("%s: entry %d has interned key %+v, formatted key %+v", name, i, got.Entries[i].Key(), want.Entries[i].Key())
			}
			got.Entries[i].addrs = nil
		}
		if !reflect.DeepEqual(got.Entries, want.Entries) {
			for i := range want.Entries {
				if !reflect.DeepEqual(got.Entries[i], want.Entries[i]) {
					t.Fatalf("%s: entry %d is record %d (seq %d), reference has record %d (seq %d)", name, i,
						got.Entries[i].Core, got.Entries[i].Meta.Seq, want.Entries[i].Core, want.Entries[i].Meta.Seq)
				}
			}
			t.Fatalf("%s: entries differ from the reference", name)
		}
	}
}

// TestReconstructReportsFirstBadRecord plants records that fail either
// check — too short for the mirror metadata, long enough for it but not
// for the headers, or undecodable — at every pair of positions of a
// shuffled capture, and requires the reference's error: the same record
// index, the same message.
func TestReconstructReportsFirstBadRecord(t *testing.T) {
	notIPv4 := mkRecord(9, packet.EventNone, 90, packet.OpWriteOnly, 9, 64)
	notIPv4.Wire[12], notIPv4.Wire[13] = 0x86, 0xDD
	bad := []dumper.Record{
		{Wire: []byte{1, 2, 3}},  // no mirror metadata
		{Wire: make([]byte, 40)}, // metadata, truncated headers
		notIPv4,                  // metadata, undecodable
		{Wire: mkRecord(4, packet.EventNone, 40, packet.OpWriteFirst, 4, 0).Wire[:60]}, // metadata, truncated RETH
	}
	seqs := []uint64{5, 1, 4, 2, 8, 3, 7, 6}
	for a, first := range bad {
		for b, second := range bad {
			for i := 0; i <= len(seqs); i++ {
				for j := i; j <= len(seqs); j++ {
					recs := recordsFor(seqs)
					recs = append(recs[:j:j], append([]dumper.Record{second}, recs[j:]...)...)
					recs = append(recs[:i:i], append([]dumper.Record{first}, recs[i:]...)...)
					_, want := reconstructReference(recs)
					_, got := Reconstruct(recs)
					if want == nil || got == nil || got.Error() != want.Error() {
						t.Fatalf("bad records %d@%d and %d@%d: error %v, reference %v", a, i, b, j+1, got, want)
					}
				}
			}
		}
	}
}
