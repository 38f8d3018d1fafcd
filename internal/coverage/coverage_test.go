package coverage

import (
	"bytes"
	"testing"
)

func TestRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < numSites; s++ {
		d := defs[s]
		if d.name == "" {
			t.Fatalf("site %d has no name", s)
		}
		if seen[d.name] {
			t.Fatalf("duplicate site name %q", d.name)
		}
		seen[d.name] = true
		if len(d.transitions) == 0 || len(d.transitions) > 8 {
			t.Fatalf("site %q has %d transitions, want 1..8", d.name, len(d.transitions))
		}
		tseen := map[string]bool{}
		for _, tr := range d.transitions {
			if tseen[tr] {
				t.Fatalf("site %q duplicate transition %q", d.name, tr)
			}
			tseen[tr] = true
		}
		if offsets[s+1]-offsets[s] != len(d.transitions) {
			t.Fatalf("site %q offset span mismatch", d.name)
		}
	}
	if Total() != len(pairKeys) || Total() != len(keyIndex) {
		t.Fatalf("universe size disagreement: Total=%d keys=%d index=%d",
			Total(), len(pairKeys), len(keyIndex))
	}
}

func TestNilMapIsNoOp(t *testing.T) {
	var m *Map
	m.Record(SiteAck, AckOK) // must not panic
	if m.Report() != nil {
		t.Fatal("nil map produced a report")
	}
}

func TestRecordAndReportRoundTrip(t *testing.T) {
	m := NewMap()
	m.Record(SiteAck, AckOK)
	m.Record(SiteAck, AckOK)
	m.Record(SiteRewind, RewindTimeout)
	m.Record(SiteInjectLookup, LookupMiss)
	r := m.Report()
	if r.Schema != Schema || r.Covered != 3 || r.Total != Total() {
		t.Fatalf("report header = %+v", r)
	}
	if len(r.Sites) != int(numSites) {
		t.Fatalf("sites = %d, want %d (all sites listed)", len(r.Sites), numSites)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("report does not round-trip byte-identically")
	}
	var keys []string
	for _, sr := range r.Sites {
		for _, tr := range sr.Covered {
			keys = append(keys, sr.Name+"/"+tr.Name)
		}
	}
	if len(keys) != 3 || keys[0] != "qp.rewind/timeout" || keys[1] != "qp.ack/ack" ||
		keys[2] != "inject.lookup/miss" {
		t.Fatalf("keys = %v (must be in registry order)", keys)
	}
}

func TestRecordInvalidTransitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid transition did not panic")
		}
	}()
	NewMap().Record(SiteETSGrant, 2) // ets.grant has 2 transitions: 0, 1
}

func TestRecordZeroAlloc(t *testing.T) {
	m := NewMap()
	if avg := testing.AllocsPerRun(1000, func() {
		m.Record(SiteAck, AckOK)
		m.Record(SiteETSGrant, ETSGrantWeighted)
		m.Record(SiteInjectLookup, LookupMiss)
	}); avg != 0 {
		t.Fatalf("Record allocates %v/op, want 0", avg)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadReport([]byte(`{"schema":"lumina-int/1"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadReport([]byte(`{not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSetAddReportReturnsFreshOnly(t *testing.T) {
	m := NewMap()
	m.Record(SiteAck, AckOK)
	m.Record(SiteRewind, RewindNak)
	s := NewSet()
	fresh := s.AddReport(m.Report())
	if len(fresh) != 2 || fresh[0] != "qp.rewind/nak" || fresh[1] != "qp.ack/ack" {
		t.Fatalf("fresh = %v", fresh)
	}
	if s.Size() != 2 {
		t.Fatalf("size = %d", s.Size())
	}
	// Same report again: nothing fresh.
	if fresh := s.AddReport(m.Report()); len(fresh) != 0 {
		t.Fatalf("re-add produced fresh pairs %v", fresh)
	}
	// A superset report: only the delta is fresh.
	m.Record(SiteTimer, TimerArm)
	if fresh := s.AddReport(m.Report()); len(fresh) != 1 || fresh[0] != "qp.timer/arm" {
		t.Fatalf("delta fresh = %v", fresh)
	}
	if got := s.Size(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}
}

func TestMergeAndDiffReports(t *testing.T) {
	a := NewMap()
	a.Record(SiteAck, AckOK)
	a.Record(SiteAck, AckNakSeq)
	b := NewMap()
	b.Record(SiteAck, AckOK)
	b.Record(SiteTimer, TimerRetry)

	merged := MergeReports(a.Report(), b.Report())
	if merged.Covered != 3 {
		t.Fatalf("merged covered = %d, want 3", merged.Covered)
	}
	var ackCount uint64
	for _, sr := range merged.Sites {
		if sr.Name != "qp.ack" {
			continue
		}
		for _, tr := range sr.Covered {
			if tr.Name == "ack" {
				ackCount = tr.Count
			}
		}
	}
	if ackCount != 2 {
		t.Fatalf("merged qp.ack/ack count = %d, want summed 2", ackCount)
	}
	if m2 := MergeReports(nil, a.Report()); m2.Covered != 2 {
		t.Fatalf("merge with nil dst covered = %d", m2.Covered)
	}

	d := DiffReports(a.Report(), b.Report())
	if d.CoveredA != 2 || d.CoveredB != 2 {
		t.Fatalf("diff headline = %+v", d)
	}
	if len(d.OnlyA) != 1 || d.OnlyA[0] != "qp.ack/nak-seq" {
		t.Fatalf("OnlyA = %v", d.OnlyA)
	}
	if len(d.OnlyB) != 1 || d.OnlyB[0] != "qp.timer/retry" {
		t.Fatalf("OnlyB = %v", d.OnlyB)
	}
}
