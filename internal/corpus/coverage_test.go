package corpus

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/coverage"
)

func TestCorpusReplayCoverageFrontier(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)

	frontier := func(workers int) (*Matrix, []byte) {
		m, err := Replay(context.Background(), dir,
			ReplayOptions{Profiles: testProfiles, Workers: workers, Coverage: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Frontier().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	m, serial := frontier(1)

	// Coverage is observe-only: the replay still judges every cell
	// against its coverage-agnostic golden.
	if !m.OK() {
		var buf bytes.Buffer
		m.Render(&buf)
		t.Fatalf("coverage-enabled replay drifted on a pristine corpus:\n%s", buf.String())
	}
	for _, p := range testProfiles {
		rep := m.Coverage[p]
		if rep == nil || rep.Covered == 0 {
			t.Fatalf("profile %s has no merged coverage: %+v", p, rep)
		}
	}

	// frontier.json round-trips through its schema check.
	fr, err := ReadFrontier(serial)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Schema != FrontierSchema || len(fr.Profiles) != len(testProfiles) {
		t.Fatalf("frontier round-trip: %+v", fr)
	}
	merged := fr.Merged()
	for _, p := range testProfiles {
		if merged.Covered < fr.Profiles[p].Covered {
			t.Fatalf("merged frontier (%d) smaller than profile %s (%d)",
				merged.Covered, p, fr.Profiles[p].Covered)
		}
	}

	// The frontier must be byte-identical at any worker count.
	for _, workers := range []int{8, 0} {
		if _, got := frontier(workers); !bytes.Equal(got, serial) {
			t.Errorf("workers=%d frontier.json diverged from serial", workers)
		}
	}

	// Without the option, replay stays coverage-free.
	plain, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Coverage != nil || plain.Frontier() != nil {
		t.Fatal("replay without Coverage produced a frontier")
	}
}

func TestCorpusReplayCoverageArtifacts(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	artDir := t.TempDir()
	m, err := Replay(context.Background(), dir, ReplayOptions{
		Profiles: testProfiles, Coverage: true, ArtifactsDir: artDir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK() {
		t.Fatal("replay drifted")
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, p := range testProfiles {
			raw, err := os.ReadFile(filepath.Join(artDir, e.ID, p, "coverage.json"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := coverage.ReadReport(raw)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.ID, p, err)
			}
			if rep.Covered == 0 {
				t.Fatalf("%s/%s: empty coverage artifact", e.ID, p)
			}
		}
	}
}

func TestReadFrontierRejectsUnknownSchema(t *testing.T) {
	_, err := ReadFrontier([]byte(`{"schema": "lumina-coverage-frontier/9", "profiles": {}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v, want unknown-schema rejection", err)
	}
}

// FuzzReadCoverage feeds bytes down the `lumina trace coverage` path:
// read as a coverage report, else as a corpus frontier, then merged and
// diffed. No input may panic, and whatever is accepted must write, read
// back and write again to the same bytes.
func FuzzReadCoverage(f *testing.F) {
	m := coverage.NewMap()
	m.Record(coverage.SiteAck, coverage.AckOK)
	m.Record(coverage.SiteTimer, coverage.TimerRetry)
	var rep, fr bytes.Buffer
	if err := m.Report().Write(&rep); err != nil {
		f.Fatal(err)
	}
	frontier := &FrontierFile{Schema: FrontierSchema, Profiles: map[string]*coverage.Report{
		"cx4": m.Report(), "spec": coverage.NewMap().Report()}}
	if err := frontier.Write(&fr); err != nil {
		f.Fatal(err)
	}
	f.Add(rep.Bytes())
	f.Add(fr.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var a *coverage.Report
		if r, err := coverage.ReadReport(data); err == nil {
			a = r
			writeStable(t, r, coverage.ReadReport)
		} else if fr, err := ReadFrontier(data); err == nil {
			a = fr.Merged()
			writeStable(t, fr, ReadFrontier)
		} else {
			return
		}
		merged := coverage.MergeReports(a, a)
		coverage.DiffReports(a, merged)
		coverage.DiffReports(nil, a)
	})
}

// writeStable writes v, reads the bytes back and writes them again: both
// writes must agree.
func writeStable[T interface{ Write(io.Writer) error }](t *testing.T, v T, read func([]byte) (T, error)) {
	var first, second bytes.Buffer
	if err := v.Write(&first); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := read(first.Bytes())
	if err != nil {
		t.Fatalf("read back what was written: %v\n%s", err, first.Bytes())
	}
	if err := back.Write(&second); err != nil {
		t.Fatalf("write again: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write → read → write moved bytes:\n%s\n%s", first.Bytes(), second.Bytes())
	}
}

func TestCorpusCoverageCounts(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	counts, err := CoverageCounts(context.Background(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("counts for %d entries, want 2", len(counts))
	}
	for i, c := range counts {
		if c.Covered == 0 || c.Total != coverage.Total() {
			t.Fatalf("entry %s: covered %d/%d", c.ID, c.Covered, c.Total)
		}
		if i > 0 {
			prev := counts[i-1]
			if c.Covered > prev.Covered || (c.Covered == prev.Covered && c.ID < prev.ID) {
				t.Fatalf("ordering violated at %d: %+v after %+v", i, c, prev)
			}
		}
	}
}
