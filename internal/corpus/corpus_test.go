package corpus

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
)

// testProfiles keeps corpus tests fast: two models instead of five.
var testProfiles = []string{"cx5", "spec"}

// dropConfig is a small recovered-drop scenario.
func dropConfig() config.Test {
	c := config.Default()
	c.Name = "drop-probe"
	c.Traffic.MessageSize = 2048
	c.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "drop", Iter: 1}}
	return c
}

// ecnConfig is a small ECN-marking scenario (distinct content hash).
func ecnConfig() config.Test {
	c := config.Default()
	c.Name = "ecn-probe"
	c.Traffic.MessageSize = 4096
	c.Traffic.Events = []config.Event{{QPN: 1, PSN: 2, Type: "ecn", Iter: 1}}
	return c
}

func addBoth(t *testing.T, dir string) {
	t.Helper()
	for _, cfg := range []config.Test{dropConfig(), ecnConfig()} {
		if _, added, err := Add(dir, cfg, Meta{Target: "test"},
			RunOptions{Profiles: testProfiles, Workers: 0}); err != nil {
			t.Fatal(err)
		} else if !added {
			t.Fatalf("%s: expected a fresh admission", cfg.Name)
		}
	}
}

func TestCorpusIDIsContentAddressed(t *testing.T) {
	a, err := ID(dropConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Renaming must not change identity; changing behaviourally relevant
	// content must.
	renamed := dropConfig()
	renamed.Name = "other-name"
	if b, _ := ID(renamed); b != a {
		t.Fatalf("rename changed ID: %s vs %s", b, a)
	}
	tweaked := dropConfig()
	tweaked.Traffic.MessageSize = 4096
	if b, _ := ID(tweaked); b == a {
		t.Fatal("content change did not change ID")
	}
	if len(a) != 16 {
		t.Fatalf("ID %q: want 16 hex digits", a)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)

	// Re-admitting the same content must dedup without re-running.
	if _, added, err := Add(dir, dropConfig(), Meta{Target: "test"},
		RunOptions{Profiles: testProfiles}); err != nil {
		t.Fatal(err)
	} else if added {
		t.Fatal("duplicate content was admitted twice")
	}

	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("listed %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if got, _ := ID(e.Config); got != e.ID {
			t.Fatalf("entry %s: stored scenario hashes to %s", e.ID, got)
		}
		if len(e.Expected.Profiles) != len(testProfiles) {
			t.Fatalf("entry %s: %d goldens, want %d", e.ID, len(e.Expected.Profiles), len(testProfiles))
		}
	}

	// A replay on the freshly-read store must reproduce every stored
	// verdict set and digest.
	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK() {
		var buf bytes.Buffer
		m.Render(&buf)
		t.Fatalf("replay drifted on a pristine corpus:\n%s", buf.String())
	}
	if len(m.Rows) != 2 || len(m.Rows[0].Cells) != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", len(m.Rows), len(m.Rows[0].Cells))
	}
}

func TestCorpusReplayMatrixByteIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	render := func(workers int) string {
		m, err := Replay(context.Background(), dir,
			ReplayOptions{Profiles: testProfiles, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{8, 0} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d matrix diverged:\n%s\nvs serial:\n%s", workers, got, serial)
		}
	}
}

func TestCorpusCorruptScenarioReportsDigestDrift(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with one stored scenario: still a valid config, but its
	// content no longer matches the entry's address.
	victim := entries[0]
	path := filepath.Join(dir, victim.ID, "scenario.yaml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "message-size: ", "message-size: 1", 1)
	if tampered == string(data) {
		t.Fatal("tamper produced no change")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK() {
		t.Fatal("replay passed over a tampered entry")
	}
	for _, row := range m.Rows {
		for _, c := range row.Cells {
			want := Pass
			if row.EntryID == victim.ID {
				want = DigestDrift
			}
			if c.Status != want {
				t.Errorf("entry %s profile %s: status %s, want %s", row.EntryID, c.Profile, c.Status, want)
			}
		}
	}
}

func TestCorpusTamperedGoldenDigestReportsDrift(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Add(dir, dropConfig(), Meta{},
		RunOptions{Profiles: testProfiles}); err != nil {
		t.Fatal(err)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, entries[0].ID, "expected.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the first digest's leading hex digit.
	s := string(data)
	i := strings.Index(s, `"summary_sha256": "`) + len(`"summary_sha256": "`)
	flip := byte('0')
	if s[i] == '0' {
		flip = 'f'
	}
	s = s[:i] + string(flip) + s[i+1:]
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	drifted := 0
	for _, row := range m.Rows {
		for _, c := range row.Cells {
			if c.Status == DigestDrift {
				drifted++
			}
		}
	}
	if drifted != 1 {
		var buf bytes.Buffer
		m.Render(&buf)
		t.Fatalf("digest-drift cells = %d, want exactly 1:\n%s", drifted, buf.String())
	}
}

func TestCorpusUnparseableEntryReportsErrorNotPanic(t *testing.T) {
	dir := t.TempDir()
	addBoth(t, dir)
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := entries[1]
	if err := os.WriteFile(filepath.Join(dir, victim.ID, "expected.json"),
		[]byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: testProfiles})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK() {
		t.Fatal("replay passed over an unparseable entry")
	}
	for _, row := range m.Rows {
		for _, c := range row.Cells {
			want := Pass
			if row.EntryID == victim.ID {
				want = Error
			}
			if c.Status != want {
				t.Errorf("entry %s profile %s: status %s, want %s", row.EntryID, c.Profile, c.Status, want)
			}
		}
	}
}

func TestCorpusReplayMissingGoldenProfile(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Add(dir, dropConfig(), Meta{},
		RunOptions{Profiles: []string{"spec"}}); err != nil {
		t.Fatal(err)
	}
	m, err := Replay(context.Background(), dir, ReplayOptions{Profiles: []string{"spec", "cx4"}})
	if err != nil {
		t.Fatal(err)
	}
	cells := m.Rows[0].Cells
	if cells[0].Status != Pass {
		t.Fatalf("spec cell = %s, want pass (%s)", cells[0].Status, cells[0].Detail)
	}
	if cells[1].Status != Error || !strings.Contains(cells[1].Detail, "no golden") {
		t.Fatalf("cx4 cell = %s (%s), want error/no golden", cells[1].Status, cells[1].Detail)
	}
}
