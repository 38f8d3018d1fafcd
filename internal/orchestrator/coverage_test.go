package orchestrator

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/coverage"
)

func coverageOpts() Options {
	opts := DefaultOptions()
	opts.Telemetry = true
	opts.Lineage = true
	opts.Coverage = true
	return opts
}

func TestCoverageReportEndToEnd(t *testing.T) {
	rep, err := Run(lineageCfg(), coverageOpts())
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Coverage
	if cr == nil {
		t.Fatal("Options.Coverage set but Report.Coverage is nil")
	}
	if cr.Schema != coverage.Schema {
		t.Fatalf("schema = %q, want %q", cr.Schema, coverage.Schema)
	}
	if cr.Total != coverage.Total() {
		t.Fatalf("total = %d, want the %d-pair universe", cr.Total, coverage.Total())
	}
	if cr.Covered == 0 || cr.Covered > cr.Total {
		t.Fatalf("covered = %d of %d", cr.Covered, cr.Total)
	}
	// The scenario's known behaviour must light up its sites: QPs reach
	// RTS, traffic grants, lookups hit (two installed rules) and miss,
	// the drop and ECN actions fire, mirrors spray.
	want := map[string]bool{
		"qp.state/rts":        true,
		"ets.grant/weighted":  true,
		"inject.lookup/hit":   true,
		"inject.lookup/miss":  true,
		"inject.action/drop":  true,
		"inject.action/ecn":   true,
		"inject.mirror/spray": true,
		"qp.timer/arm":        true,
	}
	got := map[string]bool{}
	for _, sr := range cr.Sites {
		for _, tr := range sr.Covered {
			got[sr.Name+"/"+tr.Name] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected covered pair %s missing (covered: %v)", k, got)
		}
	}
}

func TestCoverageArtifactRoundTrips(t *testing.T) {
	rep, err := Run(lineageCfg(), coverageOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "coverage.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := coverage.ReadReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Covered != rep.Coverage.Covered || got.Total != rep.Coverage.Total {
		t.Fatalf("coverage.json round-trip mismatch: %+v", got)
	}
	var rendered bytes.Buffer
	if err := got.Write(&rendered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rendered.Bytes()) {
		t.Fatal("coverage.json is not canonical: re-rendering the parsed report changed bytes")
	}
}

// Coverage is observe-only: recording increments counters and nothing
// else, so summary.json — the artifact corpus goldens digest — stays
// byte-identical with coverage on and off, and the reconstructed trace
// tells the same packet story.
func TestCoverageIsObserveOnly(t *testing.T) {
	cfg := lineageCfg()
	plainRep, plain := runArtifacts(t, cfg)

	rep, err := Run(cfg, coverageOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain["summary.json"], b) {
		t.Fatal("enabling coverage changed summary.json bytes")
	}
	tl, err := os.ReadFile(filepath.Join(dir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain["timeline.json"], tl) {
		t.Fatal("enabling coverage changed timeline.json bytes")
	}
	pc, err := os.ReadFile(filepath.Join(dir, "trace.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain["trace.pcap"], pc) {
		t.Fatal("enabling coverage changed the raw capture bytes")
	}
	if len(rep.Trace.Entries) != len(plainRep.Trace.Entries) {
		t.Fatalf("trace entry count changed: %d vs %d", len(rep.Trace.Entries), len(plainRep.Trace.Entries))
	}
	if len(rep.Verdicts) != len(plainRep.Verdicts) {
		t.Fatal("enabling coverage changed the main verdict list")
	}
	for i := range rep.Verdicts {
		if rep.Verdicts[i].Pass != plainRep.Verdicts[i].Pass || rep.Verdicts[i].Reason != plainRep.Verdicts[i].Reason {
			t.Fatalf("verdict %d diverged with coverage on", i)
		}
	}
}
