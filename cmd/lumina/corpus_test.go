package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/fuzz"
	"github.com/lumina-sim/lumina/internal/orchestrator"
)

// TestFuzzAdmissionKeepsTheFuzzDeadline admits a finding through admit
// and a coverage seed through admitSeed, and requires both goldens to
// be recorded under the deadline the fuzzer scored them at: a timed-out
// run scores, so an anomaly found at one deadline need not hold at
// another.
func TestFuzzAdmissionKeepsTheFuzzDeadline(t *testing.T) {
	cfg := config.Default()
	cfg.Traffic.NumMsgsPerQP = 1
	cfg.Traffic.MessageSize = 4096
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "ecn", Iter: 1}}
	for it := 1; it <= 12; it++ { // exhaust the retry budget: an anomaly
		cfg.Traffic.Events = append(cfg.Traffic.Events, config.Event{QPN: 1, PSN: 2, Type: "drop", Iter: it})
	}
	seed := cfg
	seed.Traffic.Events = []config.Event{{QPN: 1, PSN: 3, Type: "ecn", Iter: 1}}

	dir := t.TempDir()
	finding := fuzz.FindingRecord{Rank: 1}
	admit(dir, fuzz.Finding{Score: 1, Report: &orchestrator.Report{Config: cfg}}, &finding, "test", 2)
	covSeed := fuzz.FindingRecord{Rank: 1}
	admitSeed(dir, fuzz.Finding{Report: &orchestrator.Report{Config: seed}}, &covSeed, "test", 2)

	for _, id := range []string{finding.CorpusID, covSeed.CorpusID} {
		if id == "" {
			t.Fatalf("finding %q, seed %q: not both admitted", finding.CorpusID, covSeed.CorpusID)
		}
		data, err := os.ReadFile(filepath.Join(dir, id, "expected.json"))
		if err != nil {
			t.Fatal(err)
		}
		var exp corpus.Expected
		if err := json.Unmarshal(data, &exp); err != nil {
			t.Fatal(err)
		}
		if exp.DeadlineNs != int64(fuzzDeadline) {
			t.Errorf("%s (%s): goldens recorded at deadline_ns %d, want the fuzz deadline %d", id, exp.Name, exp.DeadlineNs, int64(fuzzDeadline))
		}
	}
}
