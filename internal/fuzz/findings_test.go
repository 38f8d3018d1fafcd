package fuzz

import (
	"bytes"
	"strings"
	"testing"
)

// A v1 findings file exactly as `lumina fuzz` wrote it before the schema
// grew coverage fields — the back-compat contract is that it still
// parses, with every record an anomaly and no coverage data.
const findingsV1 = `{
  "schema": "lumina-findings/1",
  "target": "counter-bug",
  "model": "e810",
  "seed": 7,
  "iters": 40,
  "evaluations": 46,
  "best_score": 3,
  "best_genome": [2, 1],
  "findings": [
    {
      "rank": 1,
      "score": 3,
      "genome": [2, 1],
      "params": {"drops": 2, "spacing": 1},
      "config_yaml": "name: counter-bug-finding-1\n",
      "corpus_id": "ab12cd34"
    }
  ]
}
`

func TestReadFindingsFileV1(t *testing.T) {
	f, err := ReadFindingsFile([]byte(findingsV1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != FindingsSchemaV1 {
		t.Fatalf("schema = %q", f.Schema)
	}
	if f.Target != "counter-bug" || f.Model != "e810" || f.Seed != 7 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if len(f.Findings) != 1 {
		t.Fatalf("findings = %d", len(f.Findings))
	}
	rec := f.Findings[0]
	if rec.Kind != "" || rec.CoveragePairs != 0 || len(rec.CoverageNew) != 0 {
		t.Fatalf("v1 record grew coverage fields: %+v", rec)
	}
	if rec.CorpusID != "ab12cd34" || rec.Params["drops"] != 2 {
		t.Fatalf("v1 record fields lost: %+v", rec)
	}
	if f.Frontier != nil || f.CoverageSeeds != nil || f.FrontierGrowth != nil {
		t.Fatalf("v1 file grew coverage sections: %+v", f)
	}
}

func TestFindingsFileV2RoundTrip(t *testing.T) {
	res := &Result{
		Evaluations: 12, BestScore: 4, BestGenome: Genome{7, 1},
		Frontier:       map[string]int{"spec": 15, "cx6": 9},
		FrontierGrowth: []int{9, 6, 0, 9},
	}
	out := NewFindingsFile("covtoy", "spec", 11, 64, res)
	out.Findings = append(out.Findings, FindingRecord{
		Rank: 1, Score: 4, Genome: []int{7, 1}, Params: map[string]int{"x": 7, "y": 1},
		Kind: FindingKindAnomaly, CoverageNew: []string{"inject.action/drop"}, CoveragePairs: 15,
	})
	out.CoverageSeeds = append(out.CoverageSeeds, FindingRecord{
		Rank: 1, Score: 1, Genome: []int{0, 6}, Params: map[string]int{"x": 0, "y": 6},
		Kind: FindingKindCoverage, CoverageNew: []string{"qp.rewind/nak"}, CoveragePairs: 11,
	})
	var buf bytes.Buffer
	if err := out.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFindingsFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != FindingsSchema {
		t.Fatalf("schema = %q", got.Schema)
	}
	if got.Frontier["spec"] != 15 || got.Frontier["cx6"] != 9 {
		t.Fatalf("frontier lost: %v", got.Frontier)
	}
	if len(got.FrontierGrowth) != 4 || got.FrontierGrowth[0] != 9 {
		t.Fatalf("growth lost: %v", got.FrontierGrowth)
	}
	if len(got.Findings) != 1 || got.Findings[0].Kind != FindingKindAnomaly {
		t.Fatalf("findings lost: %+v", got.Findings)
	}
	if len(got.CoverageSeeds) != 1 || got.CoverageSeeds[0].Kind != FindingKindCoverage ||
		got.CoverageSeeds[0].CoverageNew[0] != "qp.rewind/nak" {
		t.Fatalf("coverage seeds lost: %+v", got.CoverageSeeds)
	}
}

func TestReadFindingsFileRejectsUnknownSchema(t *testing.T) {
	_, err := ReadFindingsFile([]byte(`{"schema": "lumina-findings/3"}`))
	if err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v, want unknown-schema rejection", err)
	}
	if _, err := ReadFindingsFile([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
