package fuzz

import (
	"encoding/json"
	"fmt"
	"io"
)

// Findings-file schema identifiers. Version 1 carried only anomaly
// findings; version 2 adds per-finding coverage deltas, the
// coverage-seed list, and the per-profile frontier reached by the
// search. Version-2 files are a strict superset: a v1 reader that
// ignores unknown fields still parses them, and ReadFindingsFile
// accepts both versions.
const (
	FindingsSchemaV1 = "lumina-findings/1"
	FindingsSchema   = "lumina-findings/2"
)

// FindingKind discriminates findings-file records: anomalies crossed
// the target's score threshold; coverage seeds advanced the behavioral
// coverage frontier without crossing it.
const (
	FindingKindAnomaly  = "anomaly"
	FindingKindCoverage = "coverage"
)

// FindingRecord is one finding in the findings JSON file: everything
// needed to reproduce the run without re-searching.
type FindingRecord struct {
	Rank       int            `json:"rank"`
	Score      float64        `json:"score"`
	Genome     []int          `json:"genome"`
	Params     map[string]int `json:"params"`
	ConfigYAML string         `json:"config_yaml"`
	// CorpusID is the content address the finding was admitted under,
	// when a corpus directory was given.
	CorpusID string `json:"corpus_id,omitempty"`

	// Kind tags the record (v2): FindingKindAnomaly or
	// FindingKindCoverage. Empty in v1 files, where every record is an
	// anomaly.
	Kind string `json:"kind,omitempty"`
	// CoverageNew lists the (site, transition) pairs this finding's run
	// added to its NIC profile's frontier, in canonical registry order
	// (v2; empty when the search ran without coverage).
	CoverageNew []string `json:"coverage_new,omitempty"`
	// CoveragePairs counts the pairs the run covered in total (v2).
	CoveragePairs int `json:"coverage_pairs,omitempty"`
}

// FindingsFile is the schema of the `lumina fuzz -findings` output.
type FindingsFile struct {
	Schema      string          `json:"schema"`
	Target      string          `json:"target"`
	Model       string          `json:"model"`
	Seed        int64           `json:"seed"`
	Iters       int             `json:"iters"`
	Evaluations int             `json:"evaluations"`
	BestScore   float64         `json:"best_score"`
	BestGenome  []int           `json:"best_genome"`
	Findings    []FindingRecord `json:"findings"`

	// CoverageSeeds are below-threshold frontier-advancing runs (v2).
	CoverageSeeds []FindingRecord `json:"coverage_seeds,omitempty"`
	// Frontier maps NIC profile → covered pairs at search end (v2).
	Frontier map[string]int `json:"frontier,omitempty"`
	// FrontierGrowth is the per-generation count of freshly covered
	// pairs, pool initialization first (v2).
	FrontierGrowth []int `json:"frontier_growth,omitempty"`
}

// NewFindingsFile seeds a v2 findings file from a search result,
// leaving per-record fields that need the target (params, YAML) to the
// caller via AddFinding/AddCoverageSeed.
func NewFindingsFile(target, model string, seed int64, iters int, res *Result) *FindingsFile {
	return &FindingsFile{
		Schema: FindingsSchema, Target: target, Model: model,
		Seed: seed, Iters: iters, Evaluations: res.Evaluations,
		BestScore: res.BestScore, BestGenome: res.BestGenome,
		Frontier: res.Frontier, FrontierGrowth: res.FrontierGrowth,
	}
}

// Record renders one search finding as a findings-file record.
func (t Target) Record(rank int, fd Finding, kind string) FindingRecord {
	rec := FindingRecord{
		Rank: rank, Score: fd.Score, Genome: fd.Genome,
		Params: map[string]int{}, Kind: kind, CoverageNew: fd.NewPairs,
	}
	for pi, p := range t.Params {
		rec.Params[p.Name] = fd.Genome[pi]
	}
	if fd.Report != nil && fd.Report.Coverage != nil {
		rec.CoveragePairs = fd.Report.Coverage.Covered
	}
	cfg := t.Build(fd.Genome)
	cfg.Seed = fd.Report.Config.Seed
	cfg.Name = fmt.Sprintf("%s-finding-%d", t.Name, rank)
	if yml, err := cfg.MarshalYAML(); err == nil {
		rec.ConfigYAML = string(yml)
	}
	return rec
}

// Write renders the findings file as indented JSON.
func (f *FindingsFile) Write(w io.Writer) error {
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	_, err = w.Write(js)
	return err
}

// ReadFindingsFile parses a findings file, accepting both the v1 and
// v2 schemas (v1 files simply have no coverage fields).
func ReadFindingsFile(data []byte) (*FindingsFile, error) {
	var f FindingsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("fuzz: findings file: %w", err)
	}
	switch f.Schema {
	case FindingsSchemaV1, FindingsSchema:
		return &f, nil
	default:
		return nil, fmt.Errorf("fuzz: findings file: unknown schema %q", f.Schema)
	}
}
