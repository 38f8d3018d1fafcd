package resultcache

import (
	"encoding/json"
	"fmt"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/version"
)

// ResultSchema versions the result.json sidecar.
const ResultSchema = "lumina-resultcache-result/1"

// ResultName is the sidecar's artifact name.
const ResultName = "result.json"

// Result is the result.json document: the run's judged outcome plus the
// two report fields status consumers show. The embedded outcome comes
// first after the schema, which keeps the field order — schema,
// verdicts, timed_out, summary_sha256, duration_ns, integrity_ok — and
// so the bytes of every result.json already on disk.
type Result struct {
	Schema string `json:"schema"`
	orchestrator.Outcome
	DurationNs  sim.Time `json:"duration_ns"`
	IntegrityOK bool     `json:"integrity_ok"`
}

// KeyFor assembles the full cache key for running cfg under profile and
// opts with the current build. The scenario dimension is the canonical
// content hash (config.ContentHash) of cfg before any profile
// retargeting — the same identity as a corpus entry ID and a served run
// ID.
func KeyFor(cfg config.Test, profile string, opts orchestrator.Options) (Key, error) {
	scenario, err := config.ContentHash(cfg)
	if err != nil {
		return Key{}, err
	}
	return Key{
		Scenario: scenario,
		Profile:  profile,
		Options:  opts.Fingerprint(),
		Version:  version.Stamp(),
	}, nil
}

// Render converts a finished report into the cacheable artifact set:
// result.json plus every entry of rep.Artifacts() except trace.pcap —
// by far the largest artifact, and one no cache consumer reads (replays
// judge from result.json, served runs are scored and explained from the
// JSON artifacts). The bytes come from the table's own renderers, so a
// cache hit returns exactly what WriteArtifacts would have written.
func Render(rep *orchestrator.Report) (map[string][]byte, error) {
	outcome, err := rep.Outcome()
	if err != nil {
		return nil, err
	}
	res := Result{Schema: ResultSchema, Outcome: outcome, DurationNs: rep.DurationNs, IntegrityOK: rep.IntegrityOK}
	resJS, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return nil, err
	}
	arts := map[string][]byte{ResultName: append(resJS, '\n')}
	for _, a := range rep.Artifacts() {
		if a.Name == orchestrator.TraceName {
			continue
		}
		if arts[a.Name], err = a.Bytes(); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return arts, nil
}

// ParseResult decodes a cached result.json sidecar.
func ParseResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("resultcache: result.json: %w", err)
	}
	if r.Schema != ResultSchema {
		return nil, fmt.Errorf("resultcache: result.json schema %q (want %q)", r.Schema, ResultSchema)
	}
	return &r, nil
}
