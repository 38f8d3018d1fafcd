package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/version"
)

// SummarySchema versions the summary.json layout for cross-run diffing
// tools; bump it when a field changes meaning or disappears.
const SummarySchema = "lumina-summary/1"

// LatencyDigest is the percentile digest of one registry histogram.
type LatencyDigest struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

// Summary is the machine-readable run summary WriteArtifacts emits as
// summary.json. It is designed for cross-run diffing: every field is
// derived deterministically from the run (struct field order is fixed,
// slices are in deterministic order, the only map — chains.by_event —
// serializes with sorted keys), so two same-seed runs produce
// byte-identical files.
type Summary struct {
	Schema string `json:"schema"`
	// CodeVersion is the build stamp of the binary that produced the
	// run (version.Stamp). It is provenance, not behaviour: the
	// canonical digest form (SummaryDigest) clears it, so golden
	// summary digests recorded in the corpus survive commits that do
	// not change simulated behaviour.
	CodeVersion string   `json:"code_version,omitempty"`
	Name        string   `json:"name"`
	Seed        int64    `json:"seed"`
	Requester   string   `json:"requester_nic"`
	Responder   string   `json:"responder_nic"`
	Verb        string   `json:"verb"`
	DurationNs  sim.Time `json:"duration_ns"`
	TimedOut    bool     `json:"timed_out"`

	IntegrityOK  bool `json:"integrity_ok"`
	TracePackets int  `json:"trace_packets"`

	MessagesOK     int `json:"messages_ok"`
	MessagesFailed int `json:"messages_failed"`

	Verdicts  []analyzer.Verdict     `json:"verdicts,omitempty"`
	Chains    *lineage.ChainsSummary `json:"chains,omitempty"`
	Latencies []LatencyDigest        `json:"latencies,omitempty"`
}

// Summary condenses the report into its summary.json form.
func (r *Report) Summary() *Summary {
	s := &Summary{
		Schema:      SummarySchema,
		CodeVersion: version.Stamp(),
		Name:        r.Config.Name,
		Seed:        r.Config.Seed,
		Requester:   r.Config.Requester.NIC.Type,
		Responder:   r.Config.Responder.NIC.Type,
		Verb:        r.Config.Traffic.Verb,
		DurationNs:  r.DurationNs,
		TimedOut:    r.TimedOut,

		IntegrityOK: r.IntegrityOK,
		Verdicts:    r.Verdicts,
	}
	if r.Trace != nil {
		s.TracePackets = len(r.Trace.Entries)
	}
	if r.Traffic != nil {
		for _, c := range r.Traffic.Conns {
			for st, n := range c.Statuses {
				if st == "OK" {
					s.MessagesOK += n
				} else {
					s.MessagesFailed += n
				}
			}
		}
	}
	if r.Lineage != nil {
		s.Chains = r.Lineage.Summarize()
	}
	if r.Metrics != nil {
		for i := range r.Metrics.Histograms {
			h := &r.Metrics.Histograms[i]
			s.Latencies = append(s.Latencies, LatencyDigest{
				Name: h.Name, Count: h.Count, P50: h.P50, P99: h.P99, Max: h.Max,
			})
		}
	}
	return s
}

// WriteSummary renders the summary as indented JSON, including the
// build's code_version stamp.
func (r *Report) WriteSummary(w io.Writer) error {
	return writeJSON(w, r.Summary())
}

// SummaryDigest is the hex SHA-256 of the canonical summary form — the
// summary with CodeVersion cleared — which is the quantity corpus
// goldens record and replays compare. Golden digests must identify
// behaviour, not builds: a digest that changed on every commit could
// never catch a drift.
func (r *Report) SummaryDigest() (string, error) {
	s := r.Summary()
	s.CodeVersion = ""
	h := sha256.New()
	if err := writeJSON(h, s); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Outcome is the judged form of a run: what a consumer needs to score
// it (corpus golden comparison, cached result.json, serve status
// responses) without re-parsing the heavyweight artifacts. It is the
// per-profile value of a corpus expected.json and the embedded head of
// a cached result.json, so its field order is part of both formats.
type Outcome struct {
	// Verdicts maps analyzer name → pass.
	Verdicts map[string]bool `json:"verdicts"`
	TimedOut bool            `json:"timed_out"`
	// SummarySHA256 is SummaryDigest: the canonical
	// (code_version-cleared) summary digest.
	SummarySHA256 string `json:"summary_sha256"`
}

// Outcome condenses the report into its judged form. It renders the
// canonical summary once, for the digest, and nothing else.
func (r *Report) Outcome() (Outcome, error) {
	digest, err := r.SummaryDigest()
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Verdicts: make(map[string]bool, len(r.Verdicts)), TimedOut: r.TimedOut, SummarySHA256: digest}
	for _, v := range r.Verdicts {
		out.Verdicts[v.Analyzer] = v.Pass
	}
	return out, nil
}

// writeJSON renders v the way every JSON artifact but report.json is
// rendered: indented, newline-terminated.
func writeJSON(w io.Writer, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	_, err = w.Write(js)
	return err
}
