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
// rendered: indented, newline-terminated — byte for byte
// json.MarshalIndent(v, "", "  ") plus "\n", streamed through an
// indenter instead of built as a second, indented copy.
func writeJSON(w io.Writer, v any) error {
	return json.NewEncoder(&indenter{w: w}).Encode(v)
}

// indenter re-indents the compact JSON stream written to it exactly as
// json.Indent with prefix "" and indent "  " does, passing the result
// on to w through a fixed buffer. Its input is the encoder's output:
// compact JSON, newline-terminated, whose only whitespace outside
// strings is that newline.
type indenter struct {
	w     io.Writer
	err   error
	depth int
	// inStr and esc track a string literal and a backslash in it; open
	// holds a '{' or '[' whose line break waits for the next byte, which
	// closes it at once ({} and []) or opens its first element.
	inStr, esc, open bool
	n                int
	buf              [1024]byte
}

func (d *indenter) Write(p []byte) (int, error) {
	for _, c := range p {
		if d.inStr {
			switch {
			case d.esc:
				d.esc = false
			case c == '\\':
				d.esc = true
			case c == '"':
				d.inStr = false
			}
			d.put(c)
			continue
		}
		if d.open && c != '}' && c != ']' {
			d.open = false
			d.depth++
			d.newline()
		}
		switch c {
		case '"':
			d.inStr = true
			d.put(c)
		case '{', '[':
			d.open = true
			d.put(c)
		case ',':
			d.put(c)
			d.newline()
		case ':':
			d.put(c)
			d.put(' ')
		case '}', ']':
			if d.open {
				d.open = false
			} else {
				d.depth--
				d.newline()
			}
			d.put(c)
		default:
			d.put(c)
		}
	}
	d.flush()
	if d.err != nil {
		return 0, d.err
	}
	return len(p), nil
}

// newline starts a line indented to the current depth.
func (d *indenter) newline() {
	d.put('\n')
	for i := 0; i < d.depth; i++ {
		d.put(' ')
		d.put(' ')
	}
}

func (d *indenter) put(c byte) {
	if d.n == len(d.buf) {
		d.flush()
	}
	d.buf[d.n] = c
	d.n++
}

// flush passes the buffered bytes on, keeping the first error (a short
// write without one is io.ErrShortWrite).
func (d *indenter) flush() {
	if d.err == nil && d.n > 0 {
		var n int
		if n, d.err = d.w.Write(d.buf[:d.n]); d.err == nil && n < d.n {
			d.err = io.ErrShortWrite
		}
	}
	d.n = 0
}
