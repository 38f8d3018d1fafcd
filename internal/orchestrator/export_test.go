package orchestrator

import "github.com/lumina-sim/lumina/internal/version"

// Summary condenses the report into its summary.json form: the value
// WriteSummary's bytes must equal encoding/json's rendering of.
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
