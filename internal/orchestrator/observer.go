package orchestrator

import (
	"io"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// observer owns the observe-only taps of a run — the telemetry hub, the
// coverage map and the INT collector — behind two steps: attach (build)
// and collect (into the report). None of them can perturb the simulated
// history, and all of them record straight from the one event loop, so
// what they hold is canonical as recorded.
type observer struct {
	hub *telemetry.Hub    // nil unless Options.Telemetry
	cov *coverage.Map     // nil unless Options.Coverage
	col *inband.Collector // nil unless Options.INT
}

// attach hooks the enabled taps onto s.
func (o *observer) attach(s *sim.Simulator, opts Options) {
	if opts.Telemetry {
		o.hub = telemetry.NewHub()
		s.AttachHub(o.hub)
		o.hub.Emit(telemetry.KindRunPhase, "orchestrator", "setup")
	}
	if opts.Coverage {
		o.cov = coverage.NewMap()
		s.AttachCoverage(o.cov)
	}
	if opts.INT {
		o.col = new(inband.Collector)
	}
}

// collect folds every tap into the report. INT goes first so its
// verdict probes land in the timeline.
func (o *observer) collect(tb *Testbed, rep *Report) {
	if o.col != nil {
		rep.INT = buildINTReport(o.col, rep, o.hub)
	}
	if o.cov != nil {
		rep.Coverage = o.cov.Report()
	}
	if o.hub == nil {
		return
	}
	// The histograms were recorded into the hub's registry as the run
	// went; every count in metrics.json is published into it here, once,
	// from the component that kept it. coverage.json is independent of
	// telemetry. The MCTs are the OK completions' post-to-complete times.
	reg := o.hub.Registry()
	mct := reg.Histogram("traffic.mct_ns")
	for i := range rep.Traffic.Conns {
		for _, d := range rep.Traffic.Conns[i].MCTs {
			mct.Record(int64(d))
		}
	}
	for _, n := range tb.Hosts {
		n.Publish(reg)
	}
	tb.Switch.Publish(reg)
	for _, n := range tb.Pool.Nodes {
		n.Publish(reg)
	}
	for _, p := range tb.Ports {
		p.Publish(reg)
	}
	if o.col != nil {
		o.col.Publish(reg)
	}
	if rep.Coverage != nil {
		rep.Coverage.Publish(reg)
	}
	rep.Metrics = reg.Snapshot()
	rep.Events = o.hub.Events()
	rep.hub = o.hub
}

// writeMetrics appends metrics.json: the bytes json.MarshalIndent
// renders of r.Metrics, written field by field.
func (r *Report) writeMetrics(w io.Writer) error {
	m := r.Metrics
	j := newJSONW(w)
	j.open('{')
	j.key("counters")
	if m.Counters == nil {
		j.null()
	} else {
		j.open('[')
		for _, c := range m.Counters {
			j.namedValue(c.Name, c.Value)
		}
		j.close(']')
	}
	if len(m.Gauges) > 0 {
		j.key("gauges")
		j.open('[')
		for _, g := range m.Gauges {
			j.namedValue(g.Name, g.Value)
		}
		j.close(']')
	}
	j.key("histograms")
	if m.Histograms == nil {
		j.null()
	} else {
		j.open('[')
		for i := range m.Histograms {
			h := &m.Histograms[i]
			j.elem()
			j.open('{')
			j.str("name", h.Name)
			j.int("count", h.Count)
			j.int("sum", h.Sum)
			j.int("min", h.Min)
			j.int("max", h.Max)
			j.int("p50", h.P50)
			j.int("p99", h.P99)
			j.key("buckets")
			if h.Buckets == nil {
				j.null()
			} else {
				j.open('[')
				for _, b := range h.Buckets {
					j.elem()
					j.open('{')
					j.int("low", b.Low)
					j.int("high", b.High)
					j.int("count", b.Count)
					j.close('}')
				}
				j.close(']')
			}
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
	return j.end()
}

// namedValue writes one counter or gauge as an array element.
func (j *jsonw) namedValue(name string, v int64) {
	j.elem()
	j.open('{')
	j.str("name", name)
	j.int("value", v)
	j.close('}')
}
