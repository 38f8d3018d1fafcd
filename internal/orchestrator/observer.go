package orchestrator

import (
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
	// Every count and histogram in metrics.json is read here, once, from
	// the component that kept it; coverage.json is independent of
	// telemetry. The MCTs are the OK completions' post-to-complete times.
	reg := telemetry.NewRegistry()
	var mct telemetry.Histogram
	for i := range rep.Traffic.Conns {
		for _, d := range rep.Traffic.Conns[i].MCTs {
			mct.Record(int64(d))
		}
	}
	reg.AddHistogram("traffic.mct_ns", &mct)
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
