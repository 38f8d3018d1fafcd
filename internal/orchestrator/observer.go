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
		o.col = inband.NewCollector(o.hub)
	}
}

// collect folds every tap into the report. INT and coverage go first so
// their counters and verdict probes land in metrics.json and the
// timeline.
func (o *observer) collect(tb *Testbed, rep *Report) {
	if o.col != nil {
		rep.INT = buildINTReport(o.col, rep, o.hub)
	}
	if o.cov != nil {
		rep.Coverage = o.cov.Report()
		// The frontier size is published only through the telemetry hub
		// (a no-op without one): metrics.json stays byte-identical with
		// coverage on or off when telemetry is off, and coverage.json is
		// independent of telemetry entirely.
		o.hub.Count("coverage.pairs", int64(rep.Coverage.Covered))
	}
	if o.hub == nil {
		return
	}
	// Per-port fabric gauges (queue high-water mark, link utilization):
	// published whenever telemetry is on, INT or not, so metrics.json
	// always reflects fabric state.
	now := int64(tb.Sim.Now())
	for _, p := range tb.Ports {
		o.hub.SetGauge("port."+p.Name+".max_queue_bytes", p.MaxQueue)
		util := int64(0)
		if now > 0 {
			util = min(int64(p.Busy)*1000/now, 1000)
		}
		o.hub.SetGauge("port."+p.Name+".util_permille", util)
	}
	rep.Metrics = o.hub.Snapshot()
	rep.Events = o.hub.Events()
}
