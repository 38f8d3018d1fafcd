package orchestrator

import (
	"slices"
	"sort"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// observer owns the four observe-only taps of a run — telemetry hubs,
// coverage maps, INT collector views and the canonical probe stream —
// behind four steps: attach (build), beginRun/endRun (around the
// sharded run phase) and collect (into the report). None of them can
// perturb the simulated history.
//
// Determinism of what a multi-shard run merges:
//
//   - probe events: serial phases (build, traffic start, teardown)
//     route every shard hub into the control hub via SetSink,
//     preserving exact call order; run-phase streams record per shard
//     and merge by (instant, scheduling instant) — the order a single
//     global heap fires in (see telemetry.MergeEvents);
//   - metrics: per-shard registries fold order-independently
//     (Registry.MergeInto: counters add, gauges are single-writer,
//     histograms merge bucket-wise);
//   - INT stamps: per-shard collector views share one hop table with
//     per-origin transit namespacing; the canonical log interleaves by
//     stamp instant (see package inband);
//   - coverage: per-shard maps fold with coverage.MergeReports
//     (count-summing, order-independent).
//
// A one-shard fabric needs none of it: its only node records straight
// into the control hub, so the stream is canonical as recorded.
type observer struct {
	// ctl owns the canonical probe stream and the merged registry; nil
	// unless Options.Telemetry. hubs are the per-shard run-phase
	// recorders of a multi-shard fabric, in node order.
	ctl  *telemetry.Hub
	hubs []*telemetry.Hub
	covs []*coverage.Map
	// col is the INT collector; nil unless Options.INT. build binds each
	// stamping port to the collector view of the port's shard.
	col *inband.Collector

	// stream is the spliced canonical stream of a multi-shard run and
	// taken how much of ctl's own stream it has absorbed (see endRun).
	stream []telemetry.Event
	taken  int
}

// attach hooks the enabled taps onto every node of f.
func (o *observer) attach(f *sim.Fabric, opts Options) {
	n := f.Nodes()
	if opts.Telemetry {
		o.ctl = telemetry.NewHub()
		if n == 1 {
			f.Node(0).AttachHub(o.ctl)
		} else {
			o.ctl.SetClock(func() int64 { return int64(f.Now()) })
			for i := 0; i < n; i++ {
				h := telemetry.NewHub()
				f.Node(i).AttachHub(h)
				h.SetSink(o.ctl)
				o.hubs = append(o.hubs, h)
			}
		}
		o.ctl.Emit(telemetry.KindRunPhase, "orchestrator", "setup")
	}
	if opts.Coverage {
		for i := 0; i < n; i++ {
			m := coverage.NewMap()
			f.Node(i).AttachCoverage(m)
			o.covs = append(o.covs, m)
		}
	}
	if opts.INT {
		o.col = inband.NewCollector(o.ctl)
	}
}

// beginRun opens the run phase: shards may now execute concurrently, so
// their hubs stop forwarding to the control hub and record locally.
func (o *observer) beginRun() {
	o.taken = len(o.ctl.Events())
	for _, h := range o.hubs {
		h.SetSink(nil)
	}
}

// endRun closes the run phase. The shard streams merge into the gap
// beginRun marked in the control stream: events up to the deadline go
// before whatever the control hub recorded meanwhile (the "drain" phase
// marker), events of the trailing drain after it. Teardown is serial
// again, so shard hubs resume forwarding in call order.
func (o *observer) endRun(deadline sim.Time) {
	if len(o.hubs) == 0 {
		return
	}
	streams := make([][]telemetry.Event, len(o.hubs))
	for i, h := range o.hubs {
		streams[i] = h.Events()
		h.SetSink(o.ctl)
	}
	merged := telemetry.MergeEvents(streams...)
	split := sort.Search(len(merged), func(i int) bool {
		return merged[i].At > int64(deadline)
	})
	evs := o.ctl.Events()
	o.stream = slices.Concat(evs[:o.taken], merged[:split], evs[o.taken:], merged[split:])
	o.taken = len(evs)
}

// events returns the canonical probe stream recorded so far. A
// multi-shard run spliced it once in endRun; later calls only append
// what the control hub has recorded since.
func (o *observer) events() []telemetry.Event {
	evs := o.ctl.Events()
	if len(o.hubs) == 0 {
		return evs
	}
	o.stream = append(o.stream, evs[o.taken:]...)
	o.taken = len(evs)
	return o.stream
}

// collect folds every tap into the report. INT and coverage go first so
// their counters and verdict probes land in metrics.json and the
// timeline.
func (o *observer) collect(tb *Testbed, rep *Report) {
	if o.col != nil {
		rep.INT = buildINTReport(o.col, rep, o.ctl)
	}
	for _, m := range o.covs {
		rep.Coverage = coverage.MergeReports(rep.Coverage, m.Report())
	}
	if rep.Coverage != nil {
		// The frontier size is published only through the telemetry hub
		// (a no-op without one): metrics.json stays byte-identical with
		// coverage on or off when telemetry is off, and coverage.json is
		// independent of telemetry entirely.
		o.ctl.Count("coverage.pairs", int64(rep.Coverage.Covered))
	}
	if o.ctl == nil {
		return
	}
	// Per-port fabric gauges (queue high-water mark, link utilization):
	// published whenever telemetry is on, INT or not, so metrics.json
	// always reflects fabric state.
	now := int64(tb.Fabric.Now())
	for _, p := range tb.Ports {
		o.ctl.SetGauge("port."+p.Name+".max_queue_bytes", p.MaxQueue)
		util := int64(0)
		if now > 0 {
			util = min(int64(p.Busy)*1000/now, 1000)
		}
		o.ctl.SetGauge("port."+p.Name+".util_permille", util)
	}
	for _, h := range o.hubs {
		h.Registry().MergeInto(o.ctl.Registry())
	}
	rep.Metrics = o.ctl.Snapshot()
	rep.Events = o.events()
}
