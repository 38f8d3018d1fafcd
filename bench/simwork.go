package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/trace"
)

// simStats are the simulated statistics of one run that a Report
// exposes. Every op of a run must reproduce the first op's, and a
// simulator speed-up must leave them identical between commits.
type simStats struct {
	Pkts        uint64 // switch RxRoCE
	VirtualNs   int64
	Msgs        int
	GoodputGbps float64
	TxPkts      uint64
	Retransmits uint64
	AckTimeouts uint64
	CNPSent     uint64
	Mirrored    uint64
	Captured    uint64
	Discards    uint64
	Chains      int
	Events      int    // telemetry probe events
	SimEvents   uint64 // simulator events executed
}

func statsOf(tb *orchestrator.Testbed, rep *orchestrator.Report) simStats {
	st := simStats{
		Pkts:      rep.SwitchTotals.RxRoCE,
		VirtualNs: int64(rep.DurationNs),
		Mirrored:  rep.SwitchTotals.Mirrored,
		Events:    len(rep.Events),
		SimEvents: tb.Sim.Executed(),
	}
	if tb.Fabric != nil {
		st.SimEvents = tb.Fabric.Executed()
	}
	if rep.Traffic != nil {
		for i := range rep.Traffic.Conns {
			st.Msgs += len(rep.Traffic.Conns[i].MCTs)
		}
		st.GoodputGbps = rep.Traffic.TotalGoodputGbps()
	}
	for _, c := range []map[string]uint64{rep.RequesterCounters, rep.ResponderCounters} {
		st.TxPkts += c[rnic.CtrTxRoCEPackets]
		st.Retransmits += c[rnic.CtrRetransmits]
		st.AckTimeouts += c[rnic.CtrLocalAckTimeout]
		st.CNPSent += c[rnic.CtrNpCnpSent]
	}
	for _, d := range rep.DumperStats {
		st.Captured += d.Captured
		st.Discards += d.Discards
	}
	if rep.Lineage != nil {
		st.Chains = len(rep.Lineage.Chains)
	}
	return st
}

// checkReport is the correctness check every simulating op ends with.
func checkReport(rep *orchestrator.Report) error {
	if !rep.IntegrityOK {
		return fmt.Errorf("integrity check failed: %s", rep.IntegrityDetail)
	}
	if rep.TimedOut {
		return fmt.Errorf("run timed out at %d virtual ns", rep.DurationNs)
	}
	return nil
}

// simSpec describes one simulating workload: a scenario and the
// orchestrator options it runs under.
type simSpec struct {
	file string
	opts func() orchestrator.Options
	// artifacts adds Report.WriteArtifacts to the op (what lumina -out
	// does).
	artifacts bool
}

func explainOptions() orchestrator.Options {
	o := orchestrator.DefaultOptions()
	o.Telemetry, o.Lineage, o.INT, o.Coverage = true, true, true, true
	return o
}

var simSpecs = map[string]simSpec{
	wBulkWrite:   {file: "bulk.yaml", opts: orchestrator.DefaultOptions},
	wBulkExplain: {file: "bulk.yaml", opts: explainOptions, artifacts: true},
	wNoisyRead: {file: "noisy_read.yaml", opts: func() orchestrator.Options {
		o := orchestrator.DefaultOptions()
		o.Telemetry, o.Lineage = true, true
		return o
	}},
	wIncastShards: {file: "incast.yaml", opts: func() orchestrator.Options {
		o := orchestrator.DefaultOptions()
		o.Lineage, o.Shards = true, 2
		return o
	}},
}

// simInst is a set-up simulating workload: the scenario document every
// op parses and runs.
type simInst struct {
	e    *env
	name string
	spec simSpec
	yaml []byte
	opts orchestrator.Options
	dir  string // artifact directory, rewritten by every op
	tr   *tracer

	first *simStats // the round's first op; later ops must match
}

// setupSim reads a scenario the benchmark owns and pins its seed to one
// drawn from the workload seed. The program under test sees only the
// resulting document.
func setupSim(e *env, name string, _ plan, tr *tracer) (instance, error) {
	spec := simSpecs[name]
	cfg, err := config.Load(filepath.Join(e.root, "bench", "workloads", spec.file))
	if err != nil {
		return nil, fmt.Errorf("loading bench/workloads/%s: %w", spec.file, err)
	}
	cfg.Seed = e.scenarioSeed(name, 0)
	yaml, err := cfg.MarshalYAML()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, name+"-art-")
	if err != nil {
		return nil, err
	}
	return &simInst{e: e, name: name, spec: spec, yaml: yaml, opts: spec.opts(), dir: dir, tr: tr}, nil
}

func (s *simInst) close() { os.RemoveAll(s.dir) }

func (s *simInst) op(ph phase, _, i int) (time.Duration, uint64, error) {
	switch ph {
	case phaseTraced:
		return s.run(i, s.tr, true)
	case phaseUntraced:
		return s.run(i, nil, true)
	}
	return s.run(i, nil, false)
}

// sameAsFirst fails an op whose simulated statistics differ from the
// first op's: the work is deterministic, so any difference means the
// run did not measure the same thing each time.
func (s *simInst) sameAsFirst(st simStats) error {
	if s.first == nil {
		s.first = &st
		return nil
	}
	if st != *s.first {
		return fmt.Errorf("simulated statistics drifted within the run: first op %+v, this op %+v", *s.first, st)
	}
	return nil
}

// run is one op: parse the document, build the testbed, execute it,
// (bulk_explain) write the artifacts — orchestrator.Run taken apart at
// its public seams so each stage can carry a span. A staged op then
// replays the pure post-run stages on the finished run to time them
// alone; Execute is never forked or copied, because Pool.Terminate is
// idempotent and the other stages only read. The returned duration
// covers the op only, never the replay, and with tr == nil the
// identical work runs without spans.
func (s *simInst) run(i int, tr *tracer, staged bool) (time.Duration, uint64, error) {
	t0 := time.Now()
	op := tr.begin("op", 0, i)

	sp := tr.begin("config.Parse", op, i)
	cfg, err := config.Parse(s.yaml)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("orchestrator.Build", op, i)
	tb, err := orchestrator.Build(cfg, s.opts)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("Testbed.Execute", op, i)
	rep, err := tb.Execute()
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	if s.spec.artifacts {
		sp = tr.begin("Report.WriteArtifacts", op, i)
		err = rep.WriteArtifacts(s.dir)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	tr.end(op)
	d := time.Since(t0)

	if err := checkReport(rep); err != nil {
		return d, 0, err
	}
	if err := s.sameAsFirst(statsOf(tb, rep)); err != nil || !staged {
		return d, rep.SwitchTotals.RxRoCE, err
	}
	return d, rep.SwitchTotals.RxRoCE, s.replay(i, tr, tb, rep)
}

// replay re-runs the post-run stages Execute already performed (trace
// reconstruction, integrity check, lineage, verdicts) plus the
// rendering stages that follow a run, each under its own span.
func (s *simInst) replay(i int, tr *tracer, tb *orchestrator.Testbed, rep *orchestrator.Report) error {
	root := tr.begin("replay", 0, i)
	defer tr.end(root)

	sp := tr.begin("trace.Reconstruct", root, i)
	again, err := trace.Reconstruct(tb.Pool.Terminate())
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(again.Entries) != len(rep.Trace.Entries) {
		return fmt.Errorf("replayed reconstruction holds %d packets, the run's trace %d", len(again.Entries), len(rep.Trace.Entries))
	}
	sp = tr.begin("Trace.IntegrityCheck", root, i)
	err = again.IntegrityCheck(tb.Switch.MirrorCount(), tb.Switch.Totals().RxRoCE)
	tr.end(sp)
	if err != nil {
		return err
	}
	if s.opts.Lineage {
		sp = tr.begin("lineage.Build", root, i)
		g := lineage.Build(rep.Trace, rep.Events)
		tr.end(sp)
		if len(g.Chains) != len(rep.Lineage.Chains) {
			return fmt.Errorf("replayed lineage holds %d chains, the run's %d", len(g.Chains), len(rep.Lineage.Chains))
		}
		sp = tr.begin("analyzer.VerdictsWith", root, i)
		v := analyzer.VerdictsWith(rep.Trace, g, analyzer.VerdictOptions{})
		tr.end(sp)
		if len(v) != len(rep.Verdicts) {
			return fmt.Errorf("replayed analyzers gave %d verdicts, the run %d", len(v), len(rep.Verdicts))
		}
	}
	sp = tr.begin("resultcache.Render", root, i)
	_, err = resultcache.Render(rep)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("Trace.WritePcap", root, i)
	err = writePcap(rep.Trace, filepath.Join(s.dir, "replay.pcap"))
	tr.end(sp)
	if err != nil {
		return err
	}
	if !s.spec.artifacts {
		sp = tr.begin("Report.WriteArtifacts", root, i)
		err = rep.WriteArtifacts(s.dir)
		tr.end(sp)
	}
	return err
}

// writePcap writes the trace the way WriteArtifacts does: straight into
// a freshly created file.
func writePcap(t *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WritePcap(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers turns the traced pass into this workload's per-layer metrics.
func (s *simInst) layers(r *tracedRun, m map[string]float64) error {
	ms := func(name string) float64 { return p50(durationsMs(r.spans, name)) }
	execute := ms("Testbed.Execute")
	replayed := ms("trace.Reconstruct") + ms("Trace.IntegrityCheck") + ms("lineage.Build") + ms("analyzer.VerdictsWith")

	m["config.parse_us"] = ms("config.Parse") * 1e3
	m["orchestrator.build_us"] = ms("orchestrator.Build") * 1e3
	m["orchestrator.execute_ms"] = execute
	m["orchestrator.simulate_self_ms"] = execute - replayed
	m["trace.reconstruct_ms"] = ms("trace.Reconstruct")
	m["trace.write_pcap_ms"] = ms("Trace.WritePcap")
	m["orchestrator.write_artifacts_ms"] = ms("Report.WriteArtifacts")
	m["lineage.build_ms"] = ms("lineage.Build")
	m["analyzer.verdicts_ms"] = ms("analyzer.VerdictsWith")
	m["resultcache.render_ms"] = ms("resultcache.Render")

	if s.first == nil {
		return fmt.Errorf("%s: traced pass recorded no simulated statistics", s.name)
	}
	st := *s.first
	m["sim.simulate_ns_per_event"] = (execute - replayed) * 1e6 / float64(st.SimEvents)
	m["trace.reconstruct_ns_per_pkt"] = ms("trace.Reconstruct") * 1e6 / float64(st.Pkts)
	m["sim.pkts_per_op"] = float64(st.Pkts)
	m["sim.events_per_op"] = float64(st.SimEvents)
	m["sim.events_per_pkt"] = float64(st.SimEvents) / float64(st.Pkts)
	m["sim.virtual_ns_per_op"] = float64(st.VirtualNs)
	m["traffic.msgs_per_op"] = float64(st.Msgs)
	m["traffic.goodput_gbps"] = st.GoodputGbps
	m["rnic.tx_pkts_per_op"] = float64(st.TxPkts)
	m["rnic.retransmits_per_op"] = float64(st.Retransmits)
	m["rnic.ack_timeouts_per_op"] = float64(st.AckTimeouts)
	m["rnic.cnp_sent_per_op"] = float64(st.CNPSent)
	m["injector.rx_roce_per_op"] = float64(st.Pkts)
	m["injector.mirrored_per_op"] = float64(st.Mirrored)
	m["dumper.captured_per_op"] = float64(st.Captured)
	m["dumper.discards_per_op"] = float64(st.Discards)
	m["lineage.chains_per_op"] = float64(st.Chains)
	m["telemetry.events_per_op"] = float64(st.Events)

	switch s.name {
	case wBulkExplain:
		return s.observerCosts(m)
	case wIncastShards:
		return s.fabricProbes(m)
	}
	return nil
}

// timeRuns runs cfg under opts n times and returns the op latencies in
// milliseconds and the statistics of the (identical) runs.
func timeRuns(cfg config.Test, opts orchestrator.Options, n int) ([]float64, simStats, error) {
	var lat []float64
	var st simStats
	for i := 0; i < n; i++ {
		t0 := time.Now()
		tb, err := orchestrator.Build(cfg, opts)
		if err != nil {
			return nil, st, err
		}
		rep, err := tb.Execute()
		if err != nil {
			return nil, st, err
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
		if err := checkReport(rep); err != nil {
			return nil, st, err
		}
		st = statsOf(tb, rep)
	}
	return lat, st, nil
}

// sameHistory names both values of every observe-only count on which
// two runs of one scenario disagree.
func sameHistory(what string, a, b simStats) error {
	if a.Pkts != b.Pkts || a.SimEvents != b.SimEvents || a.VirtualNs != b.VirtualNs || a.GoodputGbps != b.GoodputGbps {
		return fmt.Errorf("%s changed the simulated history: pkts %d vs %d, events %d vs %d, virtual ns %d vs %d, goodput %v vs %v",
			what, a.Pkts, b.Pkts, a.SimEvents, b.SimEvents, a.VirtualNs, b.VirtualNs, a.GoodputGbps, b.GoodputGbps)
	}
	return nil
}

// observerCosts prices each observe-only option on the bulk scenario:
// the p50 with only that option on, minus the bare p50. Rounds
// interleave the variants so host drift hits all of them alike. Every
// variant must simulate the same history as the bare run.
func (s *simInst) observerCosts(m map[string]float64) error {
	cfg, err := config.Parse(s.yaml)
	if err != nil {
		return err
	}
	variants := []struct {
		metric string
		set    func(*orchestrator.Options)
	}{
		{"", func(*orchestrator.Options) {}},
		{"telemetry.on_cost_ms", func(o *orchestrator.Options) { o.Telemetry = true }},
		{"inband.on_cost_ms", func(o *orchestrator.Options) { o.INT = true }},
		{"coverage.on_cost_ms", func(o *orchestrator.Options) { o.Coverage = true }},
	}
	rounds := 9
	if s.e.quick {
		rounds = 2
	}
	lat := make([][]float64, len(variants))
	var bare simStats
	for r := 0; r < rounds; r++ {
		for v, variant := range variants {
			opts := orchestrator.DefaultOptions()
			variant.set(&opts)
			l, st, err := timeRuns(cfg, opts, 1)
			if err != nil {
				return err
			}
			lat[v] = append(lat[v], l...)
			if v == 0 {
				bare = st
			} else if err := sameHistory(variant.metric, bare, st); err != nil {
				return err
			}
		}
	}
	if err := sameHistory("bulk_explain's options", bare, *s.first); err != nil {
		return err
	}
	for v := 1; v < len(variants); v++ {
		m[variants[v].metric] = p50(lat[v]) - p50(lat[0])
	}
	return nil
}

// fabricProbes answers "does sharding pay": the workload's incast at
// one shard against the two the workload uses, and the same topology at
// four times the packets, where a crossover would show first.
func (s *simInst) fabricProbes(m map[string]float64) error {
	cfg, err := config.Parse(s.yaml)
	if err != nil {
		return err
	}
	n, nBig := tracedOps, 3
	if s.e.quick {
		n, nBig = 3, 1
	}
	at := func(cfg config.Test, shards, n int) (float64, simStats, error) {
		opts := s.opts
		opts.Shards = shards
		lat, st, err := timeRuns(cfg, opts, n)
		return p50(lat), st, err
	}
	s1, st1, err := at(cfg, 1, n)
	if err != nil {
		return err
	}
	if err := sameHistory("Shards=2", st1, *s.first); err != nil {
		return err
	}
	s2, _, err := at(cfg, 2, n)
	if err != nil {
		return err
	}
	m["sim.fabric_s1_ms_p50"] = s1
	m["sim.fabric_shard_speedup"] = s1 / s2

	big := cfg
	big.Traffic.NumMsgsPerQP, big.Traffic.MessageSize = 8, 8192
	b1, bst1, err := at(big, 1, nBig)
	if err != nil {
		return err
	}
	b2, bst2, err := at(big, 2, nBig)
	if err != nil {
		return err
	}
	if err := sameHistory("Shards=2 (big incast)", bst1, bst2); err != nil {
		return err
	}
	m["sim.fabric_big_s1_ms"] = b1
	m["sim.fabric_big_s2_ms"] = b2
	m["sim.fabric_big_shard_speedup"] = b1 / b2
	return nil
}
