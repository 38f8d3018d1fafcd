// Package orchestrator drives a complete Lumina test (§3.1, Figure 1):
// it builds the simulated testbed from a configuration — hosts with the
// NIC models under test connected to the event-injector switch, plus
// the traffic-dumper pool — performs the setup phases in the paper's
// order (configure hosts, create QPs, exchange metadata, populate the
// injector's match-action table, start traffic), and after traffic
// finishes collects every Table-1 artifact: the reconstructed packet
// trace with its integrity check, NIC counters, traffic-generator logs,
// and switch counters.
//
// There is one way through: Build turns the configuration into a
// topology description (topology.go) and that into a Testbed on one
// sim.Simulator; Execute drains it; an observer (observer.go) carries
// the observe-only taps through both.
package orchestrator

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// Options tune a run beyond the test configuration.
type Options struct {
	// Deadline bounds virtual time; a run that has not finished by then
	// is reported as timed out instead of spinning forever.
	Deadline sim.Duration

	// Telemetry attaches a probe hub to the simulation: the run records
	// typed events and metrics into Report.Events / Report.Metrics.
	// Telemetry is observe-only and does not perturb the simulated
	// history — a run produces the same trace with or without it.
	Telemetry bool

	// Lineage reconstructs causal packet-lifecycle chains after the run
	// (Report.Lineage) and renders analyzer verdicts that cite them
	// (Report.Verdicts). Reconstruction is purely offline — it reads the
	// finished trace and probe stream — so, like Telemetry, it cannot
	// change the simulated history. With Telemetry also on, chains gain
	// the endpoint-internal nodes (rewind, rto-fire, rate-cut,
	// completion) only probes can witness.
	Lineage bool

	// INT enables in-band telemetry: NIC egress ports, switch egress
	// ports and the injector's match-action pipeline stamp every
	// forwarded RoCE packet with hop ID, timestamp, queue depth and
	// link utilization in iCRC-invariant header fields; the collected
	// stamps are joined with lineage chains into Report.INT (serialized
	// to int.json by WriteArtifacts). INT is observe-only like Telemetry
	// and Lineage: trace, verdicts, and summary.json are byte-identical
	// with it on or off. Per-hop breakdowns require Lineage (the join
	// keys on its chains); stamp collection alone does not.
	INT bool

	// Coverage attaches the behavioral coverage map: transport-FSM,
	// DCQCN, ETS-arbiter and injector match-action branches record which
	// (site, transition) pairs the run exercised, collected into
	// Report.Coverage (serialized to coverage.json by WriteArtifacts).
	// Coverage is observe-only like Telemetry: recording increments a
	// preallocated counter and never schedules events or reads RNG, so
	// trace, verdicts, and summary.json are byte-identical with it on or
	// off, and coverage.json itself is byte-identical at any engine
	// worker count and with INT on or off.
	Coverage bool

	// Transport, when non-empty, overrides the scenario's transport for
	// every connection ("rc", "uc", or "ud") — the -transport CLI knob
	// and the transport-matrix CI axis. It clears any per-connection
	// qp-transport mix, is validated against the scenario's verb and
	// message-size constraints by config.Validate, and participates in
	// Fingerprint: the override changes the simulated history, so cached
	// results are keyed by it.
	Transport string

	// Deprecated: Shards is ignored (one event loop); bench/ still sets it.
	Shards int
}

// DefaultOptions allows generous virtual time for timeout-heavy tests.
func DefaultOptions() Options {
	return Options{Deadline: 600 * sim.Second}
}

// Fingerprint renders the options that can change a run's artifacts
// into a canonical string — the "options" dimension of a result-cache
// key. Two runs of the same scenario with the same fingerprint (and the
// same code version) produce byte-identical artifacts.
func (o Options) Fingerprint() string {
	d := o.Deadline
	if d <= 0 {
		d = DefaultOptions().Deadline
	}
	flag := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	return fmt.Sprintf("deadline=%d;telemetry=%c;lineage=%c;int=%c;coverage=%c;transport=%s",
		int64(d), flag(o.Telemetry), flag(o.Lineage), flag(o.INT), flag(o.Coverage), o.Transport)
}

// DumperStat summarizes one dumper node.
type DumperStat struct {
	Node     int    `json:"node"`
	Rx       uint64 `json:"rx_packets"`
	Discards uint64 `json:"rx_discards"`
	Captured uint64 `json:"captured"`
}

// Report bundles everything the orchestrator collects (Table 1).
type Report struct {
	Config  config.Test      `json:"config"`
	Traffic *traffic.Results `json:"traffic"`

	RequesterCounters map[string]uint64 `json:"requester_counters"`
	ResponderCounters map[string]uint64 `json:"responder_counters"`

	SwitchTotals  injector.PortCounters   `json:"switch_totals"`
	SwitchPerPort []injector.PortCounters `json:"switch_per_port"`
	DumperStats   []DumperStat            `json:"dumper_stats"`

	IntegrityOK     bool   `json:"integrity_ok"`
	IntegrityDetail string `json:"integrity_detail,omitempty"`

	TimedOut   bool     `json:"timed_out"`
	DurationNs sim.Time `json:"duration_ns"`

	// Metrics is the telemetry registry snapshot; nil unless
	// Options.Telemetry was set. Serialized to metrics.json by
	// WriteArtifacts (omitted from report.json to keep it stable).
	Metrics *telemetry.MetricsSnapshot `json:"-"`
	// Events is the probe stream in emission order, decoded from the
	// probe log; nil unless Options.Telemetry was set. timeline.json
	// renders from the log itself (hub); this flat copy is kept for
	// callers that index the stream, such as the benchmark's lineage pass.
	Events []telemetry.Event `json:"-"`
	hub    *telemetry.Hub

	// Trace is the reconstructed packet trace (not serialized to JSON;
	// use WriteArtifacts for a pcap).
	Trace *trace.Trace `json:"-"`

	// Lineage is the causal packet-lifecycle DAG; nil unless
	// Options.Lineage was set. Serialized (via Summary) to summary.json
	// by WriteArtifacts.
	Lineage *lineage.Graph `json:"-"`
	// Analysis holds the trace analyzers' findings, and Verdicts their
	// pass/fail judgements citing lineage chains; both nil unless
	// Options.Lineage was set.
	Analysis *analyzer.Analysis `json:"-"`
	Verdicts []analyzer.Verdict `json:"-"`

	// INT is the in-band telemetry report (per-hop stamps joined to
	// lineage chains); nil unless Options.INT was set. Serialized to
	// int.json by WriteArtifacts, and deliberately kept out of
	// report.json and summary.json so INT-enabled runs replay against
	// INT-agnostic corpus goldens.
	INT *INTReport `json:"-"`

	// Coverage is the behavioral coverage snapshot ((site, transition)
	// pair counts); nil unless Options.Coverage was set. Serialized to
	// coverage.json by WriteArtifacts and kept out of report.json and
	// summary.json so coverage-enabled runs replay against
	// coverage-agnostic corpus goldens.
	Coverage *coverage.Report `json:"-"`
}

// Testbed is the assembled simulation, exposed so tests and experiment
// harnesses can inspect components mid-run.
type Testbed struct {
	Cfg  config.Test
	Opts Options

	// Sim is the event loop every component of the testbed runs on.
	Sim *sim.Simulator
	// Deprecated: Fabric is always nil; bench/ still tests it for nil.
	Fabric *sim.Simulator

	// Hosts are the NICs under test in topology order: requester then
	// responder on a pair testbed; the incast sink (host 0) then the
	// senders on a fabric. Flows are the traffic generators, one per
	// sender→receiver pair (Flows[i].Req / .Resp are its NICs).
	Hosts []*rnic.NIC
	Flows []*traffic.Pair

	// Switch is the injector: the pair testbed's only switch, a fabric's
	// spine.
	Switch *injector.Switch
	Pool   *dumper.Pool

	// Ports holds every port in link creation order, both ends of a link
	// adjacent (host links, trunks, then dumper links); Execute
	// publishes their queue/utilization gauges into the metrics
	// registry.
	Ports []*sim.Port

	topo topology
	obs  observer
}

// unreliableQPNs unions the UC/UD destination-QPN sets of every flow.
// Nil for all-RC runs, keeping the historical verdict shape.
func (tb *Testbed) unreliableQPNs() map[uint32]bool {
	var set map[uint32]bool
	for _, p := range tb.Flows {
		for qpn := range p.UnreliableQPNs() {
			if set == nil {
				set = map[uint32]bool{}
			}
			set[qpn] = true
		}
	}
	return set
}

// Build assembles the testbed for cfg without starting traffic.
func Build(cfg config.Test, opts Options) (*Testbed, error) {
	if opts.Transport != "" {
		if _, err := rnic.ParseTransport(opts.Transport); err != nil {
			return nil, err
		}
		cfg.Traffic.Transport = opts.Transport
		cfg.Traffic.QPTransport = nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Deadline <= 0 {
		opts.Deadline = DefaultOptions().Deadline
	}
	t := topologyOf(cfg)
	return t.build(cfg, opts)
}

// trafficResults folds the flows' snapshots in flow order, reindexing
// connections; a lone flow's fold is its own snapshot.
func (tb *Testbed) trafficResults() *traffic.Results {
	out := &traffic.Results{Conns: make([]traffic.ConnStats, 0, len(tb.Flows)*tb.Cfg.Traffic.NumConnections)}
	for _, p := range tb.Flows {
		r := p.Snapshot()
		for _, c := range r.Conns {
			c.Index = len(out.Conns)
			out.Conns = append(out.Conns, c)
		}
		if out.Start == 0 || (r.Start != 0 && r.Start < out.Start) {
			out.Start = r.Start
		}
		out.End = max(out.End, r.End)
	}
	return out
}

// counters sums the NIC counters of the hosts on one side of the
// scenario — responders (sinks) or requesters (senders).
func (tb *Testbed) counters(responder bool) map[string]uint64 {
	var out map[string]uint64
	for i, h := range tb.topo.hosts {
		if h.responder != responder {
			continue
		}
		snap := tb.Hosts[i].Counters.Snapshot()
		if out == nil {
			out = snap
			continue
		}
		for k, v := range snap {
			out[k] += v
		}
	}
	return out
}

// Execute runs traffic to completion (or the deadline), collects all
// results, reconstructs the trace and performs the integrity check. It
// closes tb.Sim once the dumpers are terminated, so a testbed executes
// once.
func (tb *Testbed) Execute() (*Report, error) {
	s, hub := tb.Sim, tb.obs.hub
	hub.Emit(telemetry.KindRunPhase, "orchestrator", "traffic")
	for _, p := range tb.Flows {
		if err := p.Start(nil); err != nil {
			return nil, err
		}
	}

	s.DrainUntil(sim.Time(tb.Opts.Deadline))
	timedOut := false
	for _, p := range tb.Flows {
		timedOut = timedOut || !p.Finished()
	}
	if !timedOut {
		// Drain trailing events (mirrors in flight, dumper processing).
		hub.Emit(telemetry.KindRunPhase, "orchestrator", "drain")
		s.Run()
	}

	// TERM the dumpers and rebuild the trace (§3.4, §3.5).
	hub.Emit(telemetry.KindRunPhase, "orchestrator", "terminate")
	records := tb.Pool.Terminate()
	// The dumpers have released their last frame and nothing below
	// reads one: the next testbed may have this one's frames and events.
	s.Close()
	tr, err := trace.Reconstruct(records)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: trace reconstruction: %w", err)
	}

	rep := &Report{
		Config:            tb.Cfg,
		Traffic:           tb.trafficResults(),
		RequesterCounters: tb.counters(false),
		ResponderCounters: tb.counters(true),
		SwitchTotals:      tb.Switch.Totals(),
		SwitchPerPort:     tb.Switch.PerPort(),
		TimedOut:          timedOut,
		DurationNs:        s.Now(),
		Trace:             tr,
	}
	for _, n := range tb.Pool.Nodes {
		rep.DumperStats = append(rep.DumperStats, DumperStat{
			Node: n.Index, Rx: n.RxPackets, Discards: n.RxDiscards, Captured: n.Captured,
		})
	}
	if tb.Cfg.Switch.Mirror && !tb.Cfg.Switch.L2Only {
		err := tr.IntegrityCheck(tb.Switch.MirrorCount(), tb.Switch.Totals().RxRoCE)
		rep.IntegrityOK = err == nil
		if err != nil {
			rep.IntegrityDetail = err.Error()
		}
	} else {
		rep.IntegrityOK = true
		rep.IntegrityDetail = "mirroring disabled; no trace collected"
	}
	if tb.Opts.Lineage {
		// Offline reconstruction over finished state: the simulation is
		// already terminated, so this cannot perturb the trace. The
		// verdict probes are emitted before the Events snapshot so they
		// appear as instants on the orchestrator timeline track.
		rep.Lineage = lineage.Build(tr, hub.Events())
		hosts, unjudged := tb.hostViews(rep)
		rep.Analysis = analyzer.Analyze(tr, analyzer.VerdictOptions{UnreliableQPNs: tb.unreliableQPNs(), Hosts: hosts, Unjudged: unjudged})
		rep.Verdicts = rep.Analysis.Verdicts(rep.Lineage)
		emitVerdicts(hub, "orchestrator", rep.Verdicts)
	}
	tb.obs.collect(tb, rep)
	return rep, nil
}

// emitVerdicts publishes analyzer judgements as instants on track.
func emitVerdicts(hub *telemetry.Hub, track string, verdicts []analyzer.Verdict) {
	for _, v := range verdicts {
		result := "pass"
		if !v.Pass {
			result = "fail"
		}
		hub.EmitArgs(telemetry.KindVerdict, track, v.Analyzer,
			telemetry.S("result", result),
			telemetry.S("reason", v.Reason))
	}
}

// Run builds and executes a test in one call.
func Run(cfg config.Test, opts Options) (*Report, error) {
	tb, err := Build(cfg, opts)
	if err != nil {
		return nil, err
	}
	return tb.Execute()
}

// Artifact names, in the order Artifacts lists them. This block is the
// one place they are spelled; every consumer refers to the constants.
const (
	ReportName   = "report.json"
	TraceName    = "trace.pcap"
	MetricsName  = "metrics.json"
	TimelineName = "timeline.json"
	SummaryName  = "summary.json"
	INTName      = "int.json"
	CoverageName = "coverage.json"
)

// Artifact is one file a finished run produces: its name and the
// function that streams its bytes.
type Artifact struct {
	Name   string
	Render func(io.Writer) error
}

// Bytes renders the artifact into memory.
func (a Artifact) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", a.Name, err)
	}
	return buf.Bytes(), nil
}

// Artifacts is the ordered table of what this run produced — the single
// description WriteArtifacts, resultcache.Render, corpus replay dumps and
// the CLIs' -timeline/-metrics all consume. report.json is always
// present; every other entry appears only when the option behind it was
// on (trace.pcap: a trace was collected; metrics.json and timeline.json:
// Telemetry; summary.json: Lineage; int.json: INT; coverage.json:
// Coverage).
func (r *Report) Artifacts() []Artifact {
	table := [...]struct {
		on bool
		Artifact
	}{
		{true, Artifact{ReportName, r.writeReport}},
		{r.Trace != nil, Artifact{TraceName, func(w io.Writer) error { return r.Trace.WritePcap(w) }}},
		{r.Metrics != nil, Artifact{MetricsName, func(w io.Writer) error { return writeJSON(w, r.Metrics) }}},
		{r.hub != nil, Artifact{TimelineName, func(w io.Writer) error { return telemetry.WriteTimeline(w, r.hub) }}},
		{r.Lineage != nil, Artifact{SummaryName, r.WriteSummary}},
		{r.INT != nil, Artifact{INTName, r.WriteINT}},
		{r.Coverage != nil, Artifact{CoverageName, r.WriteCoverage}},
	}
	arts := make([]Artifact, 0, len(table))
	for _, t := range table {
		if t.on {
			arts = append(arts, t.Artifact)
		}
	}
	return arts
}

// writeReport renders report.json, the one JSON artifact without a
// trailing newline.
func (r *Report) writeReport(w io.Writer) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(js)
	return err
}

// WriteArtifacts stores every entry of Artifacts in dir, each streamed
// into its file through one write buffer shared by all of them.
func (r *Report) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return r.writeArtifacts(dir, createFile)
}

func (r *Report) writeArtifacts(dir string, create fileCreator) error {
	bw := bufio.NewWriterSize(nil, artifactBufSize)
	for _, a := range r.Artifacts() {
		if err := writeFile(bw, create, filepath.Join(dir, a.Name), a.Render); err != nil {
			return err
		}
	}
	return nil
}

// WriteArtifact streams the one table entry called name into the file at
// path — how a CLI places a single artifact somewhere of the user's
// choosing (`lumina run -timeline`, `-metrics`).
func (r *Report) WriteArtifact(name, path string) error {
	for _, a := range r.Artifacts() {
		if a.Name == name {
			return writeFile(bufio.NewWriterSize(nil, artifactBufSize), createFile, path, a.Render)
		}
	}
	return fmt.Errorf("orchestrator: this run produced no %s", name)
}

// artifactBufSize is the write buffer between a renderer and its file.
// Renderers emit a packet record or a timeline event at a time; the file
// should see a write per tens of KiB, not per record. (A renderer that
// hands over its whole output at once, as the JSON artifacts do, passes
// straight through an empty buffer.)
const artifactBufSize = 64 << 10

// fileCreator opens an artifact's destination: createFile, or a test's
// instrumented stand-in.
type fileCreator func(path string) (io.WriteCloser, error)

func createFile(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// writeFile streams one artifact through bw into a fresh file at path.
// Buffered bytes may fail to reach the file only at the flush, and a
// short write may surface only when the file is closed, so Flush's and
// Close's errors are the artifact's errors too.
func writeFile(bw *bufio.Writer, create fileCreator, path string, render func(io.Writer) error) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	bw.Reset(f)
	if err = render(bw); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close() // the render or flush error is the one to report
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
