// Package lumina is the public façade of Lumina-Go: a deterministic
// simulation-based reproduction of "Understanding the Micro-Behaviors of
// Hardware Offloaded Network Stacks with Lumina" (SIGCOMM 2023).
//
// A test is described by a Config (the paper's YAML schema, Listings
// 1–2), executed by Run/RunFile against simulated RDMA NICs (behavioural
// models of NVIDIA ConnectX-4 Lx / ConnectX-5 / ConnectX-6 Dx and Intel
// E810, plus an IB-spec-exact baseline), a programmable-switch event
// injector, and a traffic-dumper pool. The returned Report carries every
// artifact the paper's orchestrator collects — the reconstructed,
// integrity-checked packet trace, NIC/switch counters, and the traffic
// generator's goodput and message-completion-time logs — ready for the
// bundled analyzers (Go-back-N logic checking, retransmission latency
// breakdown, CNP behaviour, counter consistency) and the genetic fuzzer.
//
// Quickstart:
//
//	cfg := lumina.DefaultConfig()
//	cfg.Requester.NIC.Type = "cx5"
//	cfg.Responder.NIC.Type = "cx5"
//	cfg.Traffic.Events = []lumina.Event{{QPN: 1, PSN: 5, Type: "drop", Iter: 1}}
//	rep, err := lumina.Run(cfg)
//	// inspect rep.Trace, rep.RequesterCounters, lumina.CheckGoBackN(rep.Trace)…
package lumina

import (
	"context"
	"io"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/fuzz"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/minimize"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/perfgate"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
	"github.com/lumina-sim/lumina/internal/version"
)

// Configuration types (the paper's Listings 1–2 schema).
type (
	Config     = config.Test
	Host       = config.Host
	Traffic    = config.Traffic
	Event      = config.Event
	RoCEParams = config.RoCE
	ETSQueue   = config.ETSQueue
	SwitchCfg  = config.Switch
	DumperCfg  = config.DumperPool
)

// Execution and results.
type (
	Report     = orchestrator.Report
	Options    = orchestrator.Options
	Trace      = trace.Trace
	TraceEntry = trace.Entry
	ConnKey    = trace.ConnKey
)

// Telemetry (Options.Telemetry: the probe bus, metrics registry, and
// Perfetto-compatible timeline export).
type (
	Metrics        = telemetry.MetricsSnapshot
	TelemetryEvent = telemetry.Event
)

// WriteTimeline renders a recorded probe stream (Report.Events) as
// Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
func WriteTimeline(w io.Writer, events []TelemetryEvent) error {
	return telemetry.WriteTimeline(w, events)
}

// Analyzer types (§4's built-in test suite).
type (
	GBNReport      = analyzer.GBNReport
	Violation      = analyzer.Violation
	RetransEvent   = analyzer.RetransEvent
	CNPReport      = analyzer.CNPReport
	Inconsistency  = analyzer.Inconsistency
	HostView       = analyzer.HostView
	Verdict        = analyzer.Verdict
	VerdictOptions = analyzer.VerdictOptions
	SilentLoss     = analyzer.SilentLoss
)

// Transports (Options.Transport / the scenario's transport fields):
// the pluggable RoCE service types behind internal/rnic's StackModel
// seam — "rc" (Go-back-N reliable connection, the default), "uc"
// (NAK-less sequenced delivery: out-of-sequence packets are dropped
// without retransmission), and "ud" (single-MTU datagrams with no
// sequencing at all).
type Transport = rnic.Transport

// Transport values.
const (
	TransportRC = rnic.TransportRC
	TransportUC = rnic.TransportUC
	TransportUD = rnic.TransportUD
)

// ParseTransport resolves a transport name ("" means RC); unknown names
// error, listing the valid transports.
func ParseTransport(name string) (Transport, error) { return rnic.ParseTransport(name) }

// TransportNames lists the valid transport names, sorted.
func TransportNames() []string { return rnic.TransportNames() }

// AnalyzeSilentLoss checks the UC/UD silent-loss contract: drops into
// the given destination QPNs must provoke neither a NAK nor a
// retransmission on the wire.
func AnalyzeSilentLoss(tr *Trace, unreliable map[uint32]bool) []SilentLoss {
	return analyzer.AnalyzeSilentLoss(tr, unreliable)
}

// Lineage (Options.Lineage: the causal packet-lifecycle DAG behind
// Report.Lineage, `lumina trace explain`, and summary.json).
type (
	LineageGraph = lineage.Graph
	LineageChain = lineage.Chain
	LineageNode  = lineage.Node
	RunSummary   = orchestrator.Summary
)

// BuildLineage reconstructs causal chains from a trace and an optional
// probe stream (nil events yields wire-visible chains only). Runs made
// with Options.Lineage already carry the graph in Report.Lineage.
func BuildLineage(tr *Trace, events []TelemetryEvent) *LineageGraph {
	return lineage.Build(tr, events)
}

// In-band telemetry (Options.INT: per-hop INT stamping in spare,
// iCRC-masked header fields, collected into Report.INT / int.json and
// joined with lineage chains for hop-level latency attribution — see
// `lumina trace hops`).
type (
	INTReport     = orchestrator.INTReport
	INTStamp      = inband.Stamp
	INTHopSummary = inband.HopSummary
	INTChainHops  = inband.ChainHops
	INTHopDigest  = inband.HopDigest
)

// Behavioral coverage (Options.Coverage: deterministic (site,
// transition) pair recording across the transport FSM, DCQCN, ETS
// arbiter, and injector match-action pipeline, collected into
// Report.Coverage / coverage.json and diffed with `lumina trace
// coverage`; the frontier union across a corpus comes from
// `lumina corpus coverage`).
type (
	CoverageReport   = coverage.Report
	CoverageSite     = coverage.SiteReport
	CoverageDiff     = coverage.Diff
	CoverageFrontier = corpus.FrontierFile
)

// CoverageSchema versions coverage.json (see Report.WriteCoverage).
const CoverageSchema = coverage.Schema

// DiffCoverage reports the (site, transition) pairs covered by only
// one of two reports.
func DiffCoverage(a, b *CoverageReport) CoverageDiff { return coverage.DiffReports(a, b) }

// ReadCoverage parses a coverage.json document.
func ReadCoverage(data []byte) (*CoverageReport, error) { return coverage.ReadReport(data) }

// CoverageUniverse is the total number of recordable (site, transition)
// pairs across every instrumented site.
func CoverageUniverse() int { return coverage.Total() }

// Fuzzing (§4, Algorithm 1). FuzzOptions.Coverage turns the genetic
// search coverage-guided: mutants that light up new (site, transition)
// pairs stay in the pool regardless of score, and below-threshold
// frontier-advancing runs surface as FuzzResult.CoverageSeeds.
type (
	FuzzTarget   = fuzz.Target
	FuzzParam    = fuzz.Param
	FuzzOptions  = fuzz.Options
	FuzzResult   = fuzz.Result
	FuzzFinding  = fuzz.Finding
	Genome       = fuzz.Genome
	FindingsFile = fuzz.FindingsFile
)

// Duration is virtual time in nanoseconds.
type Duration = sim.Duration

// NIC model names accepted in Config.…NIC.Type.
const (
	ModelCX4  = rnic.ModelCX4
	ModelCX5  = rnic.ModelCX5
	ModelCX6  = rnic.ModelCX6
	ModelE810 = rnic.ModelE810
	ModelSpec = rnic.ModelSpec
)

// DefaultConfig returns a runnable baseline configuration (spec NICs,
// one 10 KB Write, full Lumina switch, 4-node dumper pool).
func DefaultConfig() Config { return config.Default() }

// LoadConfig reads a yamlite test configuration file.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// ParseConfig decodes a yamlite test configuration.
func ParseConfig(data []byte) (Config, error) { return config.Parse(data) }

// Run executes a test with default options and collects all artifacts.
func Run(cfg Config) (*Report, error) {
	return orchestrator.Run(cfg, orchestrator.DefaultOptions())
}

// RunWithOptions executes a test with explicit options (e.g. a virtual-
// time deadline for loss-heavy scenarios).
func RunWithOptions(cfg Config, opts Options) (*Report, error) {
	return orchestrator.Run(cfg, opts)
}

// RunFile loads and executes a configuration file.
func RunFile(path string) (*Report, error) {
	cfg, err := config.Load(path)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// RunAll executes a batch of tests on the deterministic parallel run
// engine (workers: 0 = one per CPU, 1 = serial) and returns the
// reports in input order. Every run is an independent deterministic
// simulation, so the artifacts are byte-identical for every worker
// count; the first failure aborts the batch with the offending job
// named.
func RunAll(cfgs []Config, workers int) ([]*Report, error) {
	return engine.RunConfigs(context.Background(), cfgs,
		orchestrator.DefaultOptions(), engine.Options{Workers: workers})
}

// CheckGoBackN validates a trace against the Go-back-N retransmission
// specification (§4's FSM-based logic analyzer).
func CheckGoBackN(tr *Trace) *GBNReport { return analyzer.CheckGoBackN(tr) }

// AnalyzeRetransmissions extracts the Figure-5 latency breakdown (NACK
// generation and reaction phases) for every injected drop.
func AnalyzeRetransmissions(tr *Trace) []RetransEvent {
	return analyzer.AnalyzeRetransmissions(tr)
}

// AnalyzeCNP inspects congestion-notification behaviour: counts,
// spacing, and rate-limiter scope inference (§6.3).
func AnalyzeCNP(tr *Trace) *CNPReport { return analyzer.AnalyzeCNP(tr) }

// CheckCounters cross-checks hardware counters against the trace,
// surfacing §6.2.4-style counter bugs.
func CheckCounters(tr *Trace, hosts ...HostView) []Inconsistency {
	return analyzer.CheckCounters(tr, hosts...)
}

// HostViewOf builds the counter analyzer's view of one host from a run.
func HostViewOf(name string, h Host, counters map[string]uint64) HostView {
	v := HostView{Name: name, Counters: counters}
	for _, ip := range h.NIC.IPList {
		v.IPs = append(v.IPs, ip.String())
	}
	return v
}

// Regression corpus: minimized reproducers of anomalous runs, stored
// content-addressed with golden verdicts/digests and replayed as a
// cross-profile conformance matrix (see `lumina corpus`).
type (
	MinimizeOptions = minimize.Options
	MinimizeResult  = minimize.Result
	MinimizeStep    = minimize.Step
	MinimizeAnomaly = minimize.Anomaly
	CorpusEntry     = corpus.Entry
	CorpusMeta      = corpus.Meta
	CorpusMatrix    = corpus.Matrix
	ReplayOptions   = corpus.ReplayOptions
)

// MinimizeFinding delta-debugs a fuzzer finding's configuration down to
// a minimal reproducer whose analyzer-verdict signature matches the
// original's. Candidate batches run on the deterministic engine, so the
// minimized scenario and step log are byte-identical at any
// MinimizeOptions.Workers.
func MinimizeFinding(f FuzzFinding, opts MinimizeOptions) (*MinimizeResult, error) {
	return minimize.Minimize(f.Report.Config, opts)
}

// MinimizeConfig delta-debugs an arbitrary anomalous configuration (the
// non-fuzzer entry point; see MinimizeFinding).
func MinimizeConfig(cfg Config, opts MinimizeOptions) (*MinimizeResult, error) {
	return minimize.Minimize(cfg, opts)
}

// AddToCorpus admits a scenario into the content-addressed regression
// corpus at dir, recording golden verdicts and summary digests for
// every built-in NIC profile. The second result reports whether the
// entry is new (false = duplicate content hash, nothing written).
func AddToCorpus(dir string, cfg Config, meta CorpusMeta) (*CorpusEntry, bool, error) {
	return corpus.Add(dir, cfg, meta, corpus.RunOptions{})
}

// ReplayCorpus re-runs every corpus entry under every profile (nil =
// all built-in models) and returns the conformance matrix: pass /
// verdict-drift / digest-drift / error per (entry, profile), identical
// for every worker count.
func ReplayCorpus(dir string, profiles []string, workers int) (*CorpusMatrix, error) {
	return corpus.Replay(context.Background(), dir,
		corpus.ReplayOptions{Profiles: profiles, Workers: workers})
}

// NewFuzzer prepares an Algorithm-1 genetic fuzzer over a target.
func NewFuzzer(target FuzzTarget, opts FuzzOptions) (*fuzz.Fuzzer, error) {
	return fuzz.New(target, opts)
}

// NoisyNeighborTarget is the built-in fuzz target that rediscovers the
// §6.2.2 CX4 Lx noisy-neighbor bug.
func NoisyNeighborTarget(model string) FuzzTarget {
	return fuzz.NoisyNeighborTarget(model)
}

// Models lists the built-in NIC models.
func Models() []string { return rnic.ModelNames() }

// Performance gate: checked-in allocation budgets for the simulator's
// hot paths, measured deterministically (allocs/op and bytes/op are
// properties of the compiled program, not the machine — see DESIGN.md
// §3.10). CI enforces them via TestPerfBudgets and `lumina bench -gate`.
type (
	PerfBudget    = perfgate.Budget
	PerfResult    = perfgate.Result
	PerfViolation = perfgate.Violation
)

// PerfBudgets returns the embedded budget table
// (internal/perfgate/perf_budgets.json).
func PerfBudgets() ([]PerfBudget, error) { return perfgate.Budgets() }

// PerfGate measures every budgeted workload and reports the
// measurements plus any busted budgets (empty violations = gate
// passes).
func PerfGate() ([]PerfResult, []PerfViolation, error) { return perfgate.Gate() }

// Build identity (debug.ReadBuildInfo): printed by every CLI's
// -version flag, embedded in summary.json, and the fourth dimension of
// result-cache keys — a new revision invalidates cached results.
type BuildInfo = version.Info

// Version returns the human build-identity line (module, version,
// revision, toolchain).
func Version() string { return version.String() }

// BuildStamp returns the compact machine form of the build identity
// used in cache keys and artifacts ("rev12", "rev12.dirty", or the
// module version for unstamped builds).
func BuildStamp() string { return version.Stamp() }

// Result cache (DESIGN.md §3.14): runs are pure functions of
// (scenario, profile, options, code version), so artifacts are stored
// content-addressed and reused by `lumina corpus replay -cache` and
// the `lumina serve` daemon. Reads are digest-verified (corruption =
// miss), writes are atomic, eviction is LRU.
type (
	ResultCache      = resultcache.Cache
	ResultCacheKey   = resultcache.Key
	ResultCacheStats = resultcache.Stats
)

// OpenResultCache opens (creating if needed) a result cache rooted at
// dir. maxBytes > 0 bounds the store with LRU eviction; 0 = unbounded.
func OpenResultCache(dir string, maxBytes int64) (*ResultCache, error) {
	return resultcache.Open(dir, maxBytes)
}

// ResultCacheKeyFor derives the cache key identifying cfg run under
// the given NIC profile ("" = as configured) and options, stamped with
// this binary's build identity.
func ResultCacheKeyFor(cfg Config, profile string, opts Options) (ResultCacheKey, error) {
	return resultcache.KeyFor(cfg, profile, opts)
}
