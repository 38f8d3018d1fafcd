// Package lumina is the public façade of Lumina-Go: a deterministic
// simulation-based reproduction of "Understanding the Micro-Behaviors of
// Hardware Offloaded Network Stacks with Lumina" (SIGCOMM 2023).
//
// A test is described by a Config (the paper's YAML schema, Listings
// 1–2), executed by Run against simulated RDMA NICs (behavioural models
// of NVIDIA ConnectX-4 Lx / ConnectX-5 / ConnectX-6 Dx and Intel E810,
// plus an IB-spec-exact baseline), a programmable-switch event injector,
// and a traffic-dumper pool. The returned Report carries every artifact
// the paper's orchestrator collects — the reconstructed,
// integrity-checked packet trace, NIC/switch counters, and the traffic
// generator's goodput and message-completion-time logs. Runs made with
// Options.Lineage also carry the analyzers' findings (Report.Analysis),
// the counter-consistency check's among them, and their verdicts.
//
// The façade holds what the examples use; the lumina command and the
// packages under internal/ hold the rest.
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
	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/fuzz"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/trace"
)

// Configuration types (the paper's Listings 1–2 schema).
type (
	Config   = config.Test
	Event    = config.Event
	ETSQueue = config.ETSQueue
)

// Execution and results.
type (
	Report  = orchestrator.Report
	Options = orchestrator.Options
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

// CheckGoBackN validates a trace against the Go-back-N retransmission
// specification (§4's FSM-based logic analyzer).
func CheckGoBackN(tr *trace.Trace) *analyzer.GBNReport { return analyzer.CheckGoBackN(tr) }

// AnalyzeRetransmissions extracts the Figure-5 latency breakdown (NACK
// generation and reaction phases) for every injected drop.
func AnalyzeRetransmissions(tr *trace.Trace) []analyzer.RetransEvent {
	return analyzer.AnalyzeRetransmissions(tr)
}

// FuzzOptions tune the genetic fuzzer (§4, Algorithm 1).
type FuzzOptions = fuzz.Options

// NewFuzzer prepares an Algorithm-1 genetic fuzzer over a target.
func NewFuzzer(target fuzz.Target, opts FuzzOptions) (*fuzz.Fuzzer, error) {
	return fuzz.New(target, opts)
}

// NoisyNeighborTarget is the built-in fuzz target that rediscovers the
// §6.2.2 CX4 Lx noisy-neighbor bug.
func NoisyNeighborTarget(model string) fuzz.Target {
	return fuzz.NoisyNeighborTarget(model)
}
