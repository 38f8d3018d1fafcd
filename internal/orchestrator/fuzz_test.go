package orchestrator

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// fuzzScenarios seeds f with every checked-in scenario document.
func fuzzScenarios(f *testing.F) {
	for _, g := range []string{"configs/*.yaml", "corpus/*/scenario.yaml", "bench/workloads/*.yaml", "examples/*/*.yaml"} {
		files, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
}

// FuzzExecute feeds scenario bytes through config.Parse, Build and
// Execute, bare and with every observer on, under a short virtual
// deadline. Whatever Parse accepts must run: a refusal from Build is an
// answer, but a panic, an exhausted memory or a failed Execute is a
// finding. The extra seeds are values Parse once accepted and the run
// then crashed on, failed on, or applied to a different packet.
func FuzzExecute(f *testing.F) {
	fuzzScenarios(f)
	for _, src := range []string{
		"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 2, type: delay, delay-us: 10000000000000000}\n",
		"switch: {pipeline-latency-ns: 9000000000000000000}\n",
		"dumper-pool: {per-core-gbps: 1e-19}\n",
		"traffic: {message-size: 1000000000000, mtu: 1000000000000}\n",
		"dumper-pool: {trim-bytes: 60}\n",
		"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: drop, iter: 4294967297}\n",
		"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 16777218, type: drop}\n",
		"requester:\n  roce-parameters: {min-time-between-cnps: 10000000000000000}\n",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := config.Parse(data)
		if err != nil {
			return
		}
		for _, opts := range fuzzOptions(2 * sim.Millisecond) {
			tb, err := Build(cfg, opts)
			if err != nil {
				continue
			}
			if _, err := tb.Execute(); err != nil {
				t.Fatalf("accepted scenario failed to run: %v\n%s", err, data)
			}
		}
	})
}

// FuzzBuild is FuzzExecute without Execute. It explores the inputs Build
// sees far faster, so it stays as a local target: whatever Parse
// accepts, Build must assemble or refuse with an error, never panic or
// allocate past what Validate's size limits allow.
func FuzzBuild(f *testing.F) {
	fuzzScenarios(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := config.Parse(data)
		if err != nil {
			return
		}
		for _, opts := range fuzzOptions(0) {
			_, _ = Build(cfg, opts) // a refusal is an answer; a panic is not
		}
	})
}

// fuzzOptions returns the two ways the fuzz targets run a scenario:
// bare, and with every observer on.
func fuzzOptions(deadline sim.Duration) []Options {
	observed := Options{Deadline: deadline, Telemetry: true, Lineage: true, INT: true, Coverage: true}
	return []Options{{Deadline: deadline}, observed}
}
