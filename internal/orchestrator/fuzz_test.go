package orchestrator

import (
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// scenarioFiles lists every checked-in scenario document.
func scenarioFiles(t testing.TB) []string {
	var files []string
	for _, g := range []string{"configs/*.yaml", "corpus/*/scenario.yaml", "bench/workloads/*.yaml", "examples/*/*.yaml"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	return files
}

// fuzzScenarios seeds f with every checked-in scenario document.
func fuzzScenarios(f *testing.F) {
	for _, path := range scenarioFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// TestConfigCorpus runs every checked-in scenario end to end, holds its
// host views to the trace, and reruns it from its marshalled form.
func TestConfigCorpus(t *testing.T) {
	files := scenarioFiles(t)
	if len(files) == 0 {
		t.Fatal("no checked-in scenarios found")
	}
	for _, f := range files {
		rel, _ := filepath.Rel(filepath.Join("..", ".."), f)
		t.Run(filepath.ToSlash(rel), func(t *testing.T) {
			cfg, err := config.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(cfg, Options{Lineage: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.TimedOut {
				t.Fatal("timed out")
			}
			if !rep.IntegrityOK {
				t.Fatalf("integrity: %s", rep.IntegrityDetail)
			}
			checkHostViews(t, rep)
			// Round-trip through the emitter and re-run deterministically.
			yml, err := cfg.MarshalYAML()
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := config.Parse(yml)
			if err != nil {
				t.Fatalf("re-parse: %v\n%s", err, yml)
			}
			rep2, err := Run(cfg2, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Trace.Entries) != len(rep.Trace.Entries) {
				t.Fatalf("marshalled config diverged: %d vs %d packets",
					len(rep2.Trace.Entries), len(rep.Trace.Entries))
			}
		})
	}
}

// checkHostViews holds the judged host views of a run's analysis to
// what the trace witnesses, counted here without the counter analyzer:
// on a finished run with a whole trace, each view's tx_roce_packets
// equals the trace entries sourced at its addresses, and a mirrored pair
// testbed whose hosts share no address is judged on both sides.
func checkHostViews(t *testing.T, rep *Report) {
	t.Helper()
	if rep.TimedOut || !rep.IntegrityOK {
		return
	}
	views := rep.Analysis.Hosts
	req, resp := rep.Config.Requester.NIC.IPList, rep.Config.Responder.NIC.IPList
	shared := slices.ContainsFunc(req, func(a netip.Addr) bool { return slices.Contains(resp, a) })
	if rep.Config.Fabric == nil && rep.Config.Switch.Mirror && !shared && len(views) != 2 {
		t.Fatalf("pair testbed judged on %d side(s), want 2", len(views))
	}
	for _, v := range views {
		var sourced uint64
		for i := range rep.Trace.Entries {
			if slices.Contains(v.IPs, rep.Trace.Entries[i].Src()) {
				sourced++
			}
		}
		if n := v.Counters[rnic.CtrTxRoCEPackets]; n != sourced {
			t.Fatalf("%s: %s=%d, but %d trace entries are sourced at %v", v.Name, rnic.CtrTxRoCEPackets, n, sourced, v.IPs)
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
		// One host per leaf: every flow crosses the spine, so both sides
		// are judged.
		"fabric: {leaves: 3, hosts-per-leaf: 1}\ntraffic: {num-connections: 2, num-msgs-per-qp: 2}\n",
		// The largest run Validate accepts: 4096 connections of 1024
		// packets each, 2^22 packets in all.
		"traffic: {num-connections: 4096, message-size: 1048576}\n",
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
			rep, err := tb.Execute()
			if err != nil {
				t.Fatalf("accepted scenario failed to run: %v\n%s", err, data)
			}
			if opts.Lineage {
				checkHostViews(t, rep)
			}
		}
	})
}

// FuzzBuild is FuzzExecute without Execute. It explores the inputs Build
// sees far faster: whatever Parse accepts, Build must assemble or refuse
// with an error, never panic or allocate past what Validate's size
// limits allow.
func FuzzBuild(f *testing.F) {
	fuzzScenarios(f)
	f.Add([]byte(`requester:
  nic: {type: cx4, profile: {no-ets-clamp: true, no-slow-path-wedge: true, no-strict-apm: true, ack-coalesce: 4194304}}
  ets-queues: [{weight: 50}, {weight: 50}]
responder:
  nic: {type: cx5, profile: {no-ets-clamp: true, no-slow-path-wedge: true, no-strict-apm: true, ack-coalesce: 1}}
`))
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
