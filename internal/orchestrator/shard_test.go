package orchestrator

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/sim"
)

// artifactTree runs cfg at the given shard count and returns every
// artifact file's bytes keyed by name — the whole externally visible
// output of a run.
func artifactTree(t *testing.T, cfg config.Test, opts Options) map[string][]byte {
	t.Helper()
	rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// requireIdenticalTrees fails on any file present in one tree but not
// the other, or differing in bytes.
func requireIdenticalTrees(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: artifact %s missing", label, name)
			continue
		}
		if string(w) != string(g) {
			t.Errorf("%s: artifact %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected extra artifact %s", label, name)
		}
	}
}

func shardOpts(shards int) Options {
	o := DefaultOptions()
	o.Telemetry = true
	o.Lineage = true
	o.INT = true
	o.Coverage = true
	o.Shards = shards
	return o
}

// TestPairArtifactsIdenticalAcrossShards is the acceptance test for the
// two-host testbed: the full artifact set — summary.json, int.json,
// coverage.json, metrics.json, timeline.json, trace.pcap, report.json —
// is byte-identical at every Shards value. All of them take the one
// build/Execute path; they differ only in placement (one node at 0 and
// 1, three above) and in the parallelism cap (2, 3 = the pair's node
// count, NumCPU).
func TestPairArtifactsIdenticalAcrossShards(t *testing.T) {
	cfg := baseCfg()
	cfg.Traffic.Events = []config.Event{{Iter: 1, QPN: 1, PSN: 4, Type: "ecn"}}

	want := artifactTree(t, cfg, shardOpts(1))
	for _, n := range []int{0, 2, 3, runtime.NumCPU()} {
		got := artifactTree(t, cfg, shardOpts(n))
		requireIdenticalTrees(t, want, got, "shards="+itoa(n))
	}
}

// TestTimeoutArtifactsIdenticalAcrossShards covers the partial-result
// path: a deadline that expires mid-traffic must leave the one-node and
// the three-node placement with the same timed-out report, byte for
// byte.
func TestTimeoutArtifactsIdenticalAcrossShards(t *testing.T) {
	cfg := baseCfg()
	opts1 := shardOpts(1)
	opts1.Deadline = 20 * sim.Microsecond
	opts2 := shardOpts(2)
	opts2.Deadline = 20 * sim.Microsecond

	rep, err := Run(cfg, opts1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut {
		t.Fatal("deadline was expected to expire mid-traffic; tighten it")
	}
	want := artifactTree(t, cfg, opts1)
	got := artifactTree(t, cfg, opts2)
	requireIdenticalTrees(t, want, got, "timeout shards=2")
}

// TestFabricIncastArtifactsIdenticalAcrossShards scales the identity
// guarantee to the leaf-spine topology: a 16-host incast produces the
// same bytes at shards=1 (serial window execution) and shards=8
// (parallel shard draining).
func TestFabricIncastArtifactsIdenticalAcrossShards(t *testing.T) {
	cfg := config.Default()
	cfg.Name = "incast-test"
	cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 8, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.NumConnections = 2
	cfg.Traffic.NumMsgsPerQP = 2
	cfg.Traffic.Events = nil

	want := artifactTree(t, cfg, shardOpts(1))
	got := artifactTree(t, cfg, shardOpts(8))
	requireIdenticalTrees(t, want, got, "incast shards=8")
	if len(want) == 0 {
		t.Fatal("incast run produced no artifacts")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
