package main

import (
	"maps"
	"strings"
	"testing"
)

// cpuRaw is a hand-built CPU profile as `go tool pprof -raw` prints it.
// The module lies in /src/lumina; Go's own internal packages lie in
// /usr/local/go/src/internal and must not read as layers.
const cpuRaw = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3
          1   10000000: 4 3
          2   20000000: 5 6
          1   10000000: 7
          4   40000000: 8 2 3
          1   10000000: 9 10
          5   50000000: 11 3
          0          0: 7
Locations
     1: 0x401000 M=1 runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1000:0 s=900
     2: 0x402000 M=1 github.com/lumina-sim/lumina/internal/packet.AppendWire /src/lumina/internal/packet/codec.go:40:0 s=30
     3: 0x403000 M=1 github.com/lumina-sim/lumina/internal/orchestrator.(*Testbed).Execute /src/lumina/internal/orchestrator/orchestrator.go:300:0 s=289
     4: 0x404000 M=1 github.com/lumina-sim/lumina/internal/orchestrator.(*topology).build.(*Switch).AttachHost.func1 /src/lumina/internal/injector/injector.go:184:0 s=184
     5: 0x405000 M=1 internal/runtime/maps.(*Map).getWithKey /usr/local/go/src/internal/runtime/maps/table.go:200:0 s=190
     6: 0x406000 M=1 runtime.goexit /usr/local/go/src/runtime/asm_amd64.s:1700:0 s=1699
     7: 0x407000 M=1 runtime.scanobject /usr/local/go/src/runtime/mgcmark.go:1400:0 s=1390
             runtime.gcDrain /usr/local/go/src/runtime/mgcmark.go:1200:0 s=1100
             runtime.gcBgMarkWorker /usr/local/go/src/runtime/mgc.go:1500:0 s=1400
     8: 0x408000 M=1 runtime.memmove /usr/local/go/src/runtime/memmove_amd64.s:100:0 s=1
             github.com/lumina-sim/lumina/internal/dumper.(*Log).add /src/lumina/internal/dumper/dumper.go:210:0 s=200
     9: 0x409000 M=1
    10: 0x40a000 M=1 main.main /src/lumina/cmd/lumina/main.go:20:0 s=10
    11: 0x40b000 M=1 github.com/lumina-sim/lumina.RunWithOptions /src/lumina/lumina.go:50:0 s=40
Mappings
1: 0x400000/0x500000/0x0 /tmp/perfgate.test  [FN][FL][LN][IN]
`

// heapRaw is a hand-built heap profile: four value types, samples
// followed by label lines.
const heapRaw = `PeriodType: space bytes
Period: 524288
Samples:
alloc_objects/count alloc_space/bytes[dflt] inuse_objects/count inuse_space/bytes
         27     533881          0          0: 1 2
                bytes:[19072]
          2     666237          1     333118: 3 2
                bytes:[262144]
          9       1152          0          0: 4
                bytes:[128]
Locations
     1: 0x401000 M=1 github.com/lumina-sim/lumina/internal/trace.Reconstruct /home/ci/lumina/internal/trace/trace.go:141:0 s=124
     2: 0x402000 M=1 github.com/lumina-sim/lumina/internal/orchestrator.(*Testbed).Execute /home/ci/lumina/internal/orchestrator/orchestrator.go:312:0 s=289
     3: 0x403000 M=1 github.com/lumina-sim/lumina/internal/dumper.(*Log).add /home/ci/lumina/internal/dumper/dumper.go:205:0 s=200
     4: 0x404000 M=1 runtime.malg /usr/local/go/src/runtime/proc.go:4900:0 s=4890
`

// TestFoldChargesTheInnermostModuleFile folds the two literal profiles
// and requires the literal sums: runtime frames charged to the module
// file above them, an inlined closure to the file it was inlined from,
// Go's internal packages and the module's root package to no layer,
// a collector's stack to (gc), and no frame at all to (other).
func TestFoldChargesTheInnermostModuleFile(t *testing.T) {
	for _, c := range []struct {
		name, raw, kind string
		samples         int
		want            map[string]float64
	}{
		{"cpu", cpuRaw, "cpu/nanoseconds", 7, map[string]float64{
			"packet":       30000000,
			"injector":     10000000,
			"(other)":      20000000,
			"(gc)":         10000000,
			"dumper":       40000000,
			"cmd":          10000000,
			"orchestrator": 50000000,
		}},
		{"heap", heapRaw, "alloc_space/bytes", 3, map[string]float64{
			"trace":   533881,
			"dumper":  666237,
			"(other)": 1152,
		}},
	} {
		p, err := parseRaw(c.raw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f, err := foldProfile(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if f.kind != c.kind || f.samples != c.samples || !maps.Equal(f.layers, c.want) {
			t.Errorf("%s: folded %s over %d samples to\n %v\nwant %s over %d:\n %v", c.name, f.kind, f.samples, f.layers, c.kind, c.samples, c.want)
		}
	}
}

// TestFoldPrintsAndFillsARow holds the printed table and a row's layers
// object to literals: 100 packets, so the CPU profile's 170 ms are
// 1.7 ms a packet.
func TestFoldPrintsAndFillsARow(t *testing.T) {
	var folds []*fold
	for _, raw := range []string{cpuRaw, heapRaw} {
		p, err := parseRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		f, err := foldProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		folds = append(folds, f)
	}
	var b strings.Builder
	folds[1].print(&b, "mem.pprof", 100)
	want := `mem.pprof: alloc_space/bytes per packet, 3 samples
  dumper               6662.370   55.5 %
  trace                5338.810   44.4 %
  (other)                11.520    0.1 %
`
	if b.String() != want {
		t.Errorf("printed\n%s\nwant\n%s", b.String(), want)
	}
	pair := []string{"bulk_pair_packet", "bulk_pair_packet"}
	l, err := layersOf(folds, pair, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := l["bulk_pair_packet"]
	if got.CPUSamples != 7 || got.CPUNsPerPkt["orchestrator"] != 500000 || got.CPUNsPerPkt["(gc)"] != 100000 ||
		got.AllocSamples != 3 || got.AllocBytesPerPkt["dumper"] != 6662.37 || len(l) != 1 {
		t.Errorf("layers %+v", l)
	}
	// Each fold lands under the workload its profile measured.
	l, err = layersOf(folds, []string{"bulk_explain_packet", "bulk_pair_packet"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e, p := l["bulk_explain_packet"], l["bulk_pair_packet"]; len(l) != 2 || e.CPUSamples != 7 || e.AllocSamples != 0 ||
		p.CPUSamples != 0 || p.AllocSamples != 3 {
		t.Errorf("layers %+v", l)
	}
	if _, err := layersOf(folds, pair, 0); err == nil {
		t.Error("a row's layers without -packets")
	}
}

// TestParseRawRefusesWhatIsNotAProfile: text without a Samples section,
// or a profile with neither CPU time nor allocated bytes, is refused.
func TestParseRawRefusesWhatIsNotAProfile(t *testing.T) {
	if _, err := parseRaw("PeriodType: cpu nanoseconds\n"); err == nil {
		t.Error("accepted text without samples")
	}
	p, err := parseRaw("Samples:\ncontentions/count delay/nanoseconds\n 1 2: 1\nLocations\n     1: 0x1 M=1 f /a/b.go:1:0 s=1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foldProfile(p); err == nil {
		t.Error("folded a profile with neither CPU time nor allocated bytes")
	}
}
