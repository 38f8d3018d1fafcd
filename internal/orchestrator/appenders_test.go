package orchestrator

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/lineage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/trace"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// appenderScenarios loads every checked-in scenario: the configs, the
// benchmark workloads, and each corpus entry once per NIC model (the
// corpus cells).
func appenderScenarios(t testing.TB) map[string]config.Test {
	cfgs := map[string]config.Test{}
	for _, g := range []string{"configs/*.yaml", "bench/workloads/*.yaml", "corpus/*/scenario.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m {
			cfg, err := config.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(f) != "scenario.yaml" {
				cfgs[f] = cfg
				continue
			}
			for _, model := range rnic.ModelNames() {
				cell := cfg
				cell.Requester.NIC.Type, cell.Responder.NIC.Type = model, model
				cfgs[f+" "+model] = cell
			}
		}
	}
	if len(cfgs) < 78 {
		t.Fatalf("found %d scenarios", len(cfgs))
	}
	return cfgs
}

// checkAppenders requires summary.json and int.json as the report writes
// them to equal json.MarshalIndent of their struct forms plus a newline,
// and SummaryDigest to be the SHA-256 of the canonical struct form.
func checkAppenders(t *testing.T, what string, rep *Report) {
	t.Helper()
	var got, want bytes.Buffer
	if err := rep.WriteSummary(&got); err != nil {
		t.Fatalf("%s: WriteSummary: %v", what, err)
	}
	s := rep.Summary()
	if err := writeJSON(&want, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: summary.json is\n%s\nthe struct form renders\n%s", what, got.Bytes(), want.Bytes())
	}
	s.CodeVersion = ""
	h := sha256.New()
	if err := writeJSON(h, s); err != nil {
		t.Fatal(err)
	}
	if d, err := rep.SummaryDigest(); err != nil || d != hex.EncodeToString(h.Sum(nil)) {
		t.Fatalf("%s: SummaryDigest = %s (err %v), the struct form hashes to %x", what, d, err, h.Sum(nil))
	}
	if rep.INT == nil {
		return
	}
	got.Reset()
	want.Reset()
	if err := rep.WriteINT(&got); err != nil {
		t.Fatalf("%s: WriteINT: %v", what, err)
	}
	if err := writeJSON(&want, rep.INT); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: int.json is\n%s\nthe struct form renders\n%s", what, got.Bytes(), want.Bytes())
	}
}

// TestArtifactAppendersMatchMarshalIndent holds the summary.json and
// int.json writers to encoding/json over every checked-in scenario run
// with every observer on.
func TestArtifactAppendersMatchMarshalIndent(t *testing.T) {
	opts := DefaultOptions()
	opts.Telemetry, opts.Lineage, opts.INT, opts.Coverage = true, true, true, true
	chains := 0
	for f, cfg := range appenderScenarios(t) {
		rep, err := Run(cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		chains += len(rep.Lineage.Chains)
		checkAppenders(t, f, rep)
	}
	if chains == 0 {
		t.Fatal("no scenario built a lineage chain")
	}
}

// chainAllocs bounds what lineage.Build, Collector.Join and the two
// appenders allocate together, whatever the number of chains: the
// graph's slabs, label buffer and label string, the join's slabs and
// the appenders' writer state.
const chainAllocs = 14

// TestChainsCostNoAllocation rebuilds bulk.yaml's lineage graph (more
// than 80 chains), joins it with the run's stamps and appends both JSON
// files into a buffered writer, and requires the allocations to stay
// within a budget that does not grow with the chains: a chain that
// allocates again fails it.
func TestChainsCostNoAllocation(t *testing.T) {
	cfg, err := config.Load(filepath.Join("..", "..", "bench", "workloads", "bulk.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(cfg, allObservers())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Lineage.Chains); n < 80 {
		t.Fatalf("bulk.yaml builds %d chains, want at least 80", n)
	}
	bw := bufio.NewWriterSize(io.Discard, artifactBufSize)
	r, ir := *rep, *rep.INT
	r.INT = &ir
	allocs := testing.AllocsPerRun(10, func() {
		r.Lineage = lineage.Build(rep.Trace, rep.Events)
		ir.Chains = tb.obs.col.Join(r.Lineage)
		if r.WriteSummary(bw) != nil || r.WriteINT(bw) != nil {
			t.Fatal("write failed")
		}
	})
	if allocs > chainAllocs {
		t.Fatalf("%d chains cost %.0f allocations, want at most %d", len(rep.Lineage.Chains), allocs, chainAllocs)
	}
	t.Logf("%d chains, %.0f allocations", len(rep.Lineage.Chains), allocs)
}

// artifactInput hands out the fuzz input as the values of a report.
type artifactInput []byte

func (in *artifactInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *artifactInput) uint(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(in.byte())
	}
	return v
}

// str is a string of up to 15 bytes of raw input, which may be invalid
// UTF-8 or hold control bytes, or one of the fragments encoding/json
// escapes followed by another string; either may be repeated up to 255
// times, to at most 4 KiB, so long strings cross the appender's buffer.
func (in *artifactInput) str() string {
	n := int(in.byte())
	var s string
	if n&0x80 != 0 {
		frags := []string{"<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\x7f", "\b\f\n\r\t", `"\`, "\xff", "\xe2\x80", "é", "𝄞", ""}
		s = frags[n%len(frags)] + in.str()
	} else {
		b := make([]byte, min(n&0x0f, len(*in)))
		for i := range b {
			b[i] = in.byte()
		}
		s = string(b)
	}
	if n&0x40 != 0 && s != "" {
		s = strings.Repeat(s, min(int(in.byte()), 4096/len(s)))
	}
	return s
}

func (in *artifactInput) verdicts() []analyzer.Verdict {
	var vs []analyzer.Verdict
	for range in.byte() % 4 {
		v := analyzer.Verdict{Analyzer: in.str(), Pass: in.byte()%2 == 0, Reason: in.str()}
		for range in.byte() % 3 {
			v.Chains = append(v.Chains, in.uint(8))
		}
		vs = append(vs, v)
	}
	return vs
}

// report decodes a Report carrying everything summary.json and int.json
// read: config strings, counts, verdicts, a hand-built lineage graph
// (edges may name nodes outside their chain, a chain may repeat a node
// or have none), histograms and an INT report.
func (in *artifactInput) report() *Report {
	r := &Report{DurationNs: sim.Time(in.uint(8)), TimedOut: in.byte()%2 == 0, IntegrityOK: in.byte()%2 == 0}
	r.Config.Name, r.Config.Seed = in.str(), int64(in.uint(8))
	r.Config.Requester.NIC.Type, r.Config.Responder.NIC.Type, r.Config.Traffic.Verb = in.str(), in.str(), in.str()
	if in.byte()%2 == 0 {
		r.Trace = &trace.Trace{Entries: make([]trace.Entry, in.byte())}
	}
	if in.byte()%2 == 0 {
		r.Traffic = &traffic.Results{}
		for range in.byte() % 3 {
			st := map[string]int{}
			for range in.byte() % 3 {
				st[[]string{"OK", "RETRY_EXC_ERR", in.str()}[in.byte()%3]] += int(in.byte())
			}
			r.Traffic.Conns = append(r.Traffic.Conns, traffic.ConnStats{Statuses: st})
		}
	}
	r.Verdicts = in.verdicts()
	if in.byte()%4 != 0 {
		g := &lineage.Graph{}
		for range in.byte() % 8 {
			g.Nodes = append(g.Nodes, lineage.Node{ID: len(g.Nodes), Kind: lineage.NodeKind(in.str()), At: sim.Time(in.uint(8)),
				Label: in.str(), PSN: uint32(in.uint(3)), Seq: in.uint(2)})
		}
		for range in.byte() % 5 {
			ch := lineage.Chain{Lineage: in.uint(8), Event: packet.EventType(in.byte() % 9), PSN: uint32(in.uint(3)),
				ActorQPN: uint32(in.uint(3)), Completed: in.byte()%2 == 0}
			ip := func() netip.Addr {
				if in.byte()%4 == 0 {
					return netip.AddrFrom16([16]byte{0xfe, 0x80, 15: in.byte()}).WithZone(in.str())
				}
				return netip.AddrFrom4([4]byte{in.byte(), in.byte(), in.byte(), in.byte()})
			}
			ch.Conn = trace.ConnKey{Src: ip(), Dst: ip(), DstQPN: uint32(in.uint(4))}
			for range in.byte() % 5 {
				if len(g.Nodes) > 0 {
					ch.Nodes = append(ch.Nodes, int(in.byte())%len(g.Nodes))
				}
			}
			for range in.byte() % 4 {
				if len(g.Nodes) > 0 {
					ch.Edges = append(ch.Edges, lineage.Edge{From: int(in.byte()) % len(g.Nodes), To: int(in.byte()) % len(g.Nodes),
						Label: in.str(), Latency: sim.Duration(in.uint(8))})
				}
			}
			g.Chains = append(g.Chains, ch)
		}
		r.Lineage = g
	}
	if in.byte()%2 == 0 {
		r.Metrics = &telemetry.MetricsSnapshot{}
		for range in.byte() % 3 {
			r.Metrics.Histograms = append(r.Metrics.Histograms, telemetry.HistSnap{Name: in.str(),
				Count: int64(in.uint(8)), P50: int64(in.uint(8)), P99: int64(in.uint(2)), Max: int64(in.uint(8))})
		}
	}
	if in.byte()%4 != 0 {
		ir := &INTReport{Schema: INTSchema, Stamps: int(in.uint(4)), Transits: in.uint(8), Binds: int(in.uint(2))}
		if in.byte()%4 != 0 {
			ir.Hops = []inband.HopSummary{}
			for range in.byte() % 4 {
				ir.Hops = append(ir.Hops, inband.HopSummary{ID: in.byte(), Name: in.str(), Origin: in.byte()%2 == 0,
					Stamps: in.uint(8), MaxQueueBytes: int64(in.uint(8)), MaxUtilPermille: uint16(in.uint(2))})
			}
		}
		ir.Verdicts = in.verdicts()
		for range in.byte() % 4 {
			ch := inband.ChainHops{Lineage: in.uint(8), Event: in.str(), PSN: uint32(in.uint(3)), Completed: in.byte()%2 == 0}
			for range in.byte() % 4 {
				n := inband.NodeHops{Kind: in.str(), AtNs: int64(in.uint(8)), PSN: uint32(in.uint(3)), Seq: in.uint(1), Transit: in.uint(1)}
				for range in.byte() % 4 {
					n.Hops = append(n.Hops, inband.HopCrossing{Hop: in.str(), AtNs: int64(in.uint(8)), QueueBytes: int64(in.uint(8)),
						UtilPermille: uint16(in.uint(2)), LatencyNs: int64(in.uint(8))})
				}
				ch.Nodes = append(ch.Nodes, n)
			}
			for range in.byte() % 3 {
				ch.PerHop = append(ch.PerHop, inband.HopDigest{Hop: in.str(), Crossings: int(in.byte()), MaxQueueBytes: int64(in.uint(8)),
					MaxUtilPermille: uint16(in.uint(2)), TotalLatencyNs: int64(in.uint(8))})
			}
			ir.Chains = append(ir.Chains, ch)
		}
		r.INT = ir
	}
	return r
}

// FuzzArtifactAppendersMatchMarshalIndent holds the summary.json and
// int.json appenders to encoding/json over reports decoded from the
// input, whose strings carry what encoding/json escapes (< > &,
// U+2028 and U+2029, control bytes, invalid UTF-8), and requires a
// writer that refuses bytes to surface as an error.
func FuzzArtifactAppendersMatchMarshalIndent(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x00\x00\x01\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e",
		"\x01\x02\x03\x04\x05\x06\x07\x08\x01\x01\x05a<b>c\x8a\x03\xff\xfe\x00\x02x\x85\x01y",
		"\x07\x07\x07\x07\x07\x07\x07\x07\x00\x01\x0f\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e\x8f\x90\x91\x92" +
			"\x03\x03\x03\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07",
		// Long names: a 4-byte rune, invalid bytes and U+2028 repeated
		// across the buffer's pieces.
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc1\x00\xff\x00\xcd\x00\xff\xc8\x4b\xfe\xcb\x00\xc7",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := artifactInput(data)
		rep := in.report()
		checkAppenders(t, "fuzzed report", rep)
		if g := rep.Lineage; g != nil {
			for _, ch := range g.Chains {
				k := ch.Conn
				if got, want := string(lineage.AppendConn(nil, k)), fmt.Sprintf("%s>%s/qp-0x%06x", k.Src, k.Dst, k.DstQPN); got != want {
					t.Fatalf("AppendConn gives %q, fmt %q", got, want)
				}
			}
		}

		var want bytes.Buffer
		if err := rep.WriteSummary(&want); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteSummary(&shortWriter{room: want.Len() - 1}); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("a writer one byte short: WriteSummary returned %v", err)
		}
		boom := errors.New("boom")
		if err := rep.WriteINT(&countingFile{failWith: boom}); !errors.Is(err, boom) {
			t.Fatalf("a failing writer: WriteINT returned %v", err)
		}
	})
}
