package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(v, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, // exactly ten samples beyond
		{99, 0.9, false},
		{100, 0.95, false},
		{200, 0.95, true},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %t, want %t (%d beyond)", c.n, c.p, got, c.want, samplesBeyond(c.n, c.p))
		}
	}
	for _, w := range workloads {
		for _, seconds := range []int{1, refSeconds, 60} {
			pl := w.planFor(seconds, false, false)
			if n := pl.timed * rounds; !supported(n, 0.9) {
				t.Errorf("%s at -seconds %d times %d ops: op_ms_p90 is not supported", w.name, seconds, n)
			}
			if pl.timed%(w.granule) != 0 || pl.warm%(w.granule) != 0 || pl.timed%w.clients != 0 {
				t.Errorf("%s at -seconds %d: plan %+v does not fit granule %d and %d clients", w.name, seconds, pl, w.granule, w.clients)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "b.inner", StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10), // a and b merge into [10,50]; c is clipped to [90,100]
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(0)

	tr := newTracer()
	op := tr.begin("op", 0, 7)
	child := tr.begin("child", op, 7)
	tr.end(child)
	tr.end(op)
	if len(tr.spans) != 2 || tr.spans[1].Parent != op || tr.spans[1].Op != 7 || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Errorf("recorded spans %+v", tr.spans)
	}
	if got := durationsMs(tr.spans, "child"); len(got) != 1 {
		t.Errorf("durationsMs found %d child spans", len(got))
	}
}

func TestRequestGenerator(t *testing.T) {
	keys := make([]request, 60)
	for i := range keys {
		keys[i] = request{Key: i, Scenario: "s", Profile: "p"}
	}
	a := genRequests(7, keys, serveClients, repeatDistance)
	if b := genRequests(7, keys, serveClients, repeatDistance); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different request lists")
	}
	if c := genRequests(8, keys, serveClients, repeatDistance); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same request order")
	}

	owner := map[int]int{}
	total := 0
	for c, list := range a {
		seen := map[int][]int{} // key -> positions on this client
		for pos, r := range list {
			if o, ok := owner[r.Key]; ok && o != c {
				t.Fatalf("key %d is requested by clients %d and %d", r.Key, o, c)
			}
			owner[r.Key] = c
			if r.Repeat != (len(seen[r.Key]) > 0) {
				t.Errorf("client %d pos %d: key %d has Repeat=%t on request %d", c, pos, r.Key, r.Repeat, len(seen[r.Key])+1)
			}
			seen[r.Key] = append(seen[r.Key], pos)
		}
		for k, pos := range seen {
			if len(pos) != requestsPerKey {
				t.Errorf("key %d requested %d times, want %d", k, len(pos), requestsPerKey)
			}
			for i := 1; i < len(pos); i++ {
				if pos[i]-pos[i-1] < repeatDistance {
					t.Errorf("key %d repeats after %d ops, want at least %d", k, pos[i]-pos[i-1], repeatDistance)
				}
			}
		}
		total += len(list)
	}
	if len(owner) != len(keys) || total != len(keys)*requestsPerKey {
		t.Errorf("%d keys and %d requests generated, want %d and %d", len(owner), total, len(keys), len(keys)*requestsPerKey)
	}
}

func sampleResult() *resultFile {
	r := &resultFile{Schema: resultSchema, Seed: 3, Seconds: refSeconds,
		Host: hostInfo{NProc: 2, GOMAXPROCS: 2, Go: "go1.22", Version: "abc", CalibrationNs: 5e4}}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, TimedOps: 100, Attempted: 110,
			EndToEnd: map[string]float64{failRatio: 0}, Spread: map[string]float64{}, PerLayer: map[string]float64{}}
		for i, d := range endToEnd {
			wr.EndToEnd[d.Name] = float64(100 + i)
			wr.Spread[d.Name] = 0.01
		}
		wr.PerLayer["sim.pkts_per_op"] = 10322
		wr.PerLayer["sim.event_ns"] = 14.5
		r.Workloads = append(r.Workloads, wr)
	}
	return r
}

func TestResultRoundTripThroughCompare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	a := sampleResult()
	if err := a.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("result.json did not round-trip:\nwrote %+v\nread  %+v", a, back)
	}

	run := func(b *resultFile) (bool, string, error) {
		var out bytes.Buffer
		regressed, err := compare(&out, a, b)
		return regressed, out.String(), err
	}
	if regressed, out, err := run(back); err != nil || regressed || strings.Contains(out, string(vUnresolved)) {
		t.Errorf("a result against itself: regressed=%t err=%v\n%s", regressed, err, out)
	}

	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	worse := sampleResult()
	worse.Workloads[0].EndToEnd["op_ms_p50"] *= 1 + bound("op_ms_p50") + 0.01 // just past the bound
	worse.Workloads[1].EndToEnd["ops_per_s"] *= 1 - bound("ops_per_s")/2      // within it
	worse.Workloads[2].Spread["op_ms_p90"] = bound("op_ms_p90") + 0.05        // wider than it
	worse.Workloads[3].PerLayer["sim.pkts_per_op"]++                          // exact count
	worse.Workloads[4].PerLayer["sim.event_ns"] *= 3                          // not exact: never gated
	worse.Workloads[5].EndToEnd[failRatio] = 1.0 / 110                        // bound 0
	regressed, out, err := run(worse)
	if err != nil || !regressed {
		t.Fatalf("regressions not reported: regressed=%t err=%v\n%s", regressed, err, out)
	}
	verdictOf := func(workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == workload && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "missing"
	}
	for _, c := range []struct{ workload, metric, want string }{
		{workloads[0].name, "op_ms_p50", "regressed"},
		{workloads[0].name, "op_ms_p90", "ok"},
		{workloads[1].name, "ops_per_s", "ok"},
		{workloads[2].name, "op_ms_p90", "unresolved"},
		{workloads[3].name, "sim.pkts_per_op", "differs"},
		{workloads[4].name, "op_ms_p50", "ok"},
		{workloads[5].name, failRatio, "regressed"},
	} {
		if got := verdictOf(c.workload, c.metric); got != c.want {
			t.Errorf("%s %s: verdict %q, want %q\n%s", c.workload, c.metric, got, c.want, out)
		}
	}

	quick := sampleResult()
	quick.Quick = true
	if _, _, err := run(quick); err == nil {
		t.Error("-compare accepted a -quick result")
	}
	otherSeed := sampleResult()
	otherSeed.Seed++
	if _, _, err := run(otherSeed); err == nil {
		t.Error("-compare accepted results from different seeds")
	}
}

func TestCrossCheckNamesBothValues(t *testing.T) {
	r := sampleResult()
	if msgs := crossCheck(r); len(msgs) != 0 {
		t.Errorf("identical histories flagged: %v", msgs)
	}
	r.workload(wBulkExplain).PerLayer["sim.pkts_per_op"] = 10323
	msgs := crossCheck(r)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "10322") || !strings.Contains(msgs[0], "10323") {
		t.Errorf("crossCheck = %v, want one message naming 10322 and 10323", msgs)
	}
}

// TestBenchmarkJSON keeps the driver's contract file in step with the
// metric and workload tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d paths %v, want %d and [bench]", doc.RunSeconds, doc.Paths, refSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, want %s / %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || seen[g.Name] {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, g.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	for _, name := range observeOnly {
		found := false
		for _, d := range perLayer {
			found = found || (d.Name == name && d.Exact)
		}
		if !found {
			t.Errorf("observe-only count %s is not an exact per-layer metric", name)
		}
	}
}
