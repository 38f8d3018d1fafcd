package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestNilHubIsNoOp(t *testing.T) {
	var h *Hub
	if h.Active() {
		t.Fatal("nil hub reports active")
	}
	// None of these may panic or record anything.
	h.Emit(KindQPState, "t", "RTS")
	h.EmitArgs(KindRetransGBN, "t", "nak", I("psn", 5))
	h.EmitSpan(KindNICWedge, "t", "wedge", 100)
	h.EmitCounter(KindDCQCNRate, "t", "rate", 40)
	h.Count("c", 1)
	h.SetGauge("g", 2)
	h.Observe("h", 3)
	h.SetClock(func() int64 { return 7 })
	if h.Events() != nil || h.Snapshot() != nil || h.Registry() != nil {
		t.Fatal("nil hub returned non-nil state")
	}
}

func TestHubStampsVirtualTime(t *testing.T) {
	h := NewHub()
	now := int64(0)
	h.SetClock(func() int64 { return now })
	h.Emit(KindQPState, "qp", "RESET")
	now = 1500
	h.EmitArgs(KindQPState, "qp", "RTS", I("qpn", 9))
	evs := h.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].At != 0 || evs[1].At != 1500 {
		t.Fatalf("timestamps = %d, %d", evs[0].At, evs[1].At)
	}
	if evs[1].Args[0].Key != "qpn" || evs[1].Args[0].Val != 9 {
		t.Fatalf("args = %+v", evs[1].Args)
	}
}

func TestHistogramBucketsAreMonotoneAndCovering(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if lo := bucketLow(i); lo > v {
			t.Fatalf("bucketLow(%d) = %d > sample %d", i, lo, v)
		}
		if hi := bucketLow(i+1) - 1; hi < v {
			t.Fatalf("bucket %d upper bound %d < sample %d", i, hi, v)
		}
		prev = i
	}
	// Spot-check large values, including MaxInt64 territory.
	for _, v := range []int64{1 << 20, 1<<40 + 12345, 1<<62 + 99} {
		i := bucketIndex(v)
		if lo := bucketLow(i); lo > v {
			t.Fatalf("bucketLow(%d)=%d > %d", i, lo, v)
		}
	}
}

func TestHistogramStatsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	// Log-linear resolution is 1/2^subBits ≈ 6%: quantile bounds are
	// bucket upper edges, so allow that slack above the exact value.
	if q := h.Quantile(0.5); q < 500 || q > 532 {
		t.Fatalf("p50 = %d, want ≈500 (+6%%)", q)
	}
	if q := h.Quantile(0.99); q < 990 || q > 1000 {
		t.Fatalf("p99 = %d, want ≈990..1000", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %d, want 1", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (clamped to max)", q)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(seed int64) []byte {
		r := NewRegistry()
		rng := rand.New(rand.NewSource(seed))
		names := []string{"zeta", "alpha", "mid.dle", "beta"}
		// Touch metrics in random order; snapshot must not care.
		for i := 0; i < 200; i++ {
			n := names[rng.Intn(len(names))]
			r.Counter("c." + n).Inc()
			r.Histogram("h." + n).Record(int64(rng.Intn(5000)))
			r.Gauge("g." + n).Set(int64(i))
		}
		js, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	a, b := build(1), build(1)
	if !bytes.Equal(a, b) {
		t.Fatal("same operations produced different snapshot bytes")
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatal("counters not sorted by name")
		}
	}
	if snap.Hist("h.alpha") == nil || snap.CounterValue("c.zeta") == 0 {
		t.Fatal("lookup helpers failed")
	}
}

func TestWriteTimelineIsValidJSONAndDeterministic(t *testing.T) {
	mk := func() []Event {
		h := NewHub()
		now := int64(0)
		h.SetClock(func() int64 { return now })
		h.Emit(KindRunPhase, "orchestrator", "setup")
		now = 1234
		h.EmitArgs(KindQPState, "requester/qp-0x01", "RTS", I("qpn", 1), S("peer", "resp"))
		now = 2000
		h.EmitSpan(KindRetransTimer, "requester/qp-0x01", "rto", 67_108_864, I("retry", 0))
		now = 2500
		h.EmitCounter(KindDCQCNRate, "requester/qp-0x01", "rate_mbps", 40_000)
		now = 3999
		h.Emit(KindDumperDisc, "dumper-0", "ring_full")
		return h.Events()
	}

	var a, b bytes.Buffer
	if err := WriteTimeline(&a, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimeline(&b, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event streams serialized differently")
	}

	// Valid JSON with the Chrome trace-event shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a.String())
	}
	if doc.Unit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	// 3 metadata rows (tracks named in first-seen order) + 5 events.
	if len(doc.TraceEvents) != 3+5 {
		t.Fatalf("traceEvents = %d, want 8", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 3 || phases["i"] != 3 || phases["X"] != 1 || phases["C"] != 1 {
		t.Fatalf("phase mix = %v", phases)
	}
	// Timestamps are µs with three decimals: 1234 ns → "1.234".
	if !strings.Contains(a.String(), `"ts":1.234`) {
		t.Fatalf("expected exact µs timestamp in output:\n%s", a.String())
	}
	if !strings.Contains(a.String(), `"dur":67108.864`) {
		t.Fatal("span duration not serialized in µs")
	}
}

func TestWriteJSONStringEscapes(t *testing.T) {
	var buf bytes.Buffer
	bw := []Event{{At: 0, Kind: "k", Track: `t"\x` + "\n", Name: "n"}}
	if err := WriteTimeline(&buf, bw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("escaping broke JSON: %v\n%s", err, buf.String())
	}
}

// TestRecordedArgsAreHubOwned pins the slab's ownership contract: what an
// event recorded is a copy only the hub ever wrote, so neither the caller
// reusing its argument array nor 200k later emits (slab chunks filling
// and being replaced) can change it.
func TestRecordedArgsAreHubOwned(t *testing.T) {
	h := NewHub()
	args := [2]Field{I("psn", 7), S("why", "first")}
	h.EmitArgs(KindRetransGBN, "qp", "rewind", args[:]...)
	args[0], args[1] = I("overwritten", -1), S("overwritten", "by the caller")
	early := h.Events()[0]

	for i := 0; i < 200_000; i++ {
		args[0].Val = int64(i)
		switch i % 3 {
		case 0:
			h.EmitArgs(KindETSPick, "ets", "grant", args[:]...)
		case 1:
			h.EmitCounter(KindDumperQueue, "dumper", "ring", int64(i))
		default:
			h.EmitSpan(KindNICWedge, "nic", "wedge", 5, args[0])
		}
	}
	evs := h.Events()
	if len(evs) != 200_001 {
		t.Fatalf("events = %d, want 200001", len(evs))
	}
	for _, ev := range []Event{early, evs[0]} {
		if len(ev.Args) != 2 || ev.Args[0] != I("psn", 7) || ev.Args[1] != S("why", "first") {
			t.Fatalf("first event's args changed after later emits: %+v", ev.Args)
		}
	}
	// Every later event still holds the value it was emitted with.
	for i := 0; i < 200_000; i++ {
		ev := &evs[i+1]
		if ev.Args[0].Val != int64(i) {
			t.Fatalf("event %d holds %d", i, ev.Args[0].Val)
		}
		if want := [3]int{2, 1, 1}[i%3]; len(ev.Args) != want {
			t.Fatalf("event %d has %d args, want %d", i, len(ev.Args), want)
		}
	}
	// An append through one event's Args must not reach its neighbour's.
	_ = append(evs[1].Args, I("stray", 99))
	if evs[2].Args[0].Key != "value" {
		t.Fatalf("append through event 1's args overwrote event 2's: %+v", evs[2].Args)
	}
}

// TestEmitDoesNotAllocate holds the "cost when somebody is listening"
// constraint: on an attached hub an emit is an append into hub-owned
// chunks, so 10k mixed emits cost a few dozen chunk allocations in all
// and the variadic argument lists stay on the caller's stack.
func TestEmitDoesNotAllocate(t *testing.T) {
	const emits = 10_000
	avg := testing.AllocsPerRun(5, func() {
		h := NewHub()
		for i := 0; i < emits/4; i++ {
			v := int64(i)
			h.Emit(KindRunPhase, "orchestrator", "phase")
			h.EmitArgs(KindETSPick, "requester/ets", "grant", I("queue", v), I("qpn", v), I("size", v))
			h.EmitCounter(KindDumperQueue, "dumper-0", "ring_occupancy", v)
			h.EmitSpan(KindRetransGBN, "qp", "nack_react", v, I("psn", v))
		}
		if n := len(h.Events()); n != emits {
			t.Fatalf("recorded %d events, want %d", n, emits)
		}
	})
	if perEmit := avg / emits; perEmit >= 0.05 {
		t.Fatalf("%.4f allocs per emit (%.0f per %d emits), want < 0.05", perEmit, avg, emits)
	}
}

// TestEventsIsIncremental: a mid-run call and the final call agree on
// everything the first one returned, and what the first one returned
// stays as it was.
func TestEventsIsIncremental(t *testing.T) {
	h := NewHub()
	now := int64(0)
	h.SetClock(func() int64 { return now })
	emit := func(n int) {
		for i := 0; i < n; i++ {
			now++
			h.EmitArgs(KindTrafficMsg, "conn", "post", I("n", now))
		}
	}
	emit(5000)
	mid := h.Events()
	if len(mid) != 5000 {
		t.Fatalf("mid-run stream holds %d events, want 5000", len(mid))
	}
	if again := h.Events(); len(again) != 5000 || &again[0] != &mid[0] {
		t.Fatal("a second call with nothing new rebuilt the stream")
	}
	snapshot := append([]Event(nil), mid...)
	emit(7) // the verdict probes of a run: must fit the headroom
	end := h.Events()
	if len(end) != 5007 {
		t.Fatalf("final stream holds %d events, want 5007", len(end))
	}
	if &end[0] != &mid[0] {
		t.Error("a handful of late events copied the whole stream")
	}
	emit(20_000)
	end = h.Events()
	if len(end) != 25_007 {
		t.Fatalf("final stream holds %d events, want 25007", len(end))
	}
	for i := range snapshot {
		for _, got := range []Event{mid[i], end[i]} {
			if got.At != snapshot[i].At || got.Name != snapshot[i].Name || got.Args[0] != snapshot[i].Args[0] {
				t.Fatalf("event %d changed between calls: %+v, was %+v", i, got, snapshot[i])
			}
		}
	}
	for i := 1; i < len(end); i++ {
		if end[i].At != end[i-1].At+1 {
			t.Fatalf("stream out of emission order at %d: %d after %d", i, end[i].At, end[i-1].At)
		}
	}
}

// TestSmallHubStaysSmall: chunks start small, so the hub of a five-message
// run (or of an engine that records a dozen job events) costs a few KiB,
// not a full-size chunk.
func TestSmallHubStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHub()
	for i := 0; i < 10; i++ {
		h.EmitArgs(KindEngineJob, "engine", "job", I("index", int64(i)), S("status", "ok"))
	}
	evs := h.Events()
	runtime.ReadMemStats(&after)
	if len(evs) != 10 {
		t.Fatalf("events = %d, want 10", len(evs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("a 10-event hub allocated %d bytes, want < 16 KiB", got)
	}
}
