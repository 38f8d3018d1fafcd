package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
	h.SetClock(func() int64 { return 7 })
	h.Histogram("h").Record(3)
	if h.Events() != nil || h.Registry() != nil || h.Histogram("h") != nil {
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
	if evs[1].NumArgs() != 1 || evs[1].Arg(0).Key != "qpn" || evs[1].Arg(0).Val != 9 {
		t.Fatalf("args = %d, first %+v", evs[1].NumArgs(), evs[1].Arg(0))
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
	if h.count != 1000 || h.sum != 500500 {
		t.Fatalf("count=%d sum=%d", h.count, h.sum)
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
			r.Add("c."+n, 1)
			r.Histogram("h." + n).Record(int64(rng.Intn(5000)))
			r.Set("g."+n, int64(i))
		}
		r.Histogram("h.unrecorded")
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
	alpha := slices.IndexFunc(snap.Histograms, func(h HistSnap) bool { return h.Name == "h.alpha" })
	zeta := slices.IndexFunc(snap.Counters, func(c CounterSnap) bool { return c.Name == "c.zeta" })
	if alpha < 0 || zeta < 0 || snap.Counters[zeta].Value == 0 {
		t.Fatal("snapshot lost h.alpha or c.zeta")
	}
	if slices.ContainsFunc(snap.Histograms, func(h HistSnap) bool { return h.Name == "h.unrecorded" }) {
		t.Fatal("snapshot holds a histogram with no sample")
	}
}

// TestRecordersOfOneNameShareOneHistogram splits random samples over
// several recorders of one name, taken from a hub and from its registry,
// and holds what the registry keeps to one histogram that recorded every
// sample. In every other trial the first sample is the largest, so later
// samples land below the buckets already kept. Every histogram must keep
// exactly the buckets from 0 to the end of its largest sample's octave.
func TestRecordersOfOneNameShareOneHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layout := func(trial int, h *Histogram) {
		end := 0
		if h.count != 0 {
			end = bucketIndex(h.max) | (1<<subBits - 1) + 1
		}
		if len(h.buckets) != end {
			t.Fatalf("trial %d: %d buckets for samples %d..%d, want %d", trial, len(h.buckets), h.min, h.max, end)
		}
	}
	for trial := range 200 {
		hub := NewHub()
		recorders := make([]*Histogram, 1+rng.Intn(5))
		for i := range recorders {
			if i%2 == 0 {
				recorders[i] = hub.Histogram("h")
			} else {
				recorders[i] = hub.Registry().Histogram("h")
			}
		}
		var all Histogram
		record := func(v int64) {
			all.Record(v)
			recorders[rng.Intn(len(recorders))].Record(v)
		}
		if trial%2 == 1 {
			record(1<<30 - 1)
		}
		for range rng.Intn(40) {
			record(int64(rng.Intn(1 << uint(rng.Intn(30)))))
		}
		got := hub.Registry().hists["h"]
		for i, r := range recorders {
			if r != got {
				t.Fatalf("trial %d: recorder %d is not the registry's histogram", trial, i)
			}
		}
		layout(trial, &all)
		layout(trial, got)
		if got.count != all.count || got.sum != all.sum || got.min != all.min || got.max != all.max ||
			!slices.Equal(got.buckets, all.buckets) {
			t.Fatalf("trial %d: %d recorders kept %+v, one histogram %+v", trial, len(recorders), *got, all)
		}
		if hs := hub.Registry().Snapshot().Histograms; len(hs) != min(int(all.count), 1) {
			t.Fatalf("trial %d: snapshot of %d samples holds %d histograms", trial, all.count, len(hs))
		}
	}
}

func TestWriteTimelineIsValidJSONAndDeterministic(t *testing.T) {
	mk := func() *Hub {
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
		return h
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
	h := NewHub()
	h.Emit("k", `t"\x`+"\n", "n")
	if err := WriteTimeline(&buf, h); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("escaping broke JSON: %v\n%s", err, buf.String())
	}
}

// TestRecordedArgsAreHubOwned pins the record's ownership contract: what
// an event recorded is a copy only the hub ever wrote, so neither the
// caller reusing its argument array nor 200k later emits (log pages
// filling and new ones opening, the intern table growing) can change it.
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
			h.EmitArgs(KindRetransTimer, "qp", "arm", args[:]...)
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
		if ev.NumArgs() != 2 || ev.Arg(0) != I("psn", 7) || ev.Arg(1) != S("why", "first") {
			t.Fatalf("first event's args changed after later emits: %d args, %+v %+v", ev.NumArgs(), ev.Arg(0), ev.Arg(1))
		}
	}
	// Every later event still holds the value it was emitted with.
	for i := 0; i < 200_000; i++ {
		ev := &evs[i+1]
		if ev.Arg(0).Val != int64(i) {
			t.Fatalf("event %d holds %d", i, ev.Arg(0).Val)
		}
		if want := [3]int{2, 1, 1}[i%3]; ev.NumArgs() != want {
			t.Fatalf("event %d has %d args, want %d", i, ev.NumArgs(), want)
		}
	}
	// Writing through an argument read from one event must reach neither
	// that event nor its neighbour.
	stray := evs[1].Arg(0)
	stray.Key, stray.Val = "stray", 99
	if evs[1].Arg(0) != I("overwritten", 0) || evs[2].Arg(0).Key != "value" {
		t.Fatalf("a write through event 1's argument reached the log: %+v, %+v", evs[1].Arg(0), evs[2].Arg(0))
	}
}

// TestLogPagesAndLocator drives the probe log across its page boundaries
// with 200k emits: the widest record a hub of a few sites writes (70
// bytes: a stamp delta of MinInt64, a duration of MaxInt64 and five
// arguments at MinInt64 and MaxInt64) and 3- and 4-byte records without
// arguments, steered so that the pages, from the first 512-byte one
// through the doubling to 64 KiB and well past it, between them end with
// every slack a page can end with: from 5 bytes (a 70-byte record begun
// with maxRecord left) to maxRecord-1. The stream is flattened at random
// points and at page ends along the way, and every event must read back
// exactly.
func TestLogPagesAndLocator(t *testing.T) {
	const wide = 70 // bytes in the widest record emit writes here
	extremes := [maxArgs]Field{
		I("a", math.MinInt64), I("b", math.MaxInt64), I("c", math.MinInt64), I("d", math.MaxInt64), I("e", math.MinInt64),
	}
	h := NewHub()
	now := int64(0)
	h.SetClock(func() int64 { return now })
	type rec struct{ at, dur int64 }
	var log []rec
	rng := rand.New(rand.NewSource(1))
	emit := func(size int) {
		switch size {
		case wide:
			now += math.MinInt64 // the stamp alternates between 0 and MinInt64
			h.EmitSpan(KindRetransTimer, "qp", "wide", math.MaxInt64, extremes[:]...)
			log = append(log, rec{now, math.MaxInt64})
		case 4:
			h.EmitSpan(KindRunPhase, "run", "narrow", 128)
			log = append(log, rec{now, 128})
		case 3:
			h.Emit(KindRunPhase, "run", "narrow")
			log = append(log, rec{now, 0})
		}
		if rng.Intn(4096) == 0 {
			h.Events()
		}
	}
	pageSize := func(page int) int { return min(pageMin<<min(page, 8), pageMax) }
	for page := 0; len(log) < 200_000; page++ {
		// Fill the page up to slack + wide bytes, then close it with a
		// wide record, which leaves less than maxRecord behind.
		slack := 5 + page%(maxRecord-5)
		fill := pageSize(page) - slack - wide
		n, rest := fill/wide, fill%wide
		if rest == 1 || rest == 2 || rest == 5 { // not a sum of 3s and 4s
			n, rest = n-1, rest+wide
		}
		for range n {
			emit(wide)
		}
		for ; rest%3 != 0; rest -= 4 {
			emit(4)
		}
		for ; rest > 0; rest -= 3 {
			emit(3)
		}
		emit(wide)
		if page%8 == 0 {
			h.Events() // the next call resumes at a page's end
		}
	}

	evs := h.Events()
	if len(evs) != len(log) {
		t.Fatalf("stream holds %d events, want %d", len(evs), len(log))
	}
	for i, want := range log {
		e := &evs[i]
		if e.At != want.at || e.Dur != want.dur {
			t.Fatalf("event %d reads at=%d dur=%d, want %d %d", i, e.At, e.Dur, want.at, want.dur)
		}
		n := 0
		if want.dur == math.MaxInt64 {
			n = maxArgs
		}
		if e.NumArgs() != n {
			t.Fatalf("event %d has %d args, want %d", i, e.NumArgs(), n)
		}
		for j := range n {
			if e.Arg(j) != extremes[j] {
				t.Fatalf("event %d Arg(%d) = %+v, want %+v", i, j, e.Arg(j), extremes[j])
			}
		}
	}

	pages := h.syms.pages
	if len(pages) < 8+maxRecord-5 {
		t.Fatalf("%d pages: too few to pass the doubling and close with every slack", len(pages))
	}
	slacks := map[int]bool{}
	for p, pg := range pages {
		if cap(pg) != pageSize(p) {
			t.Fatalf("page %d holds %d bytes, want %d", p, cap(pg), pageSize(p))
		}
		if p < len(pages)-1 {
			slacks[cap(pg)-len(pg)] = true
		}
	}
	for s := 5; s < maxRecord; s++ {
		if !slacks[s] {
			t.Errorf("no page ended with %d bytes to spare", s)
		}
	}
	if len(slacks) != maxRecord-5 {
		t.Errorf("pages ended with %d distinct slacks, want %d: %v", len(slacks), maxRecord-5, slacks)
	}

	// The locator at its bound: the last offset of the last page.
	last := locator(1<<16-1, pageMax-1)
	if last != math.MaxUint32 {
		t.Fatalf("locator(2^16-1, pageMax-1) = %#x", last)
	}
	if page, off := unpack(last); page != 1<<16-1 || off != pageMax-1 {
		t.Fatalf("unpack(%#x) = page %d offset %d", last, page, off)
	}
	if page, off := unpack(locator(0, 0)); page != 0 || off != 0 {
		t.Fatalf("unpack(locator(0, 0)) = page %d offset %d", page, off)
	}
}

// TestEmitDoesNotAllocate holds the "cost when somebody is listening"
// constraint: on an attached hub an emit is an append into the hub's log
// pages, so 10k mixed emits cost a handful of page allocations (and one
// for the flat stream) in all, and the variadic argument lists stay on
// the caller's stack.
func TestEmitDoesNotAllocate(t *testing.T) {
	const emits = 10_000
	avg := testing.AllocsPerRun(5, func() {
		h := NewHub()
		for i := 0; i < emits/4; i++ {
			v := int64(i)
			h.Emit(KindRunPhase, "orchestrator", "phase")
			h.EmitArgs(KindRetransTimer, "requester/qp-1", "arm", I("rto_ns", v), I("retry", v), I("psn", v))
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
			if got.At != snapshot[i].At || got.Name() != snapshot[i].Name() || got.Arg(0) != snapshot[i].Arg(0) {
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

// TestSmallHubStaysSmall: log pages start small, so the hub of a
// five-message run, which records a dozen message events, costs a few
// KiB, not a full-size page.
func TestSmallHubStaysSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHub()
	for i := 0; i < 10; i++ {
		h.EmitArgs(KindTrafficMsg, "qp1", "wqe_complete", I("wr_id", int64(i)), S("status", "ok"))
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

// TestEventIsAFixedSizeRecord pins the record format: at most 32 bytes on
// a 64-bit platform, and one field the collector must scan, the pointer
// to the hub's intern table. A slice, string or second pointer creeping
// back in fails here before it shows as bytes per probe.
func TestEventIsAFixedSizeRecord(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	if strconv.IntSize == 64 && typ.Size() > 32 {
		t.Errorf("Event is %d bytes, want at most 32", typ.Size())
	}
	var pointered []string
	for i := range typ.NumField() {
		if f := typ.Field(i); holdsPointers(f.Type) {
			pointered = append(pointered, f.Name+" "+f.Type.String())
		}
	}
	if len(pointered) > 1 {
		t.Errorf("Event has %d pointer-bearing fields, want at most 1: %v", len(pointered), pointered)
	}
}

// holdsPointers reports whether a value of type t contains a pointer the
// garbage collector must follow.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}
