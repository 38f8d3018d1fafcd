package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// The timeline oracle: a probe stream drawn from input bytes goes through
// the hub's Emit* methods and, beside it, into a naive log of plain
// structs. WriteTimeline's output, decoded with encoding/json, must hold
// exactly the records the naive log predicts.

// naiveArg is one annotation as the caller passed it.
type naiveArg struct {
	key string
	val int64
	str string
}

// naiveEvent is one emit as the caller made it.
type naiveEvent struct {
	kind        Kind
	track, name string
	at, dur     int64
	counter     bool
	args        []naiveArg
}

// draw hands out the generator's choices, one input byte at a time; an
// exhausted input reads as zeros.
type draw struct{ b []byte }

func (d *draw) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *draw) int64() int64 {
	var v int64
	for range 8 {
		v = v<<8 | int64(d.byte())
	}
	return v
}

// Strings that need escaping, or that interning must keep apart.
var oracleStrings = []string{
	"", "qp", "RTS", "value", "a\"b", `back\slash`, "tab\there", "nl\n",
	"\x00\x01\x1f", "é ü", "node/qp-0x00002a", "grant", "spray", "x",
}

func (d *draw) string() string {
	c := d.byte()
	if c < 200 {
		return oracleStrings[int(c)%len(oracleStrings)]
	}
	alphabet := []string{"a", "b", "\"", `\`, "\n", "\x01", "\x1f", "\x7f", "/", " ", "é"}
	var b []byte
	for range int(c-200) % 7 {
		b = append(b, alphabet[int(d.byte())%len(alphabet)]...)
	}
	return string(b)
}

func (d *draw) kind() Kind {
	kinds := []Kind{KindQPState, KindETSPick, KindDumperQueue, KindInjectHit, Kind(d.string())}
	return kinds[int(d.byte())%len(kinds)]
}

func (d *draw) value() int64 {
	switch c := d.byte(); c % 4 {
	case 0:
		return int64(c)
	case 1:
		return -int64(c)
	default:
		return d.int64()
	}
}

// emitStream drives h with the stream d describes, mirrors every emit
// into the returned naive log, and flattens the hub's stream at random
// points along the way.
func emitStream(h *Hub, d *draw) []naiveEvent {
	var log []naiveEvent
	now := int64(0)
	h.SetClock(func() int64 { return now })
	n := int(d.byte())<<2 | int(d.byte()&3)
	for range n {
		switch step := d.byte(); {
		case step < 10:
			now = d.value() & (1<<50 - 1)
		case step < 60:
			now += int64(d.byte()) * 137
		}
		ev := naiveEvent{kind: d.kind(), track: d.string(), name: d.string(), at: now}
		var args [4]Field
		for i := range int(d.byte()) % 5 {
			if d.byte()&1 == 0 {
				args[i] = I(d.string(), d.value())
			} else {
				args[i] = S(d.string(), d.string())
			}
			ev.args = append(ev.args, naiveArg{args[i].Key, args[i].Val, args[i].Str})
		}
		switch op := d.byte() % 5; op {
		case 0:
			ev.args = nil
			h.Emit(ev.kind, ev.track, ev.name)
		case 1:
			h.EmitArgs(ev.kind, ev.track, ev.name, args[:len(ev.args)]...)
		case 2:
			ev.dur = d.value() % 100000
			h.EmitSpan(ev.kind, ev.track, ev.name, ev.dur, args[:len(ev.args)]...)
		case 3:
			v := d.value()
			ev.counter, ev.args = true, []naiveArg{{key: "value", val: v}}
			h.EmitCounter(ev.kind, ev.track, ev.name, v)
		case 4:
			h.Events()
			continue
		}
		log = append(log, ev)
	}
	return log
}

// oracleHead is a trace-event record's fields but its args.
type oracleHead struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	S    string      `json:"s"`
	Ts   json.Number `json:"ts"`
	Dur  json.Number `json:"dur"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
}

// oracleRecord is one trace-event record as encoding/json reads it.
type oracleRecord struct {
	oracleHead
	Args json.RawMessage `json:"args"`
}

// micros renders ns the way a trace-event reader sees it.
func micros(ns int64) json.Number {
	ns = max(ns, 0)
	return json.Number(fmt.Sprintf("%d.%03d", ns/1000, ns%1000))
}

// orderedArgs reads an args object as its key/value pairs in order,
// duplicates kept; a number reads back as its decimal text.
func orderedArgs(raw json.RawMessage) ([][2]string, error) {
	if raw == nil {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	var out [][2]string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			return nil, err
		}
		v, err := dec.Token()
		if err != nil {
			return nil, err
		}
		val := fmt.Sprint(v)
		if s, ok := v.(string); ok {
			val = strconv.Quote(s)
		}
		out = append(out, [2]string{k.(string), val})
	}
	return out, nil
}

// checkTimeline decodes out and compares it record by record with what
// the naive log predicts.
func checkTimeline(t *testing.T, log []naiveEvent, out []byte) {
	t.Helper()
	var doc struct {
		TraceEvents     []oracleRecord `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("timeline is not JSON: %v\n%s", err, out)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// One thread_name row per track, in first-appearance order.
	tid := map[string]int{}
	var tracks []string
	for _, ev := range log {
		if _, ok := tid[ev.track]; !ok {
			tracks = append(tracks, ev.track)
			tid[ev.track] = len(tracks)
		}
	}
	if got, want := len(doc.TraceEvents), len(tracks)+len(log); got != want {
		t.Fatalf("%d records, want %d thread rows + %d events", got, len(tracks), len(log))
	}
	for i, track := range tracks {
		r := doc.TraceEvents[i]
		args, err := orderedArgs(r.Args)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]string{{"name", strconv.Quote(track)}}
		if r.Name != "thread_name" || r.Ph != "M" || r.Pid != 1 || r.Tid != i+1 || fmt.Sprint(args) != fmt.Sprint(want) {
			t.Fatalf("thread row %d = %+v args %v, want track %q as tid %d", i, r, args, track, i+1)
		}
	}

	for i, ev := range log {
		r := doc.TraceEvents[len(tracks)+i]
		want := oracleHead{Name: ev.name, Cat: string(ev.kind), Ts: micros(ev.at), Pid: 1, Tid: tid[ev.track]}
		switch {
		case ev.counter:
			want.Name, want.Ph = ev.track+" "+ev.name, "C"
		case ev.dur > 0:
			want.Ph, want.Dur = "X", micros(ev.dur)
		default:
			want.Ph, want.S = "i", "t"
		}
		var wantArgs [][2]string
		for _, a := range ev.args {
			if a.str != "" {
				wantArgs = append(wantArgs, [2]string{a.key, strconv.Quote(a.str)})
			} else {
				wantArgs = append(wantArgs, [2]string{a.key, strconv.FormatInt(a.val, 10)})
			}
		}
		args, err := orderedArgs(r.Args)
		if err != nil {
			t.Fatalf("event %d args: %v", i, err)
		}
		if r.oracleHead != want || fmt.Sprint(args) != fmt.Sprint(wantArgs) || (len(wantArgs) == 0) != (r.Args == nil) {
			t.Fatalf("event %d = %+v args %s,\nwant   %+v args %v", i, r.oracleHead, r.Args, want, wantArgs)
		}
	}
}

func checkStream(t *testing.T, data []byte) {
	t.Helper()
	h := NewHub()
	log := emitStream(h, &draw{data})
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, h.Events()); err != nil {
		t.Fatal(err)
	}
	checkTimeline(t, log, buf.Bytes())
}

func TestTimelineMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		data := make([]byte, 1<<14)
		rand.New(rand.NewSource(seed)).Read(data)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { checkStream(t, data) })
	}
}

func FuzzTimeline(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStream(t, data) })
}
