// Package telemetry is Lumina's deterministic observability layer: a
// probe bus components publish typed, virtual-time-stamped events on, a
// metrics registry of counters/gauges/log-linear histograms, and a
// Chrome-trace-event (Perfetto-compatible) timeline exporter.
//
// The design constraint is the simulator's: bit-for-bit determinism.
// Telemetry never schedules simulation events, never reads the RNG, and
// never consults wall-clock time — it only records what the simulation
// already computed, stamped with the virtual clock. Two runs with the
// same seed therefore produce byte-identical metrics.json and timeline
// output.
//
// The second constraint is cost when nobody is listening. Every probe
// call site goes through a *Hub whose methods are nil-receiver no-ops:
// a component holds the hub pointer (nil when no sink is attached) and
// calls h.Emit(...) unconditionally; with no hub the call is a pointer
// test and a return. The repository benchmark's bulk_write workload
// times a run with no hub; bulk_explain times the same run with one.
//
// The third constraint is cost when somebody is listening: a run with
// every observer on replays the history of a bare run and should cost
// little more. An emit is therefore an append of a fixed-size record and
// nothing else. An Event holds its stamp, its duration and up to five
// numeric arguments inline, plus one pointer: to the hub's intern table,
// which stores once what emits from the same place share — kind, track,
// name and argument keys, as one site — and each distinct string value.
// Accessors (Kind, Track, Name, Arg, Lookup) read through it. The
// caller's argument list never escapes (it stays on the caller's stack),
// and a site repeated by every packet is found in a small cache of recent
// lookups without hashing its strings. The hub owns a chunked log of
// records; chunks start small and double up to a cap (eventChunkMin..
// eventChunkMax): a five-message run pays for a few KiB, a 50 000-probe
// run for a dozen allocations, and nothing recorded is ever copied to
// make room for what follows. Events() hands out a flat slice because
// that is what lineage and the timeline writer index, and it is
// incremental because a run asks twice — before the verdict probes and
// after: each call moves only the events recorded since the previous one
// onto the flat stream (after which their chunks are reused), so the
// second call copies a handful of events, not the run.
//
// This package deliberately imports nothing but the standard library so
// that package sim can wire a Hub into the Simulator without an import
// cycle; virtual time crosses the boundary as int64 nanoseconds.
package telemetry

// Kind names a probe event family. Kinds are dot-namespaced by the
// emitting subsystem; see the README's probe taxonomy.
type Kind string

// The probe taxonomy. Components may emit further kinds; these are the
// ones the built-in instrumentation publishes.
const (
	KindQPState      Kind = "qp.state"      // QP FSM transitions (RESET/RTS/ERROR)
	KindRetransTimer Kind = "retrans.timer" // retransmission timer arm/fire
	KindRetransGBN   Kind = "retrans.gbn"   // Go-back-N NAK receipt and rewind
	KindCNPGen       Kind = "cnp.gen"       // CNP emitted or rate-limited away
	KindDCQCNRate    Kind = "dcqcn.rate"    // reaction-point paced rate (counter)
	KindETSPick      Kind = "ets.pick"      // ETS scheduler grant
	KindInjectHit    Kind = "inject.hit"    // injector match-action rule hit
	KindWRRPick      Kind = "wrr.pick"      // mirror spray WRR dumper choice
	KindDumperEnq    Kind = "dumper.enqueue"
	KindDumperDisc   Kind = "dumper.discard"
	KindDumperQueue  Kind = "dumper.queue"     // ring occupancy (counter)
	KindTrafficMsg   Kind = "traffic.msg"      // message post / completion
	KindRunPhase     Kind = "run.phase"        // orchestrator phase markers
	KindNICWedge     Kind = "nic.wedge"        // RX pipeline wedge span
	KindTracePkt     Kind = "trace.pkt"        // packet synthesized from a captured trace
	KindVerdict      Kind = "analyzer.verdict" // post-run analyzer pass/fail instants
	KindEngineJob    Kind = "engine.job"       // run-engine job completion (index, attempts, status)
	KindMinimizeStep Kind = "minimize.step"    // reproducer-minimizer candidate tried (round, detail, kept)
	KindCorpusCell   Kind = "corpus.replay"    // corpus replay conformance cell (entry, profile, status)
)

// Field is one key/value argument of an emit. Val carries numeric
// values; Str, when non-empty, takes precedence and carries a string.
// Emit* take their arguments as an ordered list (not a map), which keeps
// serialization deterministic; nothing stores a Field.
type Field struct {
	Key string
	Val int64
	Str string
}

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, Val: v} }

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, Str: v} }

// maxArgs is the most arguments one emit may carry: the engine's job
// probe has five.
const maxArgs = 5

// Event is one probe-bus record: a fixed-size value whose only pointer is
// to its hub's intern table. The strings of an event — kind, track, name,
// argument keys and string values — live there once per hub; the event
// holds their indices and its numeric arguments inline.
type Event struct {
	// At is the virtual-time stamp in nanoseconds.
	At int64
	// Dur, when positive, makes this a span (Chrome "X" event) rather
	// than an instant.
	Dur int64
	// vals[i] is argument i's value, or the index of its string in
	// syms.strs when the site marks it a string.
	vals [maxArgs]int64
	syms *symbols
	site uint32
}

// site is what an emit shares with every other emit from the same place:
// its kind, track and name and its arguments' keys and types.
type site struct {
	kind        Kind
	track, name string
	keys        [maxArgs]string
	n           uint8 // argument count
	strs        uint8 // bit i: argument i is a string
	counter     bool
}

// symbols is a hub's intern table. Entries are only ever appended, so an
// index an event holds stays valid for the table's lifetime.
type symbols struct {
	sites []entry
	// named maps a track and name to the index + 1 of the latest site
	// with both; entry.prev chains it to the earlier ones.
	named map[[2]string]uint32
	strs  []string
	strID map[string]uint32
	// recent holds, per slot, the index + 1 of the last site looked up
	// there (0: none). Five probes fire per simulated packet, each from a
	// site that repeats, so most lookups end here on one comparison.
	recent [256]uint32
}

type entry struct {
	site
	prev uint32
}

// site returns the index of the site of an emit with these parameters,
// interning it on first sight.
func (t *symbols) site(kind Kind, track, name string, counter bool, strs uint8, args []Field) uint32 {
	r := &t.recent[slot(track, name, len(args))]
	if *r != 0 && t.sites[*r-1].matches(kind, track, name, counter, strs, args) {
		return *r - 1
	}
	k := [2]string{track, name}
	head := t.named[k]
	id := head
	for id != 0 && !t.sites[id-1].matches(kind, track, name, counter, strs, args) {
		id = t.sites[id-1].prev
	}
	if id == 0 {
		s := site{kind: kind, track: track, name: name, n: uint8(len(args)), strs: strs, counter: counter}
		for i := range args {
			s.keys[i] = args[i].Key
		}
		t.sites = append(t.sites, entry{site: s, prev: head})
		id = uint32(len(t.sites))
		t.named[k] = id
	}
	*r = id
	return id - 1
}

func (s *site) matches(kind Kind, track, name string, counter bool, strs uint8, args []Field) bool {
	if int(s.n) != len(args) || s.strs != strs || s.counter != counter || s.kind != kind || s.track != track || s.name != name {
		return false
	}
	for i := range args {
		if s.keys[i] != args[i].Key {
			return false
		}
	}
	return true
}

// slot spreads sites over recent by the tail of their track (where
// per-QP and per-node tracks differ), their name and their arity.
func slot(track, name string, n int) int {
	h := uint32(len(name)) | uint32(n)<<8
	for i := max(len(track)-4, 0); i < len(track); i++ {
		h = h*31 + uint32(track[i])
	}
	if name != "" {
		h = h*31 + uint32(name[0])
	}
	return int(h * 0x9e3779b1 >> 24) // a Fibonacci hash onto 256 slots
}

func (t *symbols) str(v string) int64 {
	id, ok := t.strID[v]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, v)
		t.strID[v] = id
	}
	return int64(id)
}

// noSite is what the accessors read on an Event the hub did not record.
var noSite site

func (e *Event) info() *site {
	if e.syms == nil {
		return &noSite
	}
	return &e.syms.sites[e.site].site
}

// Kind is the event family.
func (e *Event) Kind() Kind { return e.info().kind }

// Track is the component instance the event belongs to (one timeline
// row per track).
func (e *Event) Track() string { return e.info().track }

// Name is the specific occurrence.
func (e *Event) Name() string { return e.info().name }

// Counter reports a sampled-value event (Chrome "C" event); the value is
// Arg(0).Val.
func (e *Event) Counter() bool { return e.info().counter }

// NumArgs is the number of arguments the event was emitted with.
func (e *Event) NumArgs() int { return int(e.info().n) }

// Arg returns argument i, 0 <= i < NumArgs(), as it was emitted.
func (e *Event) Arg(i int) Field {
	s := e.info()
	if s.strs&(1<<i) != 0 {
		return Field{Key: s.keys[i], Str: e.syms.strs[e.vals[i]]}
	}
	return Field{Key: s.keys[i], Val: e.vals[i]}
}

// Lookup returns the first argument named key.
func (e *Event) Lookup(key string) (Field, bool) {
	s := e.info()
	for i := range int(s.n) {
		if s.keys[i] == key {
			return e.Arg(i), true
		}
	}
	return Field{}, false
}

// Hub is the probe bus plus the metrics registry. The zero Hub pointer
// (nil) is the detached state: every method on a nil *Hub returns
// immediately, so components emit unconditionally.
type Hub struct {
	clock func() int64
	reg   *Registry
	syms  *symbols

	// The log of events recorded since the last Events call: the chunks
	// already full, then the one being filled.
	sealed [][]Event
	cur    []Event
	// flat is the stream Events has handed out so far.
	flat []Event
}

// Chunk sizes, in events. Each new chunk doubles the previous one up to
// the cap, at which a chunk is a few hundred KiB: big enough that a long
// run allocates one every few thousand probes, small enough that its
// unused tail is noise.
const (
	eventChunkMin = 32
	eventChunkMax = 4096
)

// record appends one event to the log, interning its strings.
func (h *Hub) record(kind Kind, track, name string, dur int64, counter bool, args []Field) {
	if len(args) > maxArgs {
		// invariant: every emit site passes a fixed argument list of at most maxArgs fields; the widest, the engine's job probe, has five.
		panic("telemetry: more than maxArgs arguments")
	}
	e := Event{At: h.now(), Dur: dur, syms: h.syms}
	var strs uint8 // bit i: argument i is a string
	for i := range args {
		if args[i].Str != "" {
			strs |= 1 << i
			e.vals[i] = h.syms.str(args[i].Str)
		} else {
			e.vals[i] = args[i].Val
		}
	}
	e.site = h.syms.site(kind, track, name, counter, strs, args)
	if len(h.cur) == cap(h.cur) {
		if h.cur != nil {
			h.sealed = append(h.sealed, h.cur)
		}
		h.cur = make([]Event, 0, min(max(2*cap(h.cur), eventChunkMin), eventChunkMax))
	}
	h.cur = append(h.cur, e)
}

// NewHub returns an attached hub with an empty registry. Until SetClock
// is called (sim.Simulator.AttachHub does it), events are stamped 0.
func NewHub() *Hub {
	return &Hub{reg: NewRegistry(), syms: &symbols{named: map[[2]string]uint32{}, strID: map[string]uint32{}}}
}

// SetClock installs the virtual-clock reader used to stamp events.
func (h *Hub) SetClock(clock func() int64) {
	if h == nil {
		return
	}
	h.clock = clock
}

// Active reports whether a sink is attached — true exactly when probes
// are being recorded. Call sites that must build expensive arguments
// may guard on it; plain emits need not.
func (h *Hub) Active() bool { return h != nil }

func (h *Hub) now() int64 {
	if h.clock == nil {
		return 0
	}
	return h.clock()
}

// Emit publishes an instant event with no annotations.
func (h *Hub) Emit(kind Kind, track, name string) {
	if h == nil {
		return
	}
	h.record(kind, track, name, 0, false, nil)
}

// EmitArgs publishes an instant event with annotations. The hub keeps
// their values; the caller's list is free to be reused.
func (h *Hub) EmitArgs(kind Kind, track, name string, args ...Field) {
	if h == nil {
		return
	}
	h.record(kind, track, name, 0, false, args)
}

// EmitSpan publishes a completed span of the given duration ending at
// at+dur having started "now" — callers report spans at their start
// with a known (modelled) duration.
func (h *Hub) EmitSpan(kind Kind, track, name string, dur int64, args ...Field) {
	if h == nil {
		return
	}
	h.record(kind, track, name, max(dur, 0), false, args)
}

// EmitCounter publishes a sampled value, rendered as a counter track.
func (h *Hub) EmitCounter(kind Kind, track, name string, val int64) {
	if h == nil {
		return
	}
	value := [1]Field{{Key: "value", Val: val}}
	h.record(kind, track, name, 0, true, value[:])
}

// Events returns the recorded probe stream in emission order (which,
// events being fired by the deterministic simulator, is itself
// deterministic). The caller must not mutate the slice. A later call
// returns a stream that begins with the same events.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	n := len(h.cur)
	for _, c := range h.sealed {
		n += len(c)
	}
	if n == 0 {
		return h.flat
	}
	if need := len(h.flat) + n; need > cap(h.flat) {
		// Headroom for the probes that follow a first call (a run's
		// verdict instants), so they do not copy the stream again.
		grown := make([]Event, len(h.flat), need+need/8+eventChunkMin)
		copy(grown, h.flat)
		h.flat = grown
	}
	for _, c := range h.sealed {
		h.flat = append(h.flat, c...)
	}
	h.flat = append(h.flat, h.cur...)
	// The moved events are values, so the log's storage is free again.
	h.sealed, h.cur = nil, h.cur[:0]
	return h.flat
}

// Registry returns the hub's metrics registry (nil on a detached hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Count adds n to the named registry counter.
func (h *Hub) Count(name string, n int64) {
	if h == nil {
		return
	}
	h.reg.Counter(name).Add(n)
}

// SetGauge sets the named registry gauge.
func (h *Hub) SetGauge(name string, v int64) {
	if h == nil {
		return
	}
	h.reg.Gauge(name).Set(v)
}

// Observe records v into the named log-linear histogram.
func (h *Hub) Observe(name string, v int64) {
	if h == nil {
		return
	}
	h.reg.Histogram(name).Record(v)
}

// Snapshot freezes the metrics registry (nil on a detached hub).
func (h *Hub) Snapshot() *MetricsSnapshot {
	if h == nil {
		return nil
	}
	return h.reg.Snapshot()
}
