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
// test and a return. BenchmarkTelemetryOverhead documents that the
// no-sink cost stays within run-to-run noise.
//
// The third constraint is cost when somebody is listening: a run with
// every observer on replays the history of a bare run and should cost
// little more. An emit is therefore an append and nothing else. The hub
// owns a chunked Event log and a chunked Field slab; Emit* copy their
// variadic arguments into the slab, so the caller's argument list never
// escapes (it stays on the caller's stack) and a recorded event's Args
// alias memory only the hub writes, once. Chunks start small and double
// up to a cap (eventChunkMin..eventChunkMax, fieldChunkMin..
// fieldChunkMax): a five-message run pays for a few KiB, a 50 000-probe
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

// Field is one key/value annotation on an event. Val carries numeric
// values; Str, when non-empty, takes precedence and carries a string.
// An ordered slice (not a map) keeps serialization deterministic.
type Field struct {
	Key string
	Val int64
	Str string
}

// I builds an integer field.
func I(key string, v int64) Field { return Field{Key: key, Val: v} }

// S builds a string field.
func S(key, v string) Field { return Field{Key: key, Str: v} }

// Event is one probe-bus record.
type Event struct {
	// At is the virtual-time stamp in nanoseconds.
	At int64
	// Kind is the event family; Track the component instance it belongs
	// to (one timeline row per track); Name the specific occurrence.
	Kind  Kind
	Track string
	Name  string
	// Dur, when positive, makes this a span (Chrome "X" event) rather
	// than an instant.
	Dur int64
	// Counter marks a sampled-value event (Chrome "C" event); the value
	// is Args[0].Val.
	Counter bool
	Args    []Field
}

// Hub is the probe bus plus the metrics registry. The zero Hub pointer
// (nil) is the detached state: every method on a nil *Hub returns
// immediately, so components emit unconditionally.
type Hub struct {
	clock func() int64
	reg   *Registry

	// The log of events recorded since the last Events call: the chunks
	// already full, then the one being filled.
	sealed [][]Event
	cur    []Event
	// fields is the slab chunk being filled. Earlier chunks are kept
	// alive by the Args that point into them.
	fields []Field
	// flat is the stream Events has handed out so far.
	flat []Event
}

// Chunk sizes, in elements (an Event is 96 bytes, a Field 40). Each new
// chunk doubles the previous one up to the cap, at which a chunk is a
// few hundred KiB: big enough that a long run allocates one every few
// thousand probes, small enough that its unused tail is noise.
const (
	eventChunkMin = 32
	eventChunkMax = 4096
	fieldChunkMin = 64
	fieldChunkMax = 8192
)

// nextChunk is the size of the chunk that follows one of size prev.
func nextChunk(prev, lo, hi int) int {
	return min(max(2*prev, lo), hi)
}

// record appends e, annotated with a hub-owned copy of args, to the log.
func (h *Hub) record(e Event, args []Field) {
	if len(h.cur) == cap(h.cur) {
		if h.cur != nil {
			h.sealed = append(h.sealed, h.cur)
		}
		h.cur = make([]Event, 0, nextChunk(cap(h.cur), eventChunkMin, eventChunkMax))
	}
	if n := len(args); n > 0 {
		if len(h.fields)+n > cap(h.fields) {
			h.fields = make([]Field, 0, max(n, nextChunk(cap(h.fields), fieldChunkMin, fieldChunkMax)))
		}
		start := len(h.fields)
		h.fields = append(h.fields, args...)
		// Capacity-limited, so an append through the event's Args can
		// never reach a neighbour's fields.
		e.Args = h.fields[start:len(h.fields):len(h.fields)]
	}
	h.cur = append(h.cur, e)
}

// NewHub returns an attached hub with an empty registry. Until SetClock
// is called (sim.Simulator.AttachHub does it), events are stamped 0.
func NewHub() *Hub {
	return &Hub{reg: NewRegistry()}
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
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name}, nil)
}

// EmitArgs publishes an instant event with annotations. The hub keeps
// its own copy of args; the caller's list is free to be reused.
func (h *Hub) EmitArgs(kind Kind, track, name string, args ...Field) {
	if h == nil {
		return
	}
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name}, args)
}

// EmitSpan publishes a completed span of the given duration ending at
// at+dur having started "now" — callers report spans at their start
// with a known (modelled) duration.
func (h *Hub) EmitSpan(kind Kind, track, name string, dur int64, args ...Field) {
	if h == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name, Dur: dur}, args)
}

// EmitCounter publishes a sampled value, rendered as a counter track.
func (h *Hub) EmitCounter(kind Kind, track, name string, val int64) {
	if h == nil {
		return
	}
	value := [1]Field{{Key: "value", Val: val}}
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name, Counter: true}, value[:])
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
	// The moved events' Args point into the slab, not the log, so the
	// log's storage is free again.
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
