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
// This package deliberately imports nothing but the standard library so
// that package sim can wire a Hub into the Simulator without an import
// cycle; virtual time crosses the boundary as int64 nanoseconds.
package telemetry

import "slices"

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
	clock  func() int64
	events []Event
	reg    *Registry
}

// record appends e to the stream, doubling its capacity when full: a run
// records tens of thousands of probes, and append's own 1.25x steps
// would copy the stream some five times over, each copy into a freshly
// faulted-in span.
func (h *Hub) record(e Event) {
	if len(h.events) == cap(h.events) {
		h.events = slices.Grow(h.events, max(len(h.events), 64))
	}
	h.events = append(h.events, e)
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
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name})
}

// EmitArgs publishes an instant event with annotations.
func (h *Hub) EmitArgs(kind Kind, track, name string, args ...Field) {
	if h == nil {
		return
	}
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name, Args: args})
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
	h.record(Event{At: h.now(), Kind: kind, Track: track, Name: name, Dur: dur, Args: args})
}

// EmitCounter publishes a sampled value, rendered as a counter track.
func (h *Hub) EmitCounter(kind Kind, track, name string, val int64) {
	if h == nil {
		return
	}
	h.record(Event{
		At: h.now(), Kind: kind, Track: track, Name: name,
		Counter: true, Args: []Field{{Key: "value", Val: val}},
	})
}

// Events returns the recorded probe stream in emission order (which,
// events being fired by the deterministic simulator, is itself
// deterministic). The caller must not mutate the slice.
func (h *Hub) Events() []Event {
	if h == nil {
		return nil
	}
	return h.events
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
