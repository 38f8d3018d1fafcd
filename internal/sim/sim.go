// Package sim implements the deterministic discrete-event simulation core
// that every Lumina component runs on.
//
// The simulator maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in scheduling order, which — together with the seeded RNG in
// package sim — makes every simulation run bit-for-bit reproducible. This
// property is load-bearing: Lumina's whole purpose is precise and
// reproducible tests, and the simulation substrate must not introduce
// nondeterminism of its own.
//
// There are no goroutines and no wall-clock reads anywhere in the core;
// components interact exclusively by scheduling callbacks.
package sim

import (
	"fmt"
	"math"
	"time"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely
// to and from time.Duration (which is also nanoseconds).
type Duration int64

// Common durations, mirroring the time package for readability at call
// sites ("3 * sim.Microsecond").
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Dur converts a time.Duration into a sim.Duration.
func Dur(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Std converts a sim.Duration back into a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// String renders the instant as a duration offset from the simulation
// epoch, e.g. "152.4µs".
func (t Time) String() string { return time.Duration(t).String() }

// Add offsets an instant by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as fractional seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds reports the duration as fractional microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Handler receives typed events. Components on the per-packet path
// (ports, NICs, QPs, schedulers, the switch, dumper nodes) implement it
// on their pointer type and schedule themselves with AtEvent/AfterEvent:
// the event carries a small op code selecting what to do, one scalar and
// one byte slice, all stored inline in the pooled event struct, so
// scheduling allocates nothing. A handler runs with the clock at the
// event's instant and may schedule or cancel anything; it must not keep
// data unless it owns the frame (see GetFrame).
type Handler interface {
	HandleEvent(op int, arg uint64, data []byte)
}

// Func adapts a plain callback to Handler. A func value is a single
// pointer, so the conversion to the interface allocates nothing: At and
// After are sugar over AtEvent, not a second mechanism.
type Func func()

// HandleEvent calls f.
func (f Func) HandleEvent(int, uint64, []byte) { f() }

// event is a single scheduled (handler, op, arg, data) tuple. Event
// structs are recycled through the simulator's freelist; gen counts
// recycles so that stale EventRefs held by components can never cancel a
// later occupant of the same struct.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	h    Handler
	op   int
	arg  uint64
	data []byte
	idx  int    // heap index; -1 once popped or cancelled
	gen  uint64 // incremented every time the struct is recycled
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is inert: cancelling it is a no-op. A ref captures the event's
// generation, so refs to fired or cancelled events stay inert even after
// the underlying struct is reused for a new event.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancelled reports whether the event was cancelled or already fired (or
// never scheduled).
func (r EventRef) Cancelled() bool {
	return r.ev == nil || r.ev.gen != r.gen
}

// eventHeap is an indexed 4-ary min-heap ordered by (at, seq). A 4-ary
// layout halves the tree depth of the binary heap it replaced, and the
// maintained idx field gives O(log n) cancellation without lazy deletion
// — the queue never holds dead events.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if !h.less(best, i) {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old.swap(0, n)
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		(*h).down(i)
		(*h).up(i)
	}
	ev.idx = -1
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now     Time
	queue   eventHeap
	free    []*event // recycled event structs; see recycle
	nextSeq uint64
	// firedSeq bounds the events of the current instant that have fired:
	// every scheduled event at now with seq below it has. Port.settle
	// reads it to order lazy tx-queue accounting among same-instant
	// events; nothing else does.
	firedSeq uint64
	rng      *RNG

	executed  uint64 // total events fired, for diagnostics
	cancelled uint64

	// hub is the attached telemetry probe bus; nil (the default) means
	// every probe emitted by components running on this simulator is a
	// nil-check no-op. Telemetry is observe-only: it never schedules
	// events or touches the RNG, so attaching it cannot perturb the
	// simulated history.
	hub *telemetry.Hub

	// cov is the attached behavioral coverage recorder; nil (the
	// default) makes every Record call a nil-receiver no-op. Coverage
	// shares telemetry's observe-only contract.
	cov *coverage.Map

	// frames is the wire-frame pool (see frames.go).
	frames framePool
}

// New creates a simulator whose RNG is seeded with seed. Two simulators
// constructed with the same seed and fed the same schedule of events
// produce identical histories.
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// AttachHub connects a telemetry hub to the simulation: components
// reached through Hub() start recording probes stamped with this
// simulator's virtual clock. Attaching nil detaches.
func (s *Simulator) AttachHub(h *telemetry.Hub) {
	s.hub = h
	h.SetClock(func() int64 { return int64(s.now) })
}

// Hub returns the attached telemetry hub, nil when none is attached.
// All *telemetry.Hub methods are nil-receiver no-ops, so callers emit
// unconditionally: s.Hub().Emit(...).
func (s *Simulator) Hub() *telemetry.Hub { return s.hub }

// AttachCoverage connects a behavioral coverage recorder: components
// reached through Coverage() start counting (site, transition)
// traversals. Attaching nil detaches.
func (s *Simulator) AttachCoverage(m *coverage.Map) { s.cov = m }

// Coverage returns the attached coverage map, nil when none is
// attached. *coverage.Map.Record is a nil-receiver no-op, so callers
// record unconditionally: s.Coverage().Record(site, transition).
func (s *Simulator) Coverage() *coverage.Map { return s.cov }

// RNG returns the simulation's deterministic random number generator.
func (s *Simulator) RNG() *RNG { return s.rng }

// Pending reports the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }

// Executed reports the total number of events fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// At schedules fn to run at the absolute instant at. Scheduling in the
// past (before Now) panics: it would corrupt causality.
func (s *Simulator) At(at Time, fn func()) EventRef {
	return s.AtEvent(at, Func(fn), 0, 0, nil)
}

// AtEvent schedules h.HandleEvent(op, arg, data) at the absolute instant
// at — the allocation-free form of At for per-packet paths.
func (s *Simulator) AtEvent(at Time, h Handler, op int, arg uint64, data []byte) EventRef {
	if at < s.now {
		// invariant: components compute instants as now plus a non-negative span (max with a free-at time, a serialization delay over a validated rate); no input carries an absolute instant.
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = at, s.nextSeq
	ev.h, ev.op, ev.arg, ev.data = h, op, arg, data
	s.nextSeq++
	s.queue.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// AfterEvent is AtEvent d nanoseconds from now. Negative d panics.
func (s *Simulator) AfterEvent(d Duration, h Handler, op int, arg uint64, data []byte) EventRef {
	if d < 0 {
		// invariant: delays are profile constants, latency curves clamped at zero, or config values config.Validate bounds (delay-us must be positive, the timeout exponent at most 31).
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtEvent(s.now.Add(d), h, op, arg, data)
}

// recycle returns a fired or cancelled event struct to the freelist. The
// generation bump invalidates every outstanding EventRef to it, and
// dropping the handler and data releases whatever they reference.
func (s *Simulator) recycle(ev *event) {
	ev.h, ev.data = nil, nil
	ev.gen++
	s.free = append(s.free, ev)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (s *Simulator) After(d Duration, fn func()) EventRef {
	return s.AfterEvent(d, Func(fn), 0, 0, nil)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. Reports whether the event was
// actually removed.
func (s *Simulator) Cancel(r EventRef) bool {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return false
	}
	s.queue.remove(ev.idx)
	s.cancelled++
	s.recycle(ev)
	return true
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty. Cancellation removes events from the heap eagerly, so
// whatever sits at the top is live. The struct goes back to the freelist
// before the handler runs so the handler's own scheduling can reuse it.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue.pop()
	s.now, s.firedSeq = ev.at, ev.seq+1
	s.executed++
	h, op, arg, data := ev.h, ev.op, ev.arg, ev.data
	s.recycle(ev)
	h.HandleEvent(op, arg, data)
	return true
}

// Run drains the event queue until no events remain, then returns the
// final virtual time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil fires events until the virtual clock would pass deadline, then
// sets the clock to deadline and returns. Events scheduled exactly at the
// deadline do fire.
func (s *Simulator) RunUntil(deadline Time) {
	s.DrainUntil(deadline)
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d virtual nanoseconds.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextEventTime reports the instant of the earliest pending event.
func (s *Simulator) NextEventTime() (Time, bool) {
	if len(s.queue) > 0 {
		return s.queue[0].at, true
	}
	return 0, false
}

// DrainUntil fires events up to and including deadline but, unlike
// RunUntil, leaves the clock at the last fired event when the queue
// drains early — so "how long did the run take" reads naturally.
func (s *Simulator) DrainUntil(deadline Time) {
	for {
		at, ok := s.NextEventTime()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if deadline >= s.now {
		s.firedSeq = s.nextSeq // nothing scheduled at now is still pending
	}
}

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)
