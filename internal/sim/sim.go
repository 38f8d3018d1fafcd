// Package sim implements the deterministic discrete-event simulation core
// that every Lumina component runs on.
//
// The simulator maintains a virtual clock with nanosecond resolution and a
// queue of scheduled events ordered by (instant, scheduling sequence).
// Events scheduled for the same instant fire in scheduling order, which —
// together with the seeded RNG in package sim — makes every simulation run
// bit-for-bit reproducible. This property is load-bearing: Lumina's whole
// purpose is precise and reproducible tests, and the simulation substrate
// must not introduce nondeterminism of its own.
//
// The queue has two tiers with one order. An event due within the
// wheel's horizon (fewer than wheelSlots slots of 64 ns past the current
// instant's slot) goes into a timing wheel, where finding the next one is
// a bitmap scan; the rest — retransmission and rate timers, deep
// bottleneck backlogs — go into a 4-ary heap. The next event is the
// earlier of the two heads by (instant, sequence), so which tier holds an
// event changes how it is found, never when it fires.
//
// There are no goroutines and no wall-clock reads anywhere in the core;
// components interact exclusively by scheduling typed events.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
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

func (d Duration) String() string { return time.Duration(d).String() }

// String renders the instant as a duration offset from the simulation
// epoch, e.g. "152.4µs".
func (t Time) String() string { return time.Duration(t).String() }

// Add offsets an instant by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

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

// Func adapts a plain callback to Handler, for tests: At and After are
// test sugar over AtEvent, not a second mechanism. Production code
// schedules typed events only, so every pending event is a (handler,
// op, arg) that can be inspected; TestNoClosureEvents holds it there.
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
	idx  int    // heap index in the far tier; -1 in the wheel
	gen  uint64 // incremented every time the struct is recycled
	// next and prev link the event into its wheel slot's list; they are
	// stale once it leaves.
	next, prev *event
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

// The near tier's geometry: wheelSlots slots of 1<<slotShift ns, a
// 16.4 µs horizon, and one bitmap word per 64 slots.
const (
	slotShift  = 6
	wheelSlots = 256
	wheelWords = wheelSlots / 64
)

// slotOf is the absolute slot number of an instant; the wheel keeps slot
// n at index n % wheelSlots.
func slotOf(t Time) uint64 { return uint64(t) >> slotShift }

// wheel is the near tier: one circular doubly linked list per slot,
// threaded through the events themselves and kept in (at, seq) order, so
// a slot's head is its earliest event and the head's prev is its tail.
// bits has one bit per non-empty slot. Every event in the wheel lies in
// the wheelSlots slots starting at now's, and the clock never passes a
// pending event, so that window only slides forward and the slots after
// now's, in index order wrapping round, are the slots in time order.
type wheel struct {
	heads [wheelSlots]*event
	bits  [wheelWords]uint64
	n     int
	// min, when non-nil, is the wheel's earliest event: a push earlier
	// than it replaces it, its removal clears it, and first rescans only
	// then. Asking twice for the next event, or scheduling with few
	// events pending, costs no scan.
	min *event
}

// push links ev into its slot. ev carries the largest seq scheduled so
// far, so it goes after every event due at or before it: usually at the
// tail; otherwise the scan starts from whichever end is nearer in time.
func (w *wheel) push(ev *event) {
	i := slotOf(ev.at) % wheelSlots
	if w.n == 0 || (w.min != nil && ev.at < w.min.at) {
		w.min = ev
	}
	w.n++
	head := w.heads[i]
	if head == nil {
		ev.next, ev.prev = ev, ev
		w.heads[i] = ev
		w.bits[i/64%wheelWords] |= 1 << (i % 64)
		return
	}
	p := head.prev // the tail; ev goes after p
	switch {
	case ev.at >= p.at:
	case ev.at < head.at: // earlier than the whole slot: after the tail, as the new head
		w.heads[i] = ev
	case ev.at-head.at < p.at-ev.at:
		for p = head; p.next.at <= ev.at; p = p.next {
		}
	default:
		for p = p.prev; p.at > ev.at; p = p.prev {
		}
	}
	ev.prev, ev.next = p, p.next
	p.next.prev = ev
	p.next = ev
}

// remove unlinks ev from its slot.
func (w *wheel) remove(ev *event) {
	i := slotOf(ev.at) % wheelSlots
	w.n--
	if ev == w.min {
		w.min = nil
	}
	if ev.next == ev {
		w.heads[i] = nil
		w.bits[i/64%wheelWords] &^= 1 << (i % 64)
	} else {
		ev.prev.next, ev.next.prev = ev.next, ev.prev
		if w.heads[i] == ev {
			w.heads[i] = ev.next
		}
	}
}

// first returns the wheel's earliest event, nil when it is empty: min,
// or else the head of the first non-empty slot at or after now's, in
// wrapping order — which becomes min.
func (w *wheel) first(now Time) *event {
	if w.min == nil && w.n > 0 {
		w.min = w.scan(now)
	}
	return w.min
}

// scan finds the head of the first non-empty slot at or after now's: in
// the rest of now's bitmap word, then in the remaining words, ending with
// now's own word again, whose low bits are the slots a lap ahead.
func (w *wheel) scan(now Time) *event {
	i := slotOf(now) % wheelSlots
	if word := w.bits[i/64%wheelWords] >> (i % 64); word != 0 {
		return w.heads[(i+uint64(bits.TrailingZeros64(word)))%wheelSlots]
	}
	for k := i/64 + 1; k <= i/64+wheelWords; k++ {
		if word := w.bits[k%wheelWords]; word != 0 {
			return w.heads[(k%wheelWords*64+uint64(bits.TrailingZeros64(word)))%wheelSlots]
		}
	}
	return nil
}

// eventHeap is the far tier: an indexed 4-ary min-heap ordered by
// (at, seq), holding the events scheduled beyond the wheel's horizon.
// The maintained idx field gives O(log n) cancellation without lazy
// deletion — the queue never holds dead events.
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
	far     eventHeap // events due beyond the wheel's horizon when scheduled
	free    []*event  // recycled event structs; see recycle
	nextSeq uint64
	// firedSeq bounds the events of the current instant that have fired:
	// every scheduled event at now with seq below it has. Port.settle
	// reads it to order lazy tx-queue accounting among same-instant
	// events; nothing else does.
	firedSeq uint64
	rng      *RNG

	executed uint64 // total events fired, for diagnostics

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

	// near holds the events due within the wheel's horizon; last, so
	// its 2 KiB of slot heads do not split the scalars above across
	// cache lines.
	near wheel
}

// spares holds what closed simulators left behind for the next New: a
// stack of (released frames, recycled event structs) sets, one pushed
// per Close and popped per New. A set carries no state of its run: a
// frame's bytes are overwritten by whoever takes it, and recycle has
// cleared an event's handler and data and bumped its generation. A
// plain stack, not a sync.Pool: the garbage collector empties a
// sync.Pool at random, so how much a run allocates would depend on GC
// timing. The stack is never deeper than the most simulators open
// (made and not yet closed) at one time.
var spares struct {
	sync.Mutex
	sets []spare
}

type spare struct {
	frames framePool
	free   []*event
}

// freeMax bounds the event structs a set of spares keeps: over five
// times the 1 443 the 16-host incast uses at its peak, and at most
// 896 KiB of structs.
const freeMax = 8192

// New creates a simulator whose RNG is seeded with seed. Two simulators
// constructed with the same seed and fed the same schedule of events
// produce identical histories. New starts from the frames and event
// structs the last closed simulator left, when there are any (see
// Close), so a run allocates only what its predecessor did not leave;
// which buffers it recycles never shows in its history.
func New(seed int64) *Simulator {
	s := &Simulator{rng: NewRNG(seed)}
	spares.Lock()
	if n := len(spares.sets) - 1; n >= 0 {
		s.frames, s.free = spares.sets[n].frames, spares.sets[n].free
		spares.sets[n] = spare{}
		spares.sets = spares.sets[:n]
	}
	spares.Unlock()
	return s
}

// Close hands the simulator's released frames and recycled event
// structs to the next New, on any goroutine, and leaves s holding
// neither. After Close nothing may schedule, cancel or run on s, and
// nothing may read a frame that was released to it: that frame is
// another simulator's now. Its clock and counters stay readable.
// EventRefs to s's events are already dead (recycle bumped their
// generation), and events still pending — a run stopped at its deadline
// — stay with s and go to the garbage collector with their frames.
// Close at most once.
func (s *Simulator) Close() {
	free := s.free
	if len(free) > freeMax {
		free = append([]*event(nil), free[:freeMax]...)
	}
	for _, ev := range free {
		ev.next, ev.prev = nil, nil // a stale link must not keep a pending event, and its handler, alive
	}
	spares.Lock()
	spares.sets = append(spares.sets, spare{s.frames, free})
	spares.Unlock()
	s.frames, s.free = framePool{}, nil
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

// Executed reports the total number of events fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// At schedules fn to run at the absolute instant at: AtEvent with a Func,
// for tests. Scheduling in the past (before Now) panics: it would
// corrupt causality.
func (s *Simulator) At(at Time, fn func()) EventRef {
	return s.AtEvent(at, Func(fn), 0, 0, nil)
}

// AtEvent schedules h.HandleEvent(op, arg, data) at the absolute instant
// at. With AfterEvent it is how every component schedules.
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
	if slotOf(at)-slotOf(s.now) < wheelSlots {
		ev.idx = -1
		s.near.push(ev)
	} else {
		s.far.push(ev)
	}
	return EventRef{ev: ev, gen: ev.gen}
}

// AfterEvent is AtEvent d nanoseconds from now. Negative d panics.
func (s *Simulator) AfterEvent(d Duration, h Handler, op int, arg uint64, data []byte) EventRef {
	if d < 0 {
		// invariant: delays are profile constants, latency curves clamped at zero, or scenario values the config package's lumina tags bound (delay-us, min-time-between-cnps and pipeline-latency-ns at most 1000 s, the timeout exponent at most 31) and Validate holds positive where they are used (delay-us on a delay event).
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

// After schedules fn to run d nanoseconds from now, for tests. Negative
// d panics.
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
	if ev.idx < 0 {
		s.near.remove(ev)
	} else {
		s.far.remove(ev.idx)
	}
	s.recycle(ev)
	return true
}

// head returns the earliest pending event, nil when none is: the earlier
// of the two tiers' heads by (at, seq). Cancellation unlinks events from
// either tier eagerly, so both heads are live.
func (s *Simulator) head() *event {
	ev := s.near.first(s.now)
	if len(s.far) > 0 {
		if f := s.far[0]; ev == nil || f.at < ev.at || (f.at == ev.at && f.seq < ev.seq) {
			return f
		}
	}
	return ev
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (s *Simulator) Step() bool { return s.fireNext(MaxTime) }

// fireNext fires the earliest pending event if it is due by deadline and
// reports whether it did. The struct goes back to the freelist before the
// handler runs so the handler's own scheduling can reuse it.
func (s *Simulator) fireNext(deadline Time) bool {
	ev := s.head()
	if ev == nil || ev.at > deadline {
		return false
	}
	if ev.idx < 0 {
		s.near.remove(ev)
	} else {
		s.far.pop()
	}
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

// DrainUntil fires events up to and including deadline and leaves the
// clock at the last fired event when the queue drains early — so "how
// long did the run take" reads naturally.
func (s *Simulator) DrainUntil(deadline Time) {
	for s.fireNext(deadline) {
	}
	if deadline >= s.now {
		s.firedSeq = s.nextSeq // nothing scheduled at now is still pending
	}
}

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)
