package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestAfterFiresAtCorrectTime(t *testing.T) {
	s := New(1)
	var fired Time = -1
	s.After(5*Microsecond, func() { fired = s.Now() })
	s.Run()
	if fired != Time(5*Microsecond) {
		t.Fatalf("event fired at %v, want 5µs", fired)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30, func() { order = append(order, 3) })
	s.After(10, func() { order = append(order, 1) })
	s.After(20, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(100, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var times []Time
	s.After(10, func() {
		times = append(times, s.Now())
		s.After(15, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 25 {
		t.Fatalf("times = %v, want [10 25]", times)
	}
}

func TestZeroDelayEventFiresAtSameInstant(t *testing.T) {
	s := New(1)
	var at Time = -1
	s.After(7, func() {
		s.After(0, func() { at = s.Now() })
	})
	s.Run()
	if at != 7 {
		t.Fatalf("zero-delay event at %v, want 7", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling at a past instant did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New(1)
	fired := false
	ref := s.After(10, func() { fired = true })
	if !s.Cancel(ref) {
		t.Fatal("Cancel returned false for a pending event")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event still fired")
	}
	if s.Cancel(ref) {
		t.Fatal("double Cancel returned true")
	}
}

func TestCancelZeroRefIsNoop(t *testing.T) {
	s := New(1)
	var ref EventRef
	if s.Cancel(ref) {
		t.Fatal("cancelling zero EventRef returned true")
	}
	if !ref.Cancelled() {
		t.Fatal("zero EventRef should report Cancelled")
	}
}

func TestCancelInterleavedWithOtherEvents(t *testing.T) {
	s := New(1)
	var order []string
	ref := s.After(20, func() { order = append(order, "victim") })
	var sameInstant EventRef
	s.After(10, func() {
		order = append(order, "canceller")
		s.Cancel(ref)
		// A victim due at this very instant has not fired yet either.
		if !s.Cancel(sameInstant) || !sameInstant.Cancelled() {
			t.Error("an event pending at the canceller's own instant was not cancelled")
		}
	})
	sameInstant = s.After(10, func() { order = append(order, "same-instant victim") })
	s.After(30, func() { order = append(order, "after") })
	s.Run()
	if len(order) != 2 || order[0] != "canceller" || order[1] != "after" {
		t.Fatalf("order = %v, want [canceller after]", order)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline 25, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v after RunUntil(25)", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: fired = %v", fired)
	}
}

func TestRunUntilIncludesDeadlineInstant(t *testing.T) {
	s := New(1)
	fired := false
	s.After(25, func() { fired = true })
	s.RunUntil(25)
	if !fired {
		t.Fatal("event at the deadline instant did not fire")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunFor(100)
	if s.Now() != 100 {
		t.Fatalf("Now = %v after RunFor(100)", s.Now())
	}
	s.RunFor(50)
	if s.Now() != 150 {
		t.Fatalf("Now = %v after second RunFor(50)", s.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.After(Duration(i), func() {})
	}
	s.Run()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and all of them fire.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(42)
		var fired []Time
		for _, d := range delays {
			s.After(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds and schedules yield identical histories.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64, delays []uint16) bool {
		run := func() []Time {
			s := New(seed)
			var fired []Time
			for _, d := range delays {
				jitter := Duration(s.RNG().Intn(1000))
				s.After(Duration(d)+jitter, func() { fired = append(fired, s.Now()) })
			}
			s.Run()
			return fired
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds = %v, want 1.5", got)
	}
	if got := Time(100).Sub(Time(40)); got != 60 {
		t.Fatalf("Sub = %v, want 60", got)
	}
}

func TestNextEventTimeAndDrainUntil(t *testing.T) {
	s := New(1)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty queue reported a next event")
	}
	var fired []Time
	s.After(10, func() { fired = append(fired, s.Now()) })
	s.After(50, func() { fired = append(fired, s.Now()) })
	if at, ok := s.NextEventTime(); !ok || at != 10 {
		t.Fatalf("NextEventTime = %v, %v", at, ok)
	}
	// DrainUntil leaves the clock at the last fired event, not the
	// deadline, when the queue empties early.
	s.DrainUntil(1000)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v after DrainUntil past last event, want 50", s.Now())
	}
	// With events beyond the deadline, it stops before them. The clock
	// sits at 50, so After(100) schedules for t=150.
	s.After(100, func() {})
	s.DrainUntil(200)
	if s.Pending() != 0 {
		t.Fatal("event within deadline not drained")
	}
	s.After(500, func() {}) // t = 650
	s.DrainUntil(300)
	if s.Pending() != 1 {
		t.Fatal("event beyond deadline was fired")
	}
	s.Run()
}

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	s := New(1)
	ref := s.After(10, func() {})
	s.After(20, func() {})
	s.Cancel(ref)
	if at, ok := s.NextEventTime(); !ok || at != 20 {
		t.Fatalf("NextEventTime = %v, %v; cancelled head not skipped", at, ok)
	}
	s.Run()
}

func TestPendingGauge(t *testing.T) {
	s := New(1)
	if s.Pending() != 0 {
		t.Fatal("fresh simulator has pending events")
	}
	s.After(1, func() {})
	s.After(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}

// TestHeapOrderRandomized drives the 4-ary heap with a large randomized
// schedule, including cancellations, and checks events fire in strict
// (time, FIFO) order.
func TestHeapOrderRandomized(t *testing.T) {
	s := New(3)
	rng := s.RNG().Fork()
	type fired struct {
		at  Time
		seq int
	}
	var got []fired
	var refs []EventRef
	seq := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(1000))
		n := seq
		seq++
		refs = append(refs, s.At(at, func() {
			got = append(got, fired{s.Now(), n})
		}))
	}
	// Cancel a third of them, including re-cancels which must be no-ops.
	cancelled := map[int]bool{}
	for i := 0; i < len(refs); i += 3 {
		if !s.Cancel(refs[i]) {
			t.Fatalf("first Cancel of live event %d returned false", i)
		}
		if s.Cancel(refs[i]) {
			t.Fatalf("second Cancel of event %d returned true", i)
		}
		cancelled[i] = true
	}
	s.Run()
	want := 5000 - len(cancelled)
	if len(got) != want {
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("out of order at %d: (%v,%d) before (%v,%d)", i, a.at, a.seq, b.at, b.seq)
		}
	}
	for _, f := range got {
		if cancelled[f.seq] {
			t.Fatalf("cancelled event %d fired", f.seq)
		}
	}
}

// TestEventRecyclingIsolatesRefs checks the generation scheme: a ref to a
// fired (or cancelled) event stays inert even after the underlying event
// struct is recycled for a new event — cancelling the stale ref must not
// cancel the new occupant.
func TestEventRecyclingIsolatesRefs(t *testing.T) {
	s := New(1)
	stale := s.After(1, func() {})
	s.Run() // fires and recycles the struct
	if !stale.Cancelled() {
		t.Fatal("ref to fired event should report cancelled")
	}
	fired := false
	fresh := s.After(5, func() { fired = true }) // reuses the recycled struct
	if fresh.ev != stale.ev {
		t.Skip("freelist did not reuse the struct; generation path not exercised")
	}
	if s.Cancel(stale) {
		t.Fatal("stale ref cancelled the recycled event's new occupant")
	}
	s.Run()
	if !fired {
		t.Fatal("new event did not fire: stale ref leaked a cancellation")
	}

	// Same for a cancelled-then-recycled event.
	victim := s.After(1, func() {})
	s.Cancel(victim)
	fired2 := false
	fresh2 := s.After(2, func() { fired2 = true })
	if fresh2.ev == victim.ev && s.Cancel(victim) {
		t.Fatal("stale ref to a cancelled event hit the recycled occupant")
	}
	s.Run()
	if !fired2 {
		t.Fatal("second event did not fire")
	}
}

// TestEventFreelistBoundsAllocation checks steady-state scheduling reuses
// event structs instead of allocating: after warmup, a schedule/fire loop
// should not grow the heap.
func TestEventFreelistBoundsAllocation(t *testing.T) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10000 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			if !s.Step() {
				return
			}
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state schedule/fire loop allocates %.1f/run, want ~0", allocs)
	}
}

// recorder is a typed-event handler that logs what it was handed.
type recorder struct {
	log []string
}

func (r *recorder) HandleEvent(op int, arg uint64, data []byte) {
	r.log = append(r.log, fmt.Sprintf("h%d/%d/%s", op, arg, data))
}

// TestTypedAndFuncEventsShareOneOrder schedules Handler events and plain
// closures for the same instant, interleaved: they are one mechanism, so
// they fire strictly in scheduling order, each handler seeing exactly the
// op, scalar and bytes it was scheduled with.
func TestTypedAndFuncEventsShareOneOrder(t *testing.T) {
	s := New(1)
	r := &recorder{}
	s.AtEvent(10, r, 1, 7, []byte("a"))
	s.At(10, func() { r.log = append(r.log, "f1") })
	s.AfterEvent(10, r, 2, 8, []byte("b"))
	s.After(10, func() {
		r.log = append(r.log, "f2")
		s.AfterEvent(0, r, 3, 9, nil) // same instant, scheduled later: fires last
	})
	s.AtEvent(10, r, 4, 0, nil)
	s.Run()
	want := "h1/7/a f1 h2/8/b f2 h4/0/ h3/9/"
	if got := strings.Join(r.log, " "); got != want {
		t.Errorf("fire order %q, want %q", got, want)
	}
}

// TestStaleRefToRecycledTypedEvent reuses a fired typed event's struct
// for a closure event and checks the old ref cannot cancel it.
func TestStaleRefToRecycledTypedEvent(t *testing.T) {
	s := New(1)
	r := &recorder{}
	stale := s.AfterEvent(1, r, 1, 0, nil)
	s.Run()
	fired := false
	fresh := s.After(1, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("freelist did not reuse the fired event's struct")
	}
	if !stale.Cancelled() || s.Cancel(stale) {
		t.Fatal("stale typed-event ref reached the struct's new occupant")
	}
	s.Run()
	if !fired || len(r.log) != 1 {
		t.Fatalf("fired=%v typed log=%v, want the new event fired and the old one once", fired, r.log)
	}
}
