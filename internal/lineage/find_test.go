package lineage

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// findEventScan is the specification findEvent is held to — the full
// scan it replaced: the earliest event in [from, to] (to 0 = unbounded)
// satisfying pred, the first in slice order among equal stamps, on input
// in any order.
func findEventScan(events []telemetry.Event, from, to sim.Time, pred func(*telemetry.Event) bool) *telemetry.Event {
	var best *telemetry.Event
	for i := range events {
		ev := &events[i]
		at := sim.Time(ev.At)
		if at < from || (to != 0 && at > to) {
			continue
		}
		if !pred(ev) {
			continue
		}
		if best == nil || at < sim.Time(best.At) {
			best = ev
		}
	}
	return best
}

// TestFindEventMatchesFullScan drives the indexed search and the full
// scan with the same seeded queries over streams dense in equal stamps:
// bounded, unbounded (to == 0), empty (to < from) and out-of-range
// windows, predicates matching many, one or no event. On a time-ordered
// stream both must return the very same *Event; on a shuffled one, where
// Build searches its private sorted copy, the same event by value.
func TestFindEventMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	names := []string{"fire", "rewind", "wqe_complete", "rate_mbps"}
	for round := 0; round < 60; round++ {
		n := rng.Intn(400)
		span := int64(1 + rng.Intn(200)) // far fewer stamps than events: ties everywhere
		h := telemetry.NewHub()
		at := int64(rng.Intn(5))
		h.SetClock(func() int64 { return at })
		for i := 0; i < n; i++ {
			at += rng.Int63n(3) / 2 * rng.Int63n(span) // mostly +0
			h.EmitArgs("", "", names[rng.Intn(len(names))],
				telemetry.I("id", int64(i)), telemetry.I("psn", int64(rng.Intn(8))))
		}
		sorted := h.Events()
		if got := timeOrdered(sorted); n > 0 && &got[0] != &sorted[0] {
			t.Fatal("timeOrdered copied a stream already in order")
		}
		shuffled := append([]telemetry.Event(nil), sorted...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		private := timeOrdered(shuffled)
		if n > 1 && !reflect.DeepEqual(shuffled, private) && &private[0] == &shuffled[0] {
			t.Fatal("timeOrdered sorted the caller's slice in place")
		}

		for q := 0; q < 80; q++ {
			from := sim.Time(rng.Int63n(at+10) - 5)
			var to sim.Time
			switch rng.Intn(4) {
			case 0: // unbounded
			case 1: // empty or inverted window
				to = from - sim.Time(rng.Intn(3))
			default:
				to = from + sim.Time(rng.Int63n(span*4+1))
			}
			name, psn := names[rng.Intn(len(names))], int64(rng.Intn(10))
			pred := func(ev *telemetry.Event) bool {
				p, _ := argI(ev, "psn")
				return ev.Name() == name && (psn >= 8 || p == psn)
			}
			if rng.Intn(10) == 0 {
				pred = func(*telemetry.Event) bool { return false }
			}

			want := findEventScan(sorted, from, to, pred)
			if got := findEvent(sorted, from, to, pred); got != want {
				t.Fatalf("round %d [%d,%d] %s/%d on the ordered stream: indexed search found %+v, full scan %+v",
					round, from, to, name, psn, got, want)
			}
			// The scan's answer on the shuffled stream, and the indexed
			// search's on the copy Build would make of it.
			want = findEventScan(shuffled, from, to, pred)
			got := findEvent(private, from, to, pred)
			if (got == nil) != (want == nil) || (got != nil && !reflect.DeepEqual(*got, *want)) {
				t.Fatalf("round %d [%d,%d] %s/%d on the shuffled stream: indexed search found %+v, full scan %+v",
					round, from, to, name, psn, got, want)
			}
		}
	}
}

// TestBuildAcceptsUnorderedProbes: Build sorts a private copy of a
// stream that is not in time order and reaches the graph the ordered
// stream gives, leaving the caller's slice alone.
func TestBuildAcceptsUnorderedProbes(t *testing.T) {
	if got := timeOrdered(nil); got != nil {
		t.Fatalf("timeOrdered(nil) = %v", got)
	}
	h := telemetry.NewHub()
	var at int64
	h.SetClock(func() int64 { return at })
	for _, e := range []struct {
		at   int64
		name string
	}{{30, "c"}, {10, "a"}, {30, "d"}, {20, "b"}} {
		at = e.at
		h.Emit("", "", e.name)
	}
	evs := h.Events()
	orig := append([]telemetry.Event(nil), evs...)
	got := timeOrdered(evs)
	if !reflect.DeepEqual(evs, orig) {
		t.Fatal("timeOrdered reordered the caller's slice")
	}
	var order string
	for _, e := range got {
		order += e.Name()
	}
	if order != "abcd" {
		t.Fatalf("sorted order = %q, want abcd (stable on the tie at 30)", order)
	}
}
