package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The event-order oracle: one program of schedules, cancellations and
// clock parks, run once on the Simulator and once on refQueue, must fire
// the same events at the same instants. refQueue shares no code with the
// two-tier queue it checks.

// orderQueue is what an order program drives.
type orderQueue interface {
	now() Time
	schedule(at Time, id int) // ids are 0, 1, 2, … in scheduling order
	cancel(id int) bool
	step() bool
	runUntil(deadline Time)
	next() (Time, bool)
	pending() int
}

// refQueue is the reference: a pending list, popped by a linear scan for
// the minimum (at, seq).
type refQueue struct {
	clock  Time
	seq    uint64
	list   []refEvent
	onFire func(id int)
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q *refQueue) now() Time    { return q.clock }
func (q *refQueue) pending() int { return len(q.list) }

func (q *refQueue) schedule(at Time, id int) {
	q.list = append(q.list, refEvent{at: at, seq: q.seq, id: id})
	q.seq++
}

func (q *refQueue) cancel(id int) bool {
	for i, e := range q.list {
		if e.id == id {
			q.list = append(q.list[:i], q.list[i+1:]...)
			return true
		}
	}
	return false
}

func (q *refQueue) min() int {
	best := -1
	for i, e := range q.list {
		if best < 0 || e.at < q.list[best].at || (e.at == q.list[best].at && e.seq < q.list[best].seq) {
			best = i
		}
	}
	return best
}

func (q *refQueue) step() bool {
	i := q.min()
	if i < 0 {
		return false
	}
	e := q.list[i]
	q.list = append(q.list[:i], q.list[i+1:]...)
	q.clock = e.at
	q.onFire(e.id)
	return true
}

func (q *refQueue) next() (Time, bool) {
	if i := q.min(); i >= 0 {
		return q.list[i].at, true
	}
	return 0, false
}

func (q *refQueue) runUntil(deadline Time) {
	for {
		at, ok := q.next()
		if !ok || at > deadline {
			break
		}
		q.step()
	}
	if q.clock < deadline {
		q.clock = deadline
	}
}

// simQueue drives a real Simulator through the same interface.
type simQueue struct {
	s      *Simulator
	refs   []EventRef
	onFire func(id int)
}

func (q *simQueue) HandleEvent(_ int, arg uint64, _ []byte) { q.onFire(int(arg)) }

func (q *simQueue) now() Time              { return q.s.Now() }
func (q *simQueue) pending() int           { return q.s.Pending() }
func (q *simQueue) cancel(id int) bool     { return q.s.Cancel(q.refs[id]) }
func (q *simQueue) step() bool             { return q.s.Step() }
func (q *simQueue) runUntil(deadline Time) { q.s.RunUntil(deadline) }
func (q *simQueue) next() (Time, bool)     { return q.s.NextEventTime() }
func (q *simQueue) schedule(at Time, id int) {
	q.refs = append(q.refs, q.s.AtEvent(at, q, 0, uint64(id), nil))
}

// orderEntry is one observable step of a program: an event fired (at,
// with pending events left) or a cancellation attempted (cancel set,
// with its result).
type orderEntry struct {
	id      int
	at      Time
	pending int
	cancel  bool
	ok      bool
}

// orderProgram makes every choice through draw, so two runs fed the
// same draws make the same choices for as long as their queues agree.
type orderProgram struct {
	q      orderQueue
	draw   func(n int) int // uniform in [0, n)
	target int             // the occupancy the program hovers around
	ids    int
	fired  int
	log    []orderEntry
}

// horizon is the wheel's reach in nanoseconds, the boundary the delays
// straddle.
const horizon = Duration(wheelSlots << slotShift)

// delay draws from {0, 1–3 ns, the horizon ± 64 ns on and off the slot
// grid, multiples of 64 ns across the horizon, anything up to 2^27 ns}.
// Multiples of 64 keep many instants on one lattice, so events from
// both tiers often fall due together.
func (p *orderProgram) delay() Duration {
	switch p.draw(8) {
	case 0:
		return 0
	case 1:
		return Duration(1 + p.draw(3))
	case 2:
		return horizon + 64*Duration(p.draw(3)-1)
	case 3:
		return horizon - 64 + Duration(p.draw(129))
	case 4, 5:
		return 64 * Duration(p.draw(300))
	case 6:
		return Duration(p.draw(1 << 27))
	default:
		return 64 * Duration(p.draw(1<<21))
	}
}

func (p *orderProgram) spawn(n int) {
	for ; n > 0; n-- {
		p.q.schedule(p.q.now().Add(p.delay()), p.ids)
		p.ids++
	}
}

// onFire is every event's handler: log, schedule 0–2 more (1–2 below
// the target occupancy, 0–1 above it), and sometimes cancel one of the
// last 64 scheduled, fired and cancelled ones included.
func (p *orderProgram) onFire(id int) {
	p.fired++
	p.log = append(p.log, orderEntry{id: id, at: p.q.now(), pending: p.q.pending()})
	if p.q.pending() < p.target {
		p.spawn(1 + p.draw(2))
	} else {
		p.spawn(p.draw(2))
	}
	if p.draw(4) == 0 {
		p.cancelOne()
	}
}

func (p *orderProgram) cancelOne() {
	id := p.ids - 1 - p.draw(min(p.ids, 64))
	p.log = append(p.log, orderEntry{id: id, cancel: true, ok: p.q.cancel(id)})
}

// run steps the queue until maxFired events have fired (or, for a
// program that keeps cancelling what it schedules, for at most 4×maxFired
// rounds). Now and then — and whenever the queue runs dry — it parks the
// clock one nanosecond before the next event from outside the loop and
// schedules from there.
func (p *orderProgram) run(maxFired int) []orderEntry {
	p.target = 4 << p.draw(6)
	p.spawn(1 + p.draw(8))
	for round := 0; p.fired < maxFired && round < 4*maxFired; round++ {
		if p.q.pending() == 0 || p.draw(40) == 1 {
			if at, ok := p.q.next(); ok && at > p.q.now()+1 {
				p.q.runUntil(at - 1)
			}
			p.spawn(1 + p.draw(4))
			if p.draw(2) == 1 {
				p.cancelOne()
			}
			continue
		}
		p.q.step()
	}
	return p.log
}

// runBoth runs one program on the Simulator and on refQueue, each with a
// fresh draw source from mkDraw, and reports the first divergence.
func runBoth(mkDraw func() func(int) int, maxFired int) error {
	sq := &simQueue{s: New(1)}
	sp := &orderProgram{q: sq, draw: mkDraw()}
	sq.onFire = sp.onFire
	rq := &refQueue{}
	rp := &orderProgram{q: rq, draw: mkDraw()}
	rq.onFire = rp.onFire
	got, want := sp.run(maxFired), rp.run(maxFired)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d: simulator %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("simulator logged %d entries, reference %d", len(got), len(want))
	}
	return nil
}

// TestEventOrderMatchesReference runs 300 seeded programs of 3 000 fired
// events each: every fired (id, instant), every Pending count after a
// fire and every Cancel result must match the reference queue's.
func TestEventOrderMatchesReference(t *testing.T) {
	programs, events := 300, 3000
	if testing.Short() {
		programs = 30
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		mk := func() func(int) int { return rand.New(rand.NewSource(seed)).Intn }
		if err := runBoth(mk, events); err != nil {
			t.Fatalf("program %d: %v", seed, err)
		}
	}
}

// FuzzEventOrder feeds program bytes through the same comparison: each
// draw takes one byte, or four for a range wider than a byte, and an
// exhausted program draws zeros.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 2, 1, 0, 2, 2, 2, 7, 3, 3, 4, 200, 1})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, prog []byte) {
		mk := func() func(int) int {
			rest := prog
			return func(n int) int {
				width := 1
				if n > 256 {
					width = 4
				}
				if len(rest) < width {
					return 0
				}
				var v uint32
				if width == 1 {
					v = uint32(rest[0])
				} else {
					v = binary.LittleEndian.Uint32(rest)
				}
				rest = rest[width:]
				return int(v % uint32(n))
			}
		}
		if err := runBoth(mk, 500); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrossTierTieFiresInSeqOrder pins the cross-tier tie rule: a far
// event and a wheel event due at the same instant fire in scheduling
// order, whichever tier holds which.
func TestCrossTierTieFiresInSeqOrder(t *testing.T) {
	s := New(1)
	var order []string
	at := Time(3 * horizon)
	far := s.At(at, func() { order = append(order, "far") })
	s.RunUntil(at - 100)
	near := s.At(at, func() { order = append(order, "near") })
	if far.ev.idx < 0 || near.ev.idx >= 0 {
		t.Fatalf("tiers: far in wheel=%v, near in wheel=%v; want false, true", far.ev.idx < 0, near.ev.idx < 0)
	}
	s.Run()
	if len(order) != 2 || order[0] != "far" || order[1] != "near" {
		t.Fatalf("fire order %v, want [far near]", order)
	}
}

// TestPendingCountsBothTiers checks Pending adds the wheel and the heap,
// through scheduling and through cancellation from each.
func TestPendingCountsBothTiers(t *testing.T) {
	s := New(1)
	near := s.After(10, func() {})
	s.After(20, func() {})
	far := s.After(2*horizon, func() {})
	s.After(3*horizon, func() {})
	if s.near.n != 2 || len(s.far) != 2 || s.Pending() != 4 {
		t.Fatalf("wheel %d, heap %d, Pending %d; want 2, 2, 4", s.near.n, len(s.far), s.Pending())
	}
	s.Cancel(near)
	s.Cancel(far)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after cancelling one event per tier, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 || s.Executed() != 2 {
		t.Fatalf("Pending %d, Executed %d after drain; want 0, 2", s.Pending(), s.Executed())
	}
}

// holdHandler is the hold model: every event it fires schedules one
// more, so the queue's occupancy stays where it was filled to. One event
// in sixteen is a timer due up to one horizon past the wheel's horizon;
// the rest are due within 8 µs. Both live a few microseconds, so once
// every initial event has fired the mix of pending events is stationary:
// about 70 % in the wheel.
type holdHandler struct {
	s *Simulator
	x uint64 // xorshift state
}

func (h *holdHandler) delay() Duration {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	if h.x%16 == 0 {
		return horizon + Duration(h.x>>8)%horizon
	}
	return Duration(h.x >> 8 % 8192)
}

func (h *holdHandler) HandleEvent(int, uint64, []byte) { h.s.AfterEvent(h.delay(), h, 0, 0, nil) }

// BenchmarkEventQueueHold is the queue's cost per event at the mean
// occupancies measured in the bulk (≈ 50 pending) and incast (≈ 1 000)
// benchmark scenarios: each op fires one event, which schedules one.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, pending := range []int{50, 1000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New(1)
			h := &holdHandler{s: s, x: 88172645463325252}
			for range pending {
				s.AfterEvent(h.delay(), h, 0, 0, nil)
			}
			// Past the longest delay twice over: the stationary mix.
			s.DrainUntil(s.Now().Add(4 * horizon))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s.Step()
			}
		})
	}
}
