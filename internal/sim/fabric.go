package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Fabric is a sharded discrete-event simulation: one Simulator (event
// heap, freelist, clock) per partition — in Lumina, one per fabric node
// — synchronized by conservative lookahead. Cross-shard links turn
// frame arrivals into timestamped messages that the fabric delivers
// into the receiving shard at the start of the next safe window.
//
// Correctness sketch. Let lookahead L be the minimum propagation delay
// over all cross-shard links (at least 1 ns; Connect enforces it). A
// window starts at t = the global minimum pending instant (heaps and
// undelivered messages) and spans [t, t+L). Every send a shard performs
// inside the window happens at now ≥ t, so its arrival is at
// now + serialization + propagation ≥ t + L — strictly after the
// window. Shards therefore cannot affect each other within a window,
// and running their windows concurrently is equivalent to running them
// in any serial order. Each window fires or delivers at least one
// event, so the loop makes progress.
//
// Determinism. Messages are injected in the canonical order
// (arrival instant, send instant, source-port ordinal, send index) and
// each injected arrival carries the sender's scheduling instant, so a
// shard's heap orders same-instant events by (at, schedAt, seq) — the
// order a single global heap would have produced, up to the residual
// tie of two events scheduled at the same nanosecond on different
// shards for the same instant (broken canonically by port ordinal).
// The result is byte-identical at any shard/goroutine count, including
// MaxProcs 1: parallelism only changes wall-clock time.
type Fabric struct {
	nodes []*Simulator
	rng   *RNG

	lookahead Duration
	nextOrd   int

	// out is the per-shard outbox of cross-shard messages produced
	// during the current window; only the owning shard's goroutine
	// appends, and the fabric sweeps it at the barrier.
	out [][]envelope
	// pending holds swept, not-yet-delivered messages in canonical
	// order.
	pending []envelope

	// maxPar caps the number of shard goroutines run concurrently
	// inside one window (1 = serial). It has no effect on results.
	maxPar int

	wg sync.WaitGroup
}

// envelope is one cross-shard frame in flight.
type envelope struct {
	arrive Time
	sched  Time // sender's clock at Send — the canonical scheduling stamp
	srcOrd int  // sending port's creation ordinal
	idx    uint64
	src    *Port
	data   []byte
	owned  bool // data is a pool frame whose ownership crosses with it
}

// NewFabric creates a fabric of n single-shard simulators sharing one
// seeded RNG. Components fork from the shared RNG during the (serial)
// build phase in creation order, so a fabric build consumes the RNG
// stream exactly like an unsharded build that creates the same
// components in the same order. maxPar caps concurrent shard execution;
// 0 means one goroutine per available CPU.
func NewFabric(seed int64, n, maxPar int) *Fabric {
	if n < 1 {
		panic("sim: fabric needs at least one shard")
	}
	if maxPar <= 0 {
		maxPar = runtime.NumCPU()
	}
	f := &Fabric{
		rng:       NewRNG(seed),
		lookahead: Duration(MaxTime),
		maxPar:    maxPar,
		out:       make([][]envelope, n),
	}
	for i := 0; i < n; i++ {
		s := &Simulator{rng: f.rng, fabric: f, shard: i}
		f.nodes = append(f.nodes, s)
	}
	return f
}

// Node returns shard i's simulator.
func (f *Fabric) Node(i int) *Simulator { return f.nodes[i] }

// Nodes returns the number of shards.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// RNG returns the shared build-phase RNG.
func (f *Fabric) RNG() *RNG { return f.rng }

// Lookahead returns the conservative window span (the minimum
// cross-shard propagation delay).
func (f *Fabric) Lookahead() Duration { return f.lookahead }

// Connect creates a link between shards a and b (which may be equal:
// the link is then an ordinary intra-shard link). Cross-shard links
// must have a propagation delay of at least 1 ns — it is the
// conservative lookahead bound.
func (f *Fabric) Connect(a, b int, nameA, nameB string, gbps float64, prop Duration) (*Port, *Port) {
	if gbps <= 0 {
		panic("sim: link rate must be positive")
	}
	l := &Link{GbpsRate: gbps, Propagation: prop}
	pa := &Port{Name: nameA, sim: f.nodes[a], link: l, ord: f.nextOrd}
	pb := &Port{Name: nameB, sim: f.nodes[b], link: l, ord: f.nextOrd + 1}
	f.nextOrd += 2
	pa.peer, pb.peer = pb, pa
	l.A, l.B = pa, pb
	if a != b {
		if prop < 1 {
			panic(fmt.Sprintf("sim: cross-shard link %s<->%s needs propagation >= 1ns", nameA, nameB))
		}
		if prop < f.lookahead {
			f.lookahead = prop
		}
	}
	return pa, pb
}

// post queues one cross-shard frame; called from Port.SendFrame on the
// sending shard's goroutine. The bytes are not copied: an owned frame
// changes shards with its envelope and is released into the receiving
// shard's pool (the window barrier orders the sender's writes before
// the receiver's reads); an unowned one stays the sender's, as on an
// intra-shard link.
func (f *Fabric) post(p *Port, data []byte, owned bool, now, arrive Time) {
	src := p.sim.shard
	ob := f.out[src]
	f.out[src] = append(ob, envelope{
		arrive: arrive, sched: now, srcOrd: p.ord, idx: uint64(len(ob)),
		src: p, data: data, owned: owned,
	})
}

// sweep moves every shard outbox into the canonical pending list. Runs
// between windows, with no shard goroutine active.
func (f *Fabric) sweep() {
	moved := false
	for i := range f.out {
		if len(f.out[i]) > 0 {
			f.pending = append(f.pending, f.out[i]...)
			f.out[i] = f.out[i][:0]
			moved = true
		}
	}
	if moved {
		sort.SliceStable(f.pending, func(a, b int) bool {
			x, y := &f.pending[a], &f.pending[b]
			if x.arrive != y.arrive {
				return x.arrive < y.arrive
			}
			if x.sched != y.sched {
				return x.sched < y.sched
			}
			if x.srcOrd != y.srcOrd {
				return x.srcOrd < y.srcOrd
			}
			return x.idx < y.idx
		})
	}
}

// deliver injects every pending message arriving before horizon into
// its receiving shard's heap, in canonical order.
func (f *Fabric) deliver(horizon Time) {
	n := 0
	for n < len(f.pending) && f.pending[n].arrive < horizon {
		n++
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		env := &f.pending[i]
		dst := env.src.peer
		dst.sim.atSched(env.arrive, env.sched, dst, portRx, OwnedArg(env.owned), env.data)
		*env = envelope{}
	}
	f.pending = append(f.pending[:0], f.pending[n:]...)
}

// next returns the earliest pending instant across every shard heap and
// undelivered message.
func (f *Fabric) next() (Time, bool) {
	t, ok := Time(0), false
	for _, s := range f.nodes {
		if at, has := s.NextEventTime(); has && (!ok || at < t) {
			t, ok = at, true
		}
	}
	if len(f.pending) > 0 {
		if at := f.pending[0].arrive; !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// window runs one conservative window ending strictly before horizon:
// it delivers due messages, then drains every shard's events with
// at < horizon — concurrently when more than one shard is active and
// maxPar allows — and sweeps the outboxes at the barrier.
func (f *Fabric) window(horizon Time) {
	f.deliver(horizon)
	limit := horizon - 1
	var active []*Simulator
	for _, s := range f.nodes {
		if at, ok := s.NextEventTime(); ok && at <= limit {
			active = append(active, s)
		}
	}
	switch {
	case len(active) == 0:
	case len(active) == 1 || f.maxPar == 1:
		for _, s := range active {
			s.drainWindow(limit)
		}
	default:
		sem := make(chan struct{}, f.maxPar)
		for _, s := range active {
			s := s
			sem <- struct{}{}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				s.drainWindow(limit)
				<-sem
			}()
		}
		f.wg.Wait()
	}
	f.sweep()
}

// drainWindow fires every event at or before limit, leaving the clock
// at the last fired event.
func (s *Simulator) drainWindow(limit Time) {
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		s.stepBatch()
	}
}

// DrainUntil fires events up to and including deadline across every
// shard, window by window; like Simulator.DrainUntil it leaves each
// shard's clock at its last fired event. Call AlignClocks afterwards
// for a single global "end of run" reading.
func (f *Fabric) DrainUntil(deadline Time) {
	if deadline > MaxTime-1 {
		deadline = MaxTime - 1
	}
	for {
		t, ok := f.next()
		if !ok || t > deadline {
			return
		}
		horizon := t.Add(f.lookahead)
		if horizon < t || horizon > deadline+1 { // overflow-safe clamp
			horizon = deadline + 1
		}
		f.window(horizon)
	}
}

// Run drains every shard until no events or messages remain, then
// returns the final (maximum) virtual time.
func (f *Fabric) Run() Time {
	f.DrainUntil(MaxTime - 1)
	return f.Now()
}

// Now returns the maximum shard clock — the fabric-wide notion of "how
// far the run has progressed".
func (f *Fabric) Now() Time {
	var t Time
	for _, s := range f.nodes {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// AlignClocks advances every shard's clock to the fabric-wide maximum
// (clocks only ever move forward). Orchestrators call it after the run
// so per-shard snapshots (traffic end times, durations) read the same
// instant an unsharded run would report.
func (f *Fabric) AlignClocks() {
	t := f.Now()
	for _, s := range f.nodes {
		if s.now < t {
			s.now = t
		}
	}
}

// Executed sums fired events across shards.
func (f *Fabric) Executed() uint64 {
	var n uint64
	for _, s := range f.nodes {
		n += s.executed
	}
	return n
}

// PendingMessages reports undelivered cross-shard messages (after the
// last window this is always zero; exposed for tests).
func (f *Fabric) PendingMessages() int { return len(f.pending) }
