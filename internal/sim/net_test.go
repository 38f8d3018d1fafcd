package sim

import (
	"testing"
	"testing/quick"
)

func pipe(t *testing.T, s *Simulator, gbps float64, prop Duration) (*Port, *Port, *[][]byte) {
	t.Helper()
	a, b := Connect(s, "a", "b", gbps, prop)
	var rx [][]byte
	b.SetReceiver(func(data []byte) { rx = append(rx, data) })
	a.SetReceiver(func(data []byte) {})
	return a, b, &rx
}

func TestLinkDeliversFrames(t *testing.T) {
	s := New(1)
	a, _, rx := pipe(t, s, 100, 0)
	a.Send([]byte("hello"))
	s.Run()
	if len(*rx) != 1 || string((*rx)[0]) != "hello" {
		t.Fatalf("rx = %q", *rx)
	}
}

func TestSerializationDelayAtLineRate(t *testing.T) {
	// 1250 bytes at 100 Gbps = 10000 bits / 100 bits-per-ns = 100 ns.
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 0)
	var at Time
	b.SetReceiver(func([]byte) { at = s.Now() })
	a.Send(make([]byte, 1250))
	s.Run()
	if at != 100 {
		t.Fatalf("frame arrived at %v, want 100ns", at)
	}
}

func TestPropagationDelayAdds(t *testing.T) {
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 500)
	var at Time
	b.SetReceiver(func([]byte) { at = s.Now() })
	a.Send(make([]byte, 1250)) // 100ns serialization
	s.Run()
	if at != 600 {
		t.Fatalf("frame arrived at %v, want 600ns", at)
	}
}

func TestFIFOQueueingBackToBack(t *testing.T) {
	// Two frames sent at t=0 serialize back to back: second arrives one
	// serialization time after the first.
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 0)
	var arrivals []Time
	b.SetReceiver(func([]byte) { arrivals = append(arrivals, s.Now()) })
	a.Send(make([]byte, 1250))
	a.Send(make([]byte, 1250))
	s.Run()
	if len(arrivals) != 2 || arrivals[0] != 100 || arrivals[1] != 200 {
		t.Fatalf("arrivals = %v, want [100 200]", arrivals)
	}
}

func TestFramesArriveInOrder(t *testing.T) {
	s := New(1)
	a, _, rx := pipe(t, s, 40, 100)
	for i := 0; i < 20; i++ {
		a.Send([]byte{byte(i)})
	}
	s.Run()
	if len(*rx) != 20 {
		t.Fatalf("received %d frames, want 20", len(*rx))
	}
	for i, f := range *rx {
		if f[0] != byte(i) {
			t.Fatalf("frame %d carries %d: reordering on a FIFO link", i, f[0])
		}
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	// Traffic A→B must not delay traffic B→A.
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 0)
	var aAt, bAt Time
	a.SetReceiver(func([]byte) { aAt = s.Now() })
	b.SetReceiver(func([]byte) { bAt = s.Now() })
	a.Send(make([]byte, 12500)) // 1000 ns
	b.Send(make([]byte, 1250))  // 100 ns
	s.Run()
	if bAt != 1000 {
		t.Fatalf("a->b frame arrived at %v, want 1000", bAt)
	}
	if aAt != 100 {
		t.Fatalf("b->a frame arrived at %v, want 100 (duplex directions must be independent)", aAt)
	}
}

func TestQueueGaugeReturnsToZero(t *testing.T) {
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	for i := 0; i < 10; i++ {
		a.Send(make([]byte, 1250))
	}
	if a.QueueBytes() != 12500 {
		t.Fatalf("QueueBytes = %d immediately after sends, want 12500", a.QueueBytes())
	}
	s.Run()
	if a.QueueBytes() != 0 {
		t.Fatalf("QueueBytes = %d after drain, want 0", a.QueueBytes())
	}
	if a.MaxQueue != 12500 {
		t.Fatalf("MaxQueue = %d, want 12500", a.MaxQueue)
	}
}

func TestQueueGaugeMultiPortInterleaved(t *testing.T) {
	// Interleaved sends across two independent links: each port's gauge
	// tracks only its own backlog, and high-water marks never bleed
	// between ports.
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	c, d := Connect(s, "c", "d", 10, 0)
	d.SetReceiver(func([]byte) {})
	c.SetReceiver(func([]byte) {})
	for i := 0; i < 5; i++ {
		a.Send(make([]byte, 1250))
		c.Send(make([]byte, 500))
	}
	if a.QueueBytes() != 6250 || c.QueueBytes() != 2500 {
		t.Fatalf("queues = %d/%d after interleaved sends, want 6250/2500", a.QueueBytes(), c.QueueBytes())
	}
	s.Run()
	if a.QueueBytes() != 0 || c.QueueBytes() != 0 {
		t.Fatalf("queues = %d/%d after drain, want 0/0", a.QueueBytes(), c.QueueBytes())
	}
	if a.MaxQueue != 6250 || c.MaxQueue != 2500 {
		t.Fatalf("high-water marks = %d/%d, want 6250/2500", a.MaxQueue, c.MaxQueue)
	}
}

func TestQueueGaugeDuplexIndependent(t *testing.T) {
	// The two directions of one link are separate queues: a deep backlog
	// on A→B must leave B→A's gauge untouched.
	s := New(1)
	a, b := Connect(s, "a", "b", 100, 0)
	a.SetReceiver(func([]byte) {})
	b.SetReceiver(func([]byte) {})
	for i := 0; i < 8; i++ {
		a.Send(make([]byte, 1250))
	}
	b.Send(make([]byte, 100))
	if a.QueueBytes() != 10000 || b.QueueBytes() != 100 {
		t.Fatalf("queues = %d/%d, want 10000/100", a.QueueBytes(), b.QueueBytes())
	}
	s.Run()
	if a.MaxQueue != 10000 || b.MaxQueue != 100 {
		t.Fatalf("high-water marks = %d/%d, want 10000/100", a.MaxQueue, b.MaxQueue)
	}
}

func TestQueueGaugeDrainSchedule(t *testing.T) {
	// Back-to-back sends drain one serialization time apart: 3×1250B at
	// 100 Gbps leave the queue at t=100, 200, 300 exactly.
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	for i := 0; i < 3; i++ {
		a.Send(make([]byte, 1250))
	}
	want := []struct {
		at    Time
		queue int64
	}{{99, 3750}, {100, 2500}, {199, 2500}, {200, 1250}, {299, 1250}, {300, 0}}
	for _, w := range want {
		s.RunUntil(w.at)
		if a.QueueBytes() != w.queue {
			t.Fatalf("QueueBytes = %d at t=%d, want %d", a.QueueBytes(), w.at, w.queue)
		}
	}
	if a.MaxQueue != 3750 {
		t.Fatalf("MaxQueue = %d, want 3750", a.MaxQueue)
	}
}

func TestBusyAccumulatesAcrossIdleGaps(t *testing.T) {
	// Busy is cumulative committed serialization time, unaffected by idle
	// gaps between frames.
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	a.Send(make([]byte, 1250)) // 100 ns
	s.Run()
	s.At(s.Now().Add(5000), func() { a.Send(make([]byte, 2500)) }) // 200 ns
	s.Run()
	if a.Busy != 300 {
		t.Fatalf("Busy = %v after 100ns + 200ns of serialization, want 300", a.Busy)
	}
}

func TestStamperSeesPreFrameState(t *testing.T) {
	// The stamper observes the port as the frame arrives at the queue:
	// bytes queued ahead of it and Busy *before* this frame's own
	// serialization is credited.
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	type obs struct {
		at    Time
		ahead int64
		busy  Duration
	}
	var got []obs
	a.SetStamper(func(data []byte, at Time, queuedAhead int64, busy Duration) {
		got = append(got, obs{at, queuedAhead, busy})
	})
	for i := 0; i < 3; i++ {
		a.Send(make([]byte, 1250))
	}
	s.Run()
	want := []obs{{0, 0, 0}, {0, 1250, 100}, {0, 2500, 200}}
	if len(got) != len(want) {
		t.Fatalf("stamper fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stamp %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestStamperMutationReachesReceiver(t *testing.T) {
	// Stamping rewrites header bytes in place; the receiver must see the
	// stamped frame, not a pre-stamp copy.
	s := New(1)
	a, _, rx := pipe(t, s, 100, 0)
	a.SetStamper(func(data []byte, _ Time, _ int64, _ Duration) { data[0] = 0xEE })
	a.Send(make([]byte, 64))
	s.Run()
	if len(*rx) != 1 || (*rx)[0][0] != 0xEE {
		t.Fatalf("receiver saw %d frame(s), first byte %#x; want stamped 0xEE", len(*rx), (*rx)[0][0])
	}
}

func TestTxBacklog(t *testing.T) {
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	if a.TxBacklog() != 0 {
		t.Fatal("fresh port reports nonzero backlog")
	}
	a.Send(make([]byte, 12500)) // 1000 ns serialization
	if got := a.TxBacklog(); got != 1000 {
		t.Fatalf("TxBacklog = %v, want 1000ns", got)
	}
}

func TestSendOnDisconnectedPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("send on disconnected port did not panic")
		}
	}()
	p := &Port{Name: "floating", sim: New(1)}
	p.Send([]byte{1})
}

func TestMissingReceiverPanics(t *testing.T) {
	s := New(1)
	a, _ := Connect(s, "a", "b", 100, 0)
	a.Send([]byte{1})
	defer func() {
		if recover() == nil {
			t.Error("delivery to a port with no receiver did not panic")
		}
	}()
	s.Run()
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(1250, 100); got != 100 {
		t.Fatalf("TransferTime(1250B, 100Gbps) = %v, want 100ns", got)
	}
	if got := TransferTime(1250, 10); got != 1000 {
		t.Fatalf("TransferTime(1250B, 10Gbps) = %v, want 1000ns", got)
	}
}

func TestLinkRateMustBePositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Connect with zero rate did not panic")
		}
	}()
	Connect(New(1), "a", "b", 0, 0)
}

// Property: total arrival time of n back-to-back frames equals
// n*serialization + propagation (conservation of link capacity).
func TestPropertyBackToBackThroughput(t *testing.T) {
	f := func(nFrames uint8, size uint16) bool {
		n := int(nFrames%32) + 1
		sz := int(size%1400) + 100
		s := New(7)
		a, b := Connect(s, "a", "b", 100, 50)
		var last Time
		got := 0
		b.SetReceiver(func([]byte) { last = s.Now(); got++ })
		for i := 0; i < n; i++ {
			a.Send(make([]byte, sz))
		}
		s.Run()
		ser := a.link.SerializationDelay(sz)
		want := Time(int64(n)*int64(ser)) + 50
		return got == n && last == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG determinism and range bounds.
func TestPropertyRNG(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		m := int(n%1000) + 1
		r1, r2 := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 50; i++ {
			v1, v2 := r1.Intn(m), r2.Intn(m)
			if v1 != v2 || v1 < 0 || v1 >= m {
				return false
			}
			f1, f2 := r1.Float64(), r2.Float64()
			if f1 != f2 || f1 < 0 || f1 >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork()
	// Drawing from the fork must not perturb the parent relative to a
	// parent that forked but never used the fork.
	r2 := NewRNG(5)
	f2 := r2.Fork()
	_ = f2
	for i := 0; i < 10; i++ {
		f1.Uint64()
	}
	for i := 0; i < 10; i++ {
		if r.Uint64() != r2.Uint64() {
			t.Fatal("draws from a fork perturbed the parent stream")
		}
	}
}

func TestPortConnectivityAccessors(t *testing.T) {
	s := New(1)
	a, b := Connect(s, "a", "b", 10, 0)
	if a.link == nil || a.link != b.link {
		t.Fatal("connected ports do not share their link")
	}
	if a.peer != b || b.peer != a {
		t.Fatal("peer links wrong")
	}
	var floating Port
	if floating.link != nil || floating.peer != nil {
		t.Fatal("floating port reports connectivity")
	}
}

func TestRNGAuxiliaryMethods(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		_ = r.Uint32()
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	r.Int63n(0)
}

func TestTransferTimePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TransferTime with zero rate did not panic")
		}
	}()
	TransferTime(100, 0)
}

// Tie order of the lazy queue gauge. A frame leaves the gauge at its
// done instant, ordered among that instant's events as the explicit
// tx-done event used to be: after everything scheduled before the Send,
// before everything scheduled after it.
func TestQueueGaugeTieOrder(t *testing.T) {
	type seen struct {
		gauge, ahead, max int64 // at the probe: QueueBytes, the stamper's queuedAhead, MaxQueue after its send
		atArrival         int64 // QueueBytes when the 1250-byte frame reaches the peer
	}
	for _, c := range []struct {
		name        string
		prop        Duration
		probeBefore bool // probe scheduled before the Send it races
		want        seen
	}{
		{"scheduled before, zero propagation", 0, true, seen{1250, 1250, 1350, 100}},
		{"scheduled after, zero propagation", 0, false, seen{0, 0, 1250, 0}},
		{"scheduled before", 500, true, seen{1250, 1250, 1350, 0}},
		{"scheduled after", 500, false, seen{0, 0, 1250, 0}},
	} {
		s := New(1)
		a, b := Connect(s, "a", "b", 100, c.prop)
		a.SetReceiver(func([]byte) {})
		var got seen
		b.SetReceiver(func(data []byte) {
			if len(data) == 1250 {
				got.atArrival = a.QueueBytes()
			}
		})
		a.SetStamper(func(data []byte, _ Time, queuedAhead int64, _ Duration) {
			if len(data) == 100 {
				got.ahead = queuedAhead
			}
		})
		// The probe fires at t=100, exactly when the 1250-byte frame sent
		// at t=0 finishes serializing, and sends 100 bytes of its own.
		probe := func() {
			got.gauge = a.QueueBytes()
			a.Send(make([]byte, 100))
			got.max = a.MaxQueue
		}
		if c.probeBefore {
			s.At(100, probe)
		}
		a.Send(make([]byte, 1250))
		if !c.probeBefore {
			s.At(100, probe)
		}
		s.Run()
		if got != c.want {
			t.Errorf("%s: saw %+v, want %+v", c.name, got, c.want)
		}
		if q := a.QueueBytes(); q != 0 {
			t.Errorf("%s: QueueBytes = %d after drain, want 0", c.name, q)
		}
	}
}

// gaugeModel is what the lazy-gauge property test drives: the real Port
// and a reference that still schedules one tx-done event per frame.
type gaugeModel interface {
	send(n int)
	queue() int64
	maxQueue() int64
}

type realGauge struct{ p *Port }

func (r realGauge) send(n int)      { r.p.Send(make([]byte, n)) }
func (r realGauge) queue() int64    { return r.p.QueueBytes() }
func (r realGauge) maxQueue() int64 { return r.p.MaxQueue }

// refGauge is the port model as it was before the gauge went lazy: the
// frame's bytes leave the queue in an event of their own at done,
// scheduled immediately before the arrival event.
type refGauge struct {
	s        *Simulator
	link     Link
	txFreeAt Time
	q, max   int64
	stamp    func(queuedAhead int64)
	recv     func(n int)
}

func (r *refGauge) send(n int) {
	r.stamp(r.q)
	start := r.s.Now()
	if r.txFreeAt > start {
		start = r.txFreeAt
	}
	done := start.Add(r.link.SerializationDelay(n))
	r.txFreeAt = done
	r.q += int64(n)
	if r.q > r.max {
		r.max = r.q
	}
	r.s.At(done, func() { r.q -= int64(n) })
	r.s.At(done.Add(r.link.Propagation), func() { r.recv(n) })
}
func (r *refGauge) queue() int64    { return r.q }
func (r *refGauge) maxQueue() int64 { return r.max }

// replayGauge runs one seeded random send schedule against a model and
// returns everything the gauge showed: queuedAhead at every send, the
// gauge read between RunUntil steps, and its value and high-water mark
// after the drain. Times and serialization delays sit on a 10 ns grid so
// that sends, tx-done instants and arrivals collide constantly; sends
// come from events scheduled up front (before any frame), from arrival
// handlers, and from events those handlers schedule (after some frames).
func replayGauge(seed int64, mk func(s *Simulator, stamp func(int64), recv func(int)) gaugeModel) (obs []int64, frames int, executed uint64) {
	s := New(1)
	rng := NewRNG(seed)
	var m gaugeModel
	size := func() int { return 125 * (1 + rng.Intn(8)) } // 10..80 ns at 100 Gbps
	send := func() {
		frames++
		m.send(size())
	}
	m = mk(s, func(ahead int64) { obs = append(obs, ahead) }, func(int) {
		switch rng.Intn(4) {
		case 0:
			send()
		case 1:
			s.After(Duration(10*rng.Intn(6)), send)
		}
	})
	for i := 0; i < 40; i++ {
		s.At(Time(10*rng.Intn(120)), send)
	}
	for at := Time(0); at <= 1500; at += 10 {
		s.RunUntil(at)
		obs = append(obs, m.queue())
		if rng.Intn(8) == 0 {
			send() // from outside any event, between steps
		}
	}
	s.Run()
	return append(obs, m.queue(), m.maxQueue()), frames, s.Executed()
}

func TestPropertyLazyGaugeMatchesTxDoneEvent(t *testing.T) {
	realModel := func(prop Duration) func(*Simulator, func(int64), func(int)) gaugeModel {
		return func(s *Simulator, stamp func(int64), recv func(int)) gaugeModel {
			a, b := Connect(s, "a", "b", 100, prop)
			a.SetStamper(func(_ []byte, _ Time, queuedAhead int64, _ Duration) { stamp(queuedAhead) })
			b.SetReceiver(func(data []byte) { recv(len(data)) })
			return realGauge{a}
		}
	}
	refModel := func(prop Duration) func(*Simulator, func(int64), func(int)) gaugeModel {
		return func(s *Simulator, stamp func(int64), recv func(int)) gaugeModel {
			return &refGauge{s: s, link: Link{GbpsRate: 100, Propagation: prop}, stamp: stamp, recv: recv}
		}
	}
	for _, prop := range []Duration{0, 10, 50, 7} {
		for seed := int64(1); seed <= 50; seed++ {
			got, frames, events := replayGauge(seed, realModel(prop))
			want, refFrames, refEvents := replayGauge(seed, refModel(prop))
			if frames != refFrames || len(got) != len(want) {
				t.Fatalf("prop %v seed %d: schedules diverged: %d frames / %d observations, reference %d / %d",
					prop, seed, frames, len(got), refFrames, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("prop %v seed %d: observation %d of %d = %d, reference %d", prop, seed, i, len(want), got[i], want[i])
				}
			}
			if got[len(got)-2] != 0 {
				t.Fatalf("prop %v seed %d: gauge %d after drain", prop, seed, got[len(got)-2])
			}
			// The reference pays two events per frame, the port one.
			if events+uint64(frames) != refEvents {
				t.Fatalf("prop %v seed %d: %d events for %d frames, reference %d", prop, seed, events, frames, refEvents)
			}
		}
	}
}

func TestTxRingGrowsAndWraps(t *testing.T) {
	s := New(1)
	a, _, _ := pipe(t, s, 100, 0)
	// Steady state: five 125-byte frames (10 ns each) in the transmitter,
	// one leaving and one joining every 10 ns. The ring's head laps the
	// array many times and its capacity never moves.
	for i := 0; i < 5; i++ {
		a.Send(make([]byte, 125))
	}
	for i := 0; i < 100; i++ {
		s.RunFor(10)
		a.Send(make([]byte, 125))
		if q := a.QueueBytes(); q != 5*125 {
			t.Fatalf("step %d: QueueBytes = %d, want %d", i, q, 5*125)
		}
	}
	if len(a.txq) != txRingMin {
		t.Fatalf("ring grew to %d slots holding 5 frames, want %d", len(a.txq), txRingMin)
	}
	if a.txHead == 0 {
		t.Fatal("head did not move: the growth below would not exercise a wrapped ring")
	}
	// Growth from a wrapped ring keeps FIFO order: frames of distinct
	// sizes must leave the gauge in the order they were sent.
	sizes := []int64{5 * 125}
	want := int64(5 * 125)
	for i := 1; i <= 40; i++ {
		a.Send(make([]byte, 125*i))
		want += int64(125 * i)
		sizes = append(sizes, int64(125*i))
	}
	if len(a.txq) != 64 || a.txLen != 45 {
		t.Fatalf("ring holds %d frames in %d slots, want 45 in 64", a.txLen, len(a.txq))
	}
	if q := a.QueueBytes(); q != want || a.MaxQueue != want {
		t.Fatalf("QueueBytes/MaxQueue = %d/%d after burst, want %d", q, a.MaxQueue, want)
	}
	for i, sz := range sizes {
		// sizes[0] stands for the five 125-byte frames still queued.
		s.RunFor(Duration(sz / 125 * 10))
		want -= sz
		if q := a.QueueBytes(); q != want {
			t.Fatalf("after group %d left: QueueBytes = %d, want %d", i, q, want)
		}
	}
	if a.txLen != 0 || len(a.txq) != 64 {
		t.Fatalf("drained ring holds %d frames in %d slots, want 0 in 64", a.txLen, len(a.txq))
	}
}
