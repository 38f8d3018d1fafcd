package sim

import "fmt"

// Port is one end of a full-duplex Link. A component sends raw frames
// (serialized packet bytes) out of its ports; the link models store-and-
// forward serialization delay, FIFO output queueing, and propagation
// delay, then hands the frame to the peer port's receive handler.
type Port struct {
	Name string

	sim  *Simulator
	link *Link
	peer *Port
	recv func(data []byte, owned bool)

	// txFreeAt is the instant the transmitter finishes serializing the
	// last queued frame; it implements an infinite FIFO output queue.
	txFreeAt Time

	// txq is a power-of-two ring of the frames still counted in
	// queueBytes, oldest at txHead: each leaves the transmitter at its
	// done instant, but the gauge only learns that when settle runs. A
	// frame costs the event queue its arrival and nothing else.
	txq    []txFrame
	txHead int
	txLen  int
	// queueBytes is the queue gauge as of the last settle; read it
	// through QueueBytes.
	queueBytes int64

	// Gauges and counters, exported for integrity checks (§3.5).
	TxFrames uint64
	TxBytes  uint64
	RxFrames uint64
	RxBytes  uint64
	MaxQueue int64 // high-water mark of QueueBytes, sampled at each send
	// Busy is the cumulative serialization time committed to this port's
	// transmitter — the link-utilization numerator (Busy / elapsed). It
	// is credited at enqueue time, so over a window it can briefly exceed
	// the elapsed time (queued frames whose airtime lies in the future).
	Busy Duration

	// stamp, when set, observes every frame at enqueue time — before the
	// frame's own bytes are added to the queue gauges — and may rewrite
	// bytes in place (the INT stamping hook). It must not schedule events
	// or retain the slice.
	stamp func(data []byte, at Time, queuedAhead int64, busy Duration)
}

// SetStamper installs the per-frame egress hook invoked synchronously
// inside Send, with the queue depth ahead of the frame and the port's
// cumulative busy time at that instant. A nil fn removes the hook.
// Stamping is observe-and-rewrite only: the simulated schedule is
// identical with or without it.
func (p *Port) SetStamper(fn func(data []byte, at Time, queuedAhead int64, busy Duration)) {
	p.stamp = fn
}

// SetReceiver installs the function invoked for every frame arriving at
// this port. It must be set before any peer transmits. A receiver
// installed this way takes no part in frame ownership: it never releases
// a frame.
func (p *Port) SetReceiver(fn func(data []byte)) {
	if fn == nil {
		p.recv = nil
		return
	}
	p.recv = func(data []byte, _ bool) { fn(data) }
}

// SetFrameReceiver installs a receiver that also learns whether it now
// owns the frame: when owned is true the frame came from the pool and the
// receiver (or whoever it passes the frame on to) must eventually release
// it with Simulator.PutFrame; when false the bytes are the sender's and
// must be neither released nor kept past the handler.
func (p *Port) SetFrameReceiver(fn func(data []byte, owned bool)) { p.recv = fn }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }

// Peer returns the port on the other end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Send queues a frame for transmission. The frame is delivered to the
// peer after serialization (len/bandwidth, FIFO behind earlier frames)
// plus propagation delay. Send never blocks; queueing is unbounded, as in
// the paper's testbed the switch MMU is the only loss point and losses
// there are modelled explicitly by the injector. The buffer stays the
// caller's: no receiver releases or adopts it.
func (p *Port) Send(data []byte) { p.SendFrame(data, false) }

// txFrame is one frame between enqueue and the end of its
// serialization: bytes leave the queue gauge at done, ordered among the
// events of that instant as if by an event scheduled just before the
// frame's arrival event, whose sequence number is seq.
type txFrame struct {
	done  Time
	seq   uint64
	bytes int64
}

// txRingMin is the ring's first capacity; it doubles when a transmitter
// holds more frames than that at once.
const txRingMin = 8

// settle subtracts from the gauge every frame whose serialization has
// ended: done is in the past, or done is this instant and the simulator
// has already fired an event scheduled at or after the frame's arrival
// event. An event scheduled before the send and firing exactly at done
// therefore still sees the frame queued. The ring is in (done, seq)
// order, so the scan stops at the first frame still in the transmitter.
func (p *Port) settle() {
	now, fired := p.sim.now, p.sim.firedSeq
	for p.txLen > 0 {
		f := &p.txq[p.txHead]
		if f.done > now || (f.done == now && f.seq >= fired) {
			return
		}
		p.queueBytes -= f.bytes
		p.txHead = (p.txHead + 1) & (len(p.txq) - 1)
		p.txLen--
	}
}

// pushTx appends a frame to the ring, reusing settled slots and doubling
// the ring only when every slot holds a frame still in the transmitter.
func (p *Port) pushTx(f txFrame) {
	if p.txLen == len(p.txq) {
		grown := make([]txFrame, max(txRingMin, 2*len(p.txq)))
		n := copy(grown, p.txq[p.txHead:])
		copy(grown[n:], p.txq[:p.txHead])
		p.txq, p.txHead = grown, 0
	}
	p.txq[(p.txHead+p.txLen)&(len(p.txq)-1)] = f
	p.txLen++
}

// QueueBytes reports the bytes currently waiting for or in serialization.
func (p *Port) QueueBytes() int64 {
	p.settle()
	return p.queueBytes
}

// SendFrame is Send with explicit ownership: with owned set, data is a
// pool frame (Simulator.GetFrame) whose ownership passes to the peer's
// receiver.
func (p *Port) SendFrame(data []byte, owned bool) {
	if p.link == nil {
		// invariant: every Port comes from Connect, which links both ends; only a Port literal built by hand gets here.
		panic(fmt.Sprintf("sim: send on disconnected port %q", p.Name))
	}
	s := p.sim
	now := s.Now()
	p.settle()
	if p.stamp != nil {
		p.stamp(data, now, p.queueBytes, p.Busy)
	}
	start := now
	if p.txFreeAt > start {
		start = p.txFreeAt
	}
	ser := p.link.SerializationDelay(len(data))
	done := start.Add(ser)
	p.txFreeAt = done
	p.Busy += ser

	p.TxFrames++
	p.TxBytes += uint64(len(data))
	p.queueBytes += int64(len(data))
	if p.queueBytes > p.MaxQueue {
		p.MaxQueue = p.queueBytes
	}

	arrival := s.AtEvent(done.Add(p.link.Propagation), p.peer, 0, OwnedArg(owned), data)
	p.pushTx(txFrame{done: done, seq: arrival.ev.seq, bytes: int64(len(data))})
}

// OwnedArg encodes frame ownership as an event scalar — 1 owned, 0 not —
// for handlers that carry a frame in data across a delay.
func OwnedArg(owned bool) uint64 {
	if owned {
		return 1
	}
	return 0
}

// HandleEvent runs the port's one per-frame event: a frame arriving from
// the peer, owned by the receiver when arg is non-zero.
func (p *Port) HandleEvent(_ int, arg uint64, data []byte) {
	p.RxFrames++
	p.RxBytes += uint64(len(data))
	if p.recv == nil {
		// invariant: the builder attaches every port it connects to a NIC, switch or dumper node, each of which installs its receiver, before the first event runs.
		panic(fmt.Sprintf("sim: frame arrived at port %q with no receiver", p.Name))
	}
	p.recv(data, arg != 0)
}

// TxBacklog returns how long the transmitter is already committed beyond
// the current instant — i.e. the queueing delay a frame sent now would
// experience before its own serialization starts.
func (p *Port) TxBacklog() Duration {
	if p.txFreeAt <= p.sim.Now() {
		return 0
	}
	return p.txFreeAt.Sub(p.sim.Now())
}

// Link is a full-duplex point-to-point link between two ports.
type Link struct {
	// GbpsRate is the line rate in gigabits per second (e.g. 100 for the
	// CX5/CX6/E810 testbeds, 40 for CX4 Lx).
	GbpsRate float64
	// Propagation is the one-way signal propagation delay.
	Propagation Duration

	A, B *Port
}

// Connect creates a link between two fresh ports with the given line rate
// and propagation delay, returning both ports. The caller installs
// receivers and keeps the *Port handles.
func Connect(s *Simulator, nameA, nameB string, gbps float64, prop Duration) (*Port, *Port) {
	if gbps <= 0 {
		// invariant: a link rate is a built-in NIC profile's LinkGbps or a config rate, and config.Validate defaults non-positive rates and refuses non-finite ones.
		panic("sim: link rate must be positive")
	}
	l := &Link{GbpsRate: gbps, Propagation: prop}
	a := &Port{Name: nameA, sim: s, link: l}
	b := &Port{Name: nameB, sim: s, link: l}
	a.peer, b.peer = b, a
	l.A, l.B = a, b
	return a, b
}

// SerializationDelay returns the time to clock n bytes onto the wire.
func (l *Link) SerializationDelay(n int) Duration {
	bits := float64(n) * 8
	ns := bits / l.GbpsRate // Gbps == bits per nanosecond
	d := Duration(ns)
	if d < 1 && n > 0 {
		d = 1
	}
	return d
}

// TransferTime returns the serialization delay for n bytes at gbps line
// rate — a convenience used by rate-based schedulers that pace packets
// below the physical line rate.
func TransferTime(n int, gbps float64) Duration {
	if gbps <= 0 {
		// invariant: callers pass a profile's LinkGbps, a positive-weight share of it, a DCQCN rate floored at MinRateGbps, or a config rate config.Validate made positive and finite.
		panic("sim: non-positive rate")
	}
	return Duration(float64(n) * 8 / gbps)
}
