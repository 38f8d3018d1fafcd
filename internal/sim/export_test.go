package sim

// Test-only views of the event queue and the port gauge, read by the
// oracles in this package (order_test.go's reference queue among them).

// Pending reports the number of events still scheduled.
func (s *Simulator) Pending() int { return s.near.n + len(s.far) }

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
	if ev := s.head(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// QueueBytes reports the bytes currently waiting for or in serialization.
func (p *Port) QueueBytes() int64 {
	p.settle()
	return p.queueBytes
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
