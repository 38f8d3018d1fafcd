package rnic

import (
	"fmt"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// ETSQueueConfig describes one queue of the Enhanced Transmission
// Selection scheduler (IEEE 802.1Qaz): either a strict-priority queue or
// a weighted (bandwidth-share) queue. QPs map to queues via
// QPConfig.TrafficClass.
type ETSQueueConfig struct {
	Strict bool
	Weight int // bandwidth share weight among non-strict queues
}

// ETSConfig is the scheduler configuration for one NIC port.
type ETSConfig struct {
	Queues []ETSQueueConfig
}

// DefaultETSConfig is a single weighted queue — the configuration of a
// NIC with no traffic classes set up.
func DefaultETSConfig() ETSConfig {
	return ETSConfig{Queues: []ETSQueueConfig{{Weight: 100}}}
}

// Validate checks structural sanity.
func (c ETSConfig) Validate() error {
	if len(c.Queues) == 0 {
		return fmt.Errorf("rnic: ETS config needs at least one queue")
	}
	totalW := 0
	for i, q := range c.Queues {
		if q.Strict && q.Weight != 0 {
			return fmt.Errorf("rnic: ETS queue %d is strict but has a weight", i)
		}
		if !q.Strict {
			if q.Weight <= 0 {
				return fmt.Errorf("rnic: ETS queue %d needs a positive weight", i)
			}
			totalW += q.Weight
		}
	}
	return nil
}

// txKind discriminates the transmit descriptor variants.
type txKind uint8

const (
	txData txKind = iota
	txReadReq
	txReadResp
	txAtomicReq
	txAck
	txAtomicAck
)

// txPkt is one packet waiting in the NIC's transmit path — a plain value
// descriptor rather than a build closure, so enqueueing allocates
// nothing. Packets are built lazily at transmit time (QP.buildTx) so
// Go-back-N rewinds regenerate fresh wire bytes and queued-but-flushed
// packets cost nothing.
type txPkt struct {
	kind txKind
	size int
	psn  uint32
	// w covers requester descriptors (data, read request, atomic request).
	w *wqe
	// ctx/i cover read responses.
	ctx readCtx
	i   int
	// syndrome/msn/orig cover acknowledgements, whose content is
	// snapshotted at generation time.
	syndrome uint8
	msn      uint32
	orig     uint64
}

// etsQueue is the runtime state of one scheduler queue.
type etsQueue struct {
	cfg ETSQueueConfig
	idx int // position in the ETS config, for telemetry
	// qps holds the QPs assigned to this queue, served round-robin so a
	// rate-limited QP cannot head-of-line block its neighbours.
	qps []*QP
	rr  int
	// bytesServed normalizes weighted fairness: the scheduler picks the
	// eligible weighted queue minimizing bytesServed/weight.
	bytesServed int64
	// capReadyAt implements the CX6 Dx non-work-conservation bug
	// (§6.2.1): when capGbps > 0, the queue may not exceed its
	// guaranteed share even if every other queue is idle.
	capGbps    float64
	capReadyAt sim.Time
}

// etsScheduler arbitrates the NIC's single transmit port among queues
// and QPs, honoring strict priorities, weighted shares, per-QP DCQCN
// pacing, and (on buggy hardware) per-queue guarantee clamps.
type etsScheduler struct {
	nic     *NIC
	track   string // telemetry track of the grant probes
	queues  []*etsQueue
	busyTil sim.Time
	wake    sim.EventRef
	wakeAtT sim.Time
	pending int // packets queued across all QPs
}

func newETSScheduler(nic *NIC, cfg ETSConfig) *etsScheduler {
	s := &etsScheduler{nic: nic, track: nic.Name + "/ets"}
	totalW := 0
	weighted := 0
	for _, q := range cfg.Queues {
		if !q.Strict {
			totalW += q.Weight
			weighted++
		}
	}
	for i, qc := range cfg.Queues {
		q := &etsQueue{cfg: qc, idx: i}
		// The guarantee clamp only manifests when bandwidth is actually
		// partitioned across multiple weighted queues; a single queue
		// owns the port.
		if nic.Prof.ETSNonWorkConserving && !qc.Strict && weighted > 1 && totalW > 0 {
			q.capGbps = nic.Prof.LinkGbps * float64(qc.Weight) / float64(totalW)
		}
		s.queues = append(s.queues, q)
	}
	return s
}

func (s *etsScheduler) register(qp *QP) {
	tc := qp.cfg.TrafficClass
	if tc < 0 || tc >= len(s.queues) {
		// invariant: config.Validate refuses a qp-traffic-class outside the requester's ETS queues (one when none is set), fabric hosts share the requester's queues, and responder QPs use class 0.
		panic(fmt.Sprintf("rnic: QP traffic class %d out of range (%d ETS queues)", tc, len(s.queues)))
	}
	s.queues[tc].qps = append(s.queues[tc].qps, qp)
}

// enqueue admits a packet from qp into the scheduler.
func (s *etsScheduler) enqueue(qp *QP, pkt txPkt) {
	qp.txq.push(pkt)
	s.pending++
	s.kick()
}

// flush discards qp's queued-but-untransmitted packets (Go-back-N rewind
// or QP teardown).
func (s *etsScheduler) flush(qp *QP) {
	s.pending -= qp.txq.len()
	qp.txq.reset()
}

// kick runs the arbitration loop: transmit while the port is free and an
// eligible packet exists, otherwise sleep until the earliest of
// port-free / pacing / queue-cap expiry.
func (s *etsScheduler) kick() {
	now := s.nic.Sim.Now()
	if s.pending == 0 {
		return
	}
	if s.busyTil > now {
		s.nic.Sim.Coverage().Record(coverage.SiteETSBlock, coverage.ETSBlockPortBusy)
		s.wakeAt(s.busyTil)
		return
	}
	q, qp := s.pick(now)
	if qp == nil {
		s.nic.Sim.Coverage().Record(coverage.SiteETSBlock, coverage.ETSBlockIdle)
		if t, ok := s.nextEligible(now); ok {
			s.wakeAt(t)
		}
		return
	}
	pkt := qp.txq.pop()
	s.pending--
	size := pkt.size

	if q.cfg.Strict {
		s.nic.Sim.Coverage().Record(coverage.SiteETSGrant, coverage.ETSGrantStrict)
	} else {
		s.nic.Sim.Coverage().Record(coverage.SiteETSGrant, coverage.ETSGrantWeighted)
	}
	if h := s.nic.Sim.Hub(); h.Active() {
		h.EmitArgs(telemetry.KindETSPick, s.track, "grant",
			telemetry.I("queue", int64(q.idx)),
			telemetry.I("qpn", int64(qp.QPN)),
			telemetry.I("size", int64(size)))
	}

	// Port occupancy at line rate.
	ser := sim.TransferTime(size, s.nic.Prof.LinkGbps)
	s.busyTil = now.Add(ser)

	// Per-QP DCQCN pacing: the inter-packet gap reflects the paced rate.
	rate := qp.paceRate()
	gap := sim.TransferTime(size, rate)
	qp.paceReadyAt = now.Add(gap)
	if qp.rp != nil {
		qp.rp.onBytesSent(size)
	}

	// Queue accounting (weighted fairness + buggy guarantee clamp).
	q.bytesServed += int64(size)
	if q.capGbps > 0 {
		q.capReadyAt = now.Add(sim.TransferTime(size, q.capGbps))
	}

	s.nic.transmit(qp.buildTx(pkt), qp)
	s.wakeAt(s.busyTil)
}

func (s *etsScheduler) wakeAt(t sim.Time) {
	if !s.wake.Cancelled() {
		if s.wakeAtT <= t {
			return // an earlier (or equal) wake is already scheduled
		}
		s.nic.Sim.Cancel(s.wake)
	}
	s.wakeAtT = t
	s.wake = s.nic.Sim.AtEvent(t, s, 0, 0, nil)
}

// HandleEvent is the scheduler's only event: the wake-up wakeAt armed.
func (s *etsScheduler) HandleEvent(int, uint64, []byte) {
	s.wake = sim.EventRef{}
	s.kick()
}

// eligible reports whether qp's head packet may transmit now.
func (s *etsScheduler) eligible(q *etsQueue, qp *QP, now sim.Time) bool {
	if qp.txq.len() == 0 {
		return false
	}
	if qp.paceReadyAt > now {
		s.nic.Sim.Coverage().Record(coverage.SiteETSBlock, coverage.ETSBlockPacing)
		return false
	}
	if q.capGbps > 0 && q.capReadyAt > now {
		s.nic.Sim.Coverage().Record(coverage.SiteETSBlock, coverage.ETSBlockCap)
		return false
	}
	return true
}

// pick selects the next (queue, QP) to serve: strict queues first in
// configuration order, then weighted queues by normalized service.
func (s *etsScheduler) pick(now sim.Time) (*etsQueue, *QP) {
	for _, q := range s.queues {
		if !q.cfg.Strict {
			continue
		}
		if qp := s.pickQP(q, now); qp != nil {
			return q, qp
		}
	}
	var best *etsQueue
	var bestQP *QP
	var bestNorm float64
	for _, q := range s.queues {
		if q.cfg.Strict {
			continue
		}
		qp := s.pickQP(q, now)
		if qp == nil {
			continue
		}
		norm := float64(q.bytesServed) / float64(q.cfg.Weight)
		if best == nil || norm < bestNorm {
			best, bestQP, bestNorm = q, qp, norm
		}
	}
	return best, bestQP
}

// pickQP round-robins over the queue's QPs, returning the first eligible.
func (s *etsScheduler) pickQP(q *etsQueue, now sim.Time) *QP {
	n := len(q.qps)
	for i := 0; i < n; i++ {
		qp := q.qps[(q.rr+i)%n]
		if s.eligible(q, qp, now) {
			q.rr = (q.rr + i + 1) % n
			return qp
		}
	}
	return nil
}

// nextEligible finds the earliest instant any pending packet could become
// eligible.
func (s *etsScheduler) nextEligible(now sim.Time) (sim.Time, bool) {
	var t sim.Time
	found := false
	for _, q := range s.queues {
		for _, qp := range q.qps {
			if qp.txq.len() == 0 {
				continue
			}
			cand := qp.paceReadyAt
			if q.capGbps > 0 && q.capReadyAt > cand {
				cand = q.capReadyAt
			}
			if cand < now {
				cand = now
			}
			if !found || cand < t {
				t, found = cand, true
			}
		}
	}
	return t, found
}
