package rnic

import (
	"net/netip"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// DCQCN reaction-point constants from the DCQCN paper, in
// simulation-friendly units. Every profile shares them.
const (
	dcqcnG                  = 1.0 / 256             // alpha gain
	dcqcnAlphaTimer         = 55 * sim.Microsecond  // alpha decay period when no CNPs arrive
	dcqcnRateTimer          = 300 * sim.Microsecond // additive/fast increase period
	dcqcnByteCounter        = 10 << 10              // bytes per increase event (Mellanox-scale byte stage)
	dcqcnAIRateGbps         = 5                     // additive increase step
	dcqcnHAIRateGbps        = 50                    // hyper increase step
	dcqcnMinRateGbps        = 0.1                   // rate floor
	dcqcnFastRecoveryRounds = 5                     // timer/byte rounds in fast recovery before AI
)

// rpState is the DCQCN reaction-point rate controller attached to each
// QP when dcqcn-rp-enable is set. It follows the algorithm of the DCQCN
// paper (Zhu et al., SIGCOMM 2015): multiplicative decrease driven by
// CNP arrivals via the alpha estimator, then fast recovery toward the
// target rate, then additive and hyper increase.
type rpState struct {
	nic *NIC
	qp  *QP // owning QP, for the per-QP rate telemetry track

	lineGbps    float64
	currentGbps float64
	targetGbps  float64
	alpha       float64

	// cnpSeen records whether a CNP arrived during the current alpha
	// update period.
	cnpSeen bool

	// increase-stage bookkeeping
	timerRounds int   // rate-timer expirations since last decrease
	byteRounds  int   // byte-counter expirations since last decrease
	bytesSent   int64 // bytes since last byte-counter event

	alphaTimer sim.EventRef
	rateTimer  sim.EventRef
	active     bool
}

func newRPState(qp *QP) rpState {
	nic := qp.nic
	return rpState{
		nic:         nic,
		qp:          qp,
		lineGbps:    nic.Prof.LinkGbps,
		currentGbps: nic.Prof.LinkGbps,
		targetGbps:  nic.Prof.LinkGbps,
		alpha:       1,
	}
}

// emitRate publishes the paced rate as a per-QP counter track.
func (rp *rpState) emitRate() {
	if h := rp.nic.Sim.Hub(); h.Active() {
		h.EmitCounter(telemetry.KindDCQCNRate, rp.qp.track, "rate_mbps",
			int64(rp.rate()*1000))
	}
}

// rate returns the paced sending rate in Gbps. Before any CNP arrives
// the QP runs at line rate.
func (rp *rpState) rate() float64 {
	if !rp.active {
		return rp.lineGbps
	}
	return rp.currentGbps
}

// onCNP applies the DCQCN multiplicative decrease and (re)arms the
// estimator timers.
func (rp *rpState) onCNP() {
	rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPCnpCut)
	if !rp.active {
		rp.active = true
		rp.alpha = 1
	}
	rp.targetGbps = rp.currentGbps
	rp.currentGbps *= 1 - rp.alpha/2
	if rp.currentGbps < dcqcnMinRateGbps {
		rp.currentGbps = dcqcnMinRateGbps
	}
	rp.alpha = (1-dcqcnG)*rp.alpha + dcqcnG
	rp.cnpSeen = true
	rp.timerRounds, rp.byteRounds, rp.bytesSent = 0, 0, 0
	rp.emitRate()
	rp.armTimers()
}

func (rp *rpState) armTimers() {
	s := rp.nic.Sim
	s.Cancel(rp.alphaTimer)
	rp.alphaTimer = s.AfterEvent(dcqcnAlphaTimer, rp, rpAlphaTick, 0, nil)
	s.Cancel(rp.rateTimer)
	rp.rateTimer = s.AfterEvent(dcqcnRateTimer, rp, rpRateTick, 0, nil)
}

// rpState event ops: the two estimator timers.
const (
	rpAlphaTick = iota
	rpRateTick
)

// HandleEvent fires the timer op selects.
func (rp *rpState) HandleEvent(op int, _ uint64, _ []byte) {
	if op == rpAlphaTick {
		rp.alphaTick()
	} else {
		rp.rateTick()
	}
}

func (rp *rpState) alphaTick() {
	if !rp.active {
		return
	}
	if !rp.cnpSeen {
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPAlphaDecay)
		rp.alpha *= 1 - dcqcnG
	}
	rp.cnpSeen = false
	rp.alphaTimer = rp.nic.Sim.AfterEvent(dcqcnAlphaTimer, rp, rpAlphaTick, 0, nil)
}

func (rp *rpState) rateTick() {
	if !rp.active {
		return
	}
	rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPTimerRound)
	rp.timerRounds++
	rp.increase()
	rp.rateTimer = rp.nic.Sim.AfterEvent(dcqcnRateTimer, rp, rpRateTick, 0, nil)
}

// onBytesSent feeds the byte counter that drives the second increase
// dimension.
func (rp *rpState) onBytesSent(n int) {
	if !rp.active {
		return
	}
	rp.bytesSent += int64(n)
	for rp.bytesSent >= dcqcnByteCounter {
		rp.bytesSent -= dcqcnByteCounter
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPByteRound)
		rp.byteRounds++
		rp.increase()
	}
}

// increase performs one fast-recovery / additive / hyper increase step,
// keyed on how many rounds have elapsed since the last decrease.
func (rp *rpState) increase() {
	minRounds := rp.timerRounds
	if rp.byteRounds < minRounds {
		minRounds = rp.byteRounds
	}
	maxRounds := rp.timerRounds
	if rp.byteRounds > maxRounds {
		maxRounds = rp.byteRounds
	}
	switch {
	case maxRounds <= dcqcnFastRecoveryRounds:
		// Fast recovery: halve the gap to the target rate.
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPFastRecovery)
	case minRounds > dcqcnFastRecoveryRounds:
		// Hyper increase.
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPHyper)
		rp.targetGbps += dcqcnHAIRateGbps
	default:
		// Additive increase.
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPAdditive)
		rp.targetGbps += dcqcnAIRateGbps
	}
	if rp.targetGbps > rp.lineGbps {
		rp.targetGbps = rp.lineGbps
	}
	rp.currentGbps = (rp.currentGbps + rp.targetGbps) / 2
	if rp.currentGbps > rp.lineGbps {
		rp.currentGbps = rp.lineGbps
	}
	// Fully recovered with a decayed congestion estimate: release the RP
	// state (hardware keeps a bounded rate-limiter pool; for the
	// simulation this also lets the event queue drain).
	if rp.currentGbps >= rp.lineGbps*0.999 && rp.alpha < 0.05 {
		rp.nic.Sim.Coverage().Record(coverage.SiteDCQCNRP, coverage.RPRelease)
		rp.active = false
		rp.currentGbps = rp.lineGbps
		rp.stop()
	}
	rp.emitRate()
}

// stop cancels timers (QP teardown).
func (rp *rpState) stop() {
	rp.nic.Sim.Cancel(rp.alphaTimer)
	rp.nic.Sim.Cancel(rp.rateTimer)
}

// cnpBucket names one CNP rate-limiter bucket: the zero value on a
// per-port NIC, the destination address per IP, both fields per QP.
type cnpBucket struct {
	ip  netip.Addr
	qpn uint32
}

// cnpScopeKey returns the rate-limiter bucket a CNP toward (dstIP, dstQPN)
// falls into for this NIC's scope mode — the hidden behaviour matrix of
// §6.3 (CX4 Lx per destination IP, E810 per QP, CX5/CX6 Dx per port).
func (n *NIC) cnpScopeKey(dstIP netip.Addr, dstQPN uint32) cnpBucket {
	switch n.Prof.CNPScope {
	case CNPPerPort:
		return cnpBucket{}
	case CNPPerDstIP:
		return cnpBucket{ip: dstIP}
	default:
		return cnpBucket{ip: dstIP, qpn: dstQPN}
	}
}
