package rnic

import (
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/packet"
)

// udDeliver is the UD receiver. It performs no PSN checks at all: it
// completes each datagram into the next posted receive, and with none
// posted drops it on the floor (real UD QPs do the same — there is no
// RNR NAK on a datagram QP). A datagram the injector drops is simply
// never seen, a silent loss the analyzers attribute as expected.
func (qp *QP) udDeliver(v packet.View) {
	if len(qp.recvs) == 0 {
		qp.cov().Record(coverage.SiteUD, coverage.UDNoRecv)
		qp.nic.Counters.Inc(CtrUDRxDropped)
		return
	}
	qp.cov().Record(coverage.SiteUD, coverage.UDDeliver)
	// Each datagram is its own message: anchor the message start so the
	// delivered length is exactly this packet's payload.
	qp.msgStartPSN = v.PSN()
	qp.deliverRecv(v)
	qp.msn = (qp.msn + 1) & packet.PSNMask
}
