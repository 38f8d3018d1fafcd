package rnic

import (
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/packet"
)

// ucHandleRequest is the UC responder FSM. Three outcomes: in-sequence
// packets are accepted; an out-of-sequence First/Only packet re-anchors
// the stream (the gapped message is lost for good); anything else is
// silently dropped — no NAK, no duplicate re-ACK, no state change.
func (qp *QP) ucHandleRequest(v packet.View) {
	psn := v.PSN()
	op := v.Opcode()
	switch {
	case psn == qp.ePSN:
		qp.cov().Record(coverage.SiteUC, coverage.UCInOrder)
		qp.ucAccept(v)
	case op.IsFirst() || op.IsOnly():
		// Resync: a message boundary re-anchors the expected PSN. The
		// packets missing in between were a silent loss — count the
		// detection (out_of_sequence) but never a sequence-error NAK.
		qp.cov().Record(coverage.SiteUC, coverage.UCResync)
		qp.nic.Counters.Inc(CtrOutOfSequence)
		qp.nic.Counters.Inc(CtrUCRxDropped)
		qp.ePSN = psn
		qp.ucAccept(v)
	case psnLT(qp.ePSN, psn):
		// Mid-message packet past a gap: the head of its message was
		// lost, so the fragment is undeliverable. Drop silently.
		qp.cov().Record(coverage.SiteUC, coverage.UCDropGap)
		qp.nic.Counters.Inc(CtrOutOfSequence)
		qp.nic.Counters.Inc(CtrUCRxDropped)
	default:
		// Stale packet (delayed/reordered duplicate): UC never
		// re-acknowledges — silent drop.
		qp.cov().Record(coverage.SiteUC, coverage.UCDuplicate)
		qp.nic.Counters.Inc(CtrDuplicateReq)
		qp.nic.Counters.Inc(CtrUCRxDropped)
	}
}

// ucAccept delivers one in-sequence (or resynced) packet: the RC accept
// path minus every acknowledgement — MR failures and missing receives
// drop silently instead of NAKing.
func (qp *QP) ucAccept(v packet.View) {
	psn := v.PSN()
	op := v.Opcode()
	if op.IsFirst() || op.IsOnly() {
		qp.msgStartPSN = psn
		if op.IsWrite() {
			if r := v.RETH(); !qp.nic.lookupMR(r.RKey, r.VA, int(r.DMALen)) {
				// UC has no NAK to send: the write vanishes.
				qp.cov().Record(coverage.SiteUC, coverage.UCDropMR)
				qp.nic.Counters.Inc(CtrUCRxDropped)
				qp.ePSN = psnAdd(psn, 1)
				return
			}
		}
	}
	qp.ePSN = psnAdd(psn, 1)
	if op.IsLast() || op.IsOnly() {
		qp.msn = (qp.msn + 1) & packet.PSNMask
		if op.IsSend() || op.HasImm() {
			qp.ucConsumeRecv(v)
		}
	}
}

// ucConsumeRecv delivers a receive completion; with no receive posted
// the message is silently discarded (no RNR NAK on UC).
func (qp *QP) ucConsumeRecv(v packet.View) {
	if len(qp.recvs) == 0 {
		qp.cov().Record(coverage.SiteUC, coverage.UCNoRecv)
		qp.nic.Counters.Inc(CtrUCRxDropped)
		return
	}
	qp.deliverRecv(v)
}
