package rnic

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
// nothing. Packets are built lazily at transmit time (QP.frame) so
// Go-back-N rewinds regenerate fresh wire bytes and queued-but-flushed
// packets cost nothing; a packet's size is its frame's length.
//
// In a txq a data or read-response descriptor stands for a run: itself
// and the more packets that continue it, PSN by PSN. Its fields then
// describe the run's first packet.
type txPkt struct {
	kind txKind
	psn  uint32
	more uint32 // packets queued behind this one in its run
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

// continuedBy reports whether next is the packet after t's run: the
// same WQE's next PSN for data, the same read's next response for read
// responses. Every other kind takes a slot of its own.
func (t *txPkt) continuedBy(next *txPkt) bool {
	if t.kind != next.kind {
		return false
	}
	switch next.kind {
	case txData:
		return t.w == next.w && next.psn == psnAdd(t.psn, t.more+1)
	case txReadResp:
		return t.ctx == next.ctx && next.i == t.i+int(t.more)+1
	}
	return false
}

// txq is a QP's transmit queue, FIFO per packet but stored as runs: a
// 1 MiB Write queues one descriptor, not one per PSN, so a queue's
// footprint follows the number of WQEs and reads in flight, not their
// length.
type txq struct {
	runs ring[txPkt]
	n    int // packets queued across the runs
}

func (q *txq) len() int { return q.n }

func (q *txq) push(pkt txPkt) {
	q.n++
	if q.runs.len() > 0 && q.runs.back().continuedBy(&pkt) {
		q.runs.back().more++
		return
	}
	q.runs.push(pkt)
}

// pop removes and returns the oldest packet; the queue must not be
// empty. A run's next packet takes over its descriptor.
func (q *txq) pop() txPkt {
	q.n--
	head := q.runs.front()
	if head.more == 0 {
		return q.runs.pop()
	}
	pkt := *head
	pkt.more = 0
	head.more--
	head.psn = psnAdd(head.psn, 1)
	if head.kind == txReadResp {
		head.i++
	}
	return pkt
}

// reset empties the queue, keeping its backing array.
func (q *txq) reset() {
	q.runs.reset()
	q.n = 0
}
