package rnic

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Verb is an RDMA operation type.
type Verb int

const (
	VerbSend Verb = iota
	VerbWrite
	VerbRead
	VerbCompSwap
	VerbFetchAdd
)

func (v Verb) String() string {
	switch v {
	case VerbSend:
		return "send"
	case VerbWrite:
		return "write"
	case VerbRead:
		return "read"
	case VerbCompSwap:
		return "cmp-swap"
	case VerbFetchAdd:
		return "fetch-add"
	}
	return fmt.Sprintf("Verb(%d)", int(v))
}

// IsAtomic reports whether the verb is a remote atomic.
func (v Verb) IsAtomic() bool { return v == VerbCompSwap || v == VerbFetchAdd }

// ParseVerb converts a config string into a Verb.
func ParseVerb(s string) (Verb, error) {
	switch s {
	case "send", "send_recv", "sendrecv":
		return VerbSend, nil
	case "write":
		return VerbWrite, nil
	case "read":
		return VerbRead, nil
	}
	return 0, fmt.Errorf("rnic: unknown RDMA verb %q", s)
}

// CompletionStatus reports how a work request finished.
type CompletionStatus int

const (
	StatusOK CompletionStatus = iota
	StatusRetryExceeded
	StatusRemoteAccessError
	StatusRNRRetryExceeded
	StatusFlushed
)

func (s CompletionStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXC_ERR"
	case StatusRemoteAccessError:
		return "REM_ACCESS_ERR"
	case StatusRNRRetryExceeded:
		return "RNR_RETRY_EXC_ERR"
	case StatusFlushed:
		return "FLUSHED"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Completion is delivered to the posting application.
type Completion struct {
	WRID        int
	Status      CompletionStatus
	PostedAt    sim.Time
	CompletedAt sim.Time
	Bytes       int
	// AtomicOrig is the original remote value returned by atomic verbs.
	AtomicOrig uint64
	// HasImm/Imm carry immediate data on receive completions.
	HasImm bool
	Imm    uint32
}

// WorkRequest is a send-queue entry (ibv_post_send analogue).
type WorkRequest struct {
	WRID       int
	Verb       Verb
	Length     int
	RemoteAddr uint64
	RKey       uint32
	// Compare and SwapAdd parameterize atomic verbs: compare-swap
	// installs SwapAdd when the remote cell equals Compare; fetch-add
	// adds SwapAdd. Both return the original value in the completion.
	Compare uint64
	SwapAdd uint64
	// UseImm attaches Imm as immediate data: the message's final packet
	// uses the *_WITH_IMMEDIATE opcode and the value is delivered in the
	// responder's receive completion. A Write with immediate consumes a
	// receive WQE at the responder, per the IB spec.
	UseImm     bool
	Imm        uint32
	OnComplete func(Completion)
}

// RecvRequest is a receive-queue entry (ibv_post_recv analogue).
type RecvRequest struct {
	WRID       int
	OnComplete func(Completion)
}

// QPConfig carries per-connection parameters from the traffic config.
type QPConfig struct {
	MTU          int
	TimeoutExp   int        // IB timeout exponent: RTO = 4.096 µs · 2^TimeoutExp
	RetryCnt     int        // maximum retransmission retries
	TrafficClass int        // ETS queue index
	SrcIP        netip.Addr // GID to use (multi-GID emulation); zero = primary
	Transport    Transport  // transport service type; zero value is RC
}

// Endpoint identifies one side of an RC connection — the metadata the
// traffic generators exchange over TCP and share with the event injector
// (§3.2): IP (GID), QPN, and initial PSN.
type Endpoint struct {
	IP   netip.Addr
	MAC  packet.MAC
	QPN  uint32
	IPSN uint32
}

// wqe is a posted work request with its PSN reservation. done means
// the request finished; its completion is delivered once every earlier
// WQE has finished too (see complete), with status and, for an atomic,
// the original value its ACK carried.
type wqe struct {
	req      WorkRequest
	startPSN uint32
	endPSN   uint32
	npkts    int32
	done     bool
	status   uint8 // a CompletionStatus, set with done
	postedAt sim.Time
	orig     uint64
}

// readCtx records an executed read request at the responder so that
// duplicate (implied-NAK) re-reads can be re-executed from an offset.
type readCtx struct {
	startPSN uint32
	npkts    int
	length   int
}

// reread is a duplicate Read request waiting out NACKReactRead: the
// read it re-executes and the response index it resumes at. The read is
// carried, not looked up again at fire time, because rememberRead may
// have evicted it by then. off < 0 marks a free slot.
type reread struct {
	ctx readCtx
	off int
}

// QP is one side of a connection. The common state below (PSN windows,
// receive queue, transmit queue, timers) serves every transport; the
// QP switches on cfg.Transport where the service types differ — RC being
// the paper's Reliable Connection engine, UC and UD the NAK-less
// transports that treat losses as silent.
type QP struct {
	nic *NIC
	cfg QPConfig

	QPN  uint32
	IPSN uint32

	remote    Endpoint
	connected bool
	errored   bool

	udpSrcPort uint16

	// requester state
	wqes         []*wqe // every WQE ever posted, in post order
	wqeLive      int    // index of the oldest WQE not done; every one before it is
	slab         []wqe  // where PostSend takes the next WQE; see wqeSlab
	nextPSN      uint32 // next unassigned PSN
	sndUna       uint32 // oldest unacknowledged PSN (also: next expected read-response PSN)
	sendPtr      uint32 // next PSN to hand to the scheduler
	maxSent      uint32 // one past the highest PSN ever transmitted
	anySent      bool
	retries      int
	retryLimit   int
	rnrRetries   int
	rtoTimer     sim.EventRef
	readNakArmed bool // one implied NAK per read-response gap

	// responder state
	ePSN        uint32
	msn         uint32
	nakArmed    bool // one NAK per request gap
	msgStartPSN uint32
	recvs       []RecvRequest
	reads       []readCtx   // recent read executions, for duplicate re-reads
	rereads     []reread    // re-reads waiting out NACKReactRead, by slot
	atomicAcks  ring[txPkt] // atomic ACKs waiting out AckGenDelay, oldest first
	sinceAck    int         // in-order packets since the last coalesced ACK
	// atomic replay cache (exactly-once semantics for duplicates)
	atomicReplay map[uint32]uint64
	atomicOrder  []uint32

	// transmit path (owned by the ETS scheduler)
	txq         txq
	paceReadyAt sim.Time
	rp          *rpState // &rpMem with dcqcn-rp-enable, else nil
	rpMem       rpState

	// scratch is the per-connection packet used to build outgoing wire
	// bytes. Every build resets it, encodes immediately, and never
	// retains the pointer, so one struct serves the whole QP lifetime.
	scratch packet.Packet

	// track is this QP's telemetry timeline row, named only when a
	// telemetry hub is attached at CreateQP; lastTxAt feeds the per-QP
	// inter-packet-gap histogram (both only consulted with a hub).
	track    string
	lastTxAt sim.Time
	txSeen   bool
}

// hub returns the telemetry bus (nil-receiver-safe no-op when detached).
func (qp *QP) hub() *telemetry.Hub { return qp.nic.Sim.Hub() }

// cov returns the behavioral coverage recorder (nil-receiver-safe no-op
// when detached).
func (qp *QP) cov() *coverage.Map { return qp.nic.Sim.Coverage() }

// CreateQP allocates a QP with runtime-random QPN and initial PSN — the
// property that forces Lumina's control-plane metadata exchange (§3.3).
func (n *NIC) CreateQP(cfg QPConfig) *QP {
	if cfg.MTU <= 0 {
		cfg.MTU = 1024
	}
	if cfg.RetryCnt < 0 {
		cfg.RetryCnt = 7
	}
	if !cfg.SrcIP.IsValid() {
		cfg.SrcIP = n.ips[0]
	}
	var qpn uint32
	for {
		qpn = n.rng.Uint32() & packet.PSNMask
		if qpn != 0 {
			if _, taken := n.qps[qpn]; !taken {
				break
			}
		}
	}
	i, qp := len(n.res.qps), take(&n.res.qps)
	*qp = QP{
		nic:        n,
		cfg:        cfg,
		QPN:        qpn,
		IPSN:       n.rng.Uint32() & packet.PSNMask,
		udpSrcPort: uint16(49152 + n.rng.Intn(16384)),
	}
	if k := n.res.wqesPerQP; k > 0 && len(n.res.qps) > i {
		// The QP's windows of the reserved slabs, clipped so that
		// outgrowing one allocates rather than runs into the next QP's.
		qp.slab = n.res.wqes[i*k : i*k : (i+1)*k]
		qp.wqes = n.res.wqePtrs[i*k : i*k : (i+1)*k]
		qp.txq.runs.buf = n.res.runs[i*txRunsPerQP : (i+1)*txRunsPerQP : (i+1)*txRunsPerQP]
	}
	qp.nextPSN = qp.IPSN
	qp.sndUna = qp.IPSN
	qp.sendPtr = qp.IPSN
	qp.maxSent = qp.IPSN
	qp.retryLimit = cfg.RetryCnt
	if n.Set.AdaptiveRetrans && len(n.Prof.AdaptiveTimeouts) > 0 {
		qp.retryLimit = adaptiveRetryMin + n.rng.Intn(adaptiveRetryMax-adaptiveRetryMin+1)
	}
	if n.Set.DCQCNRPEnable {
		qp.rpMem = newRPState(qp)
		qp.rp = &qp.rpMem
	}
	if n.qps == nil {
		n.qps = make(map[uint32]*QP, cap(n.res.qps))
	}
	n.qps[qpn] = qp
	n.sched.register(qp, cap(n.res.qps)-len(n.res.qps))
	if qp.hub().Active() {
		qp.track = qpTrack(n.Name, qpn)
	}
	qp.hub().EmitArgs(telemetry.KindQPState, qp.track, "RESET",
		telemetry.I("qpn", int64(qpn)), telemetry.I("ipsn", int64(qp.IPSN)))
	qp.cov().Record(coverage.SiteQPState, coverage.QPStateReset)
	return qp
}

// qpTrack names a QP's telemetry track, fmt's "%s/qp-0x%06x" of the NIC
// name and a 24-bit QPN without fmt's boxing. With bit 24 set the QPN's
// hex form has seven digits, and the last six are the zero-padded QPN.
func qpTrack(nic string, qpn uint32) string {
	var hex [7]byte
	return nic + "/qp-0x" + string(strconv.AppendUint(hex[:0], uint64(qpn)|1<<24, 16)[1:])
}

// Local returns the endpoint descriptor the peer (and the event injector)
// needs.
func (qp *QP) Local() Endpoint {
	return Endpoint{IP: qp.srcIP(), MAC: qp.nic.MAC, QPN: qp.QPN, IPSN: qp.IPSN}
}

// Connect transitions the QP to RTS toward the remote endpoint. The
// responder's expected PSN starts at the remote's initial PSN.
func (qp *QP) Connect(remote Endpoint) {
	qp.remote = remote
	qp.ePSN = remote.IPSN
	qp.msgStartPSN = remote.IPSN
	qp.nakArmed = true
	qp.readNakArmed = true
	qp.connected = true
	qp.hub().EmitArgs(telemetry.KindQPState, qp.track, "RTS",
		telemetry.I("remote_qpn", int64(remote.QPN)))
	qp.cov().Record(coverage.SiteQPState, coverage.QPStateRTS)
}

// Errored reports whether the QP entered the error state (retries
// exceeded or fatal NAK).
func (qp *QP) Errored() bool { return qp.errored }

// Transport returns the QP's transport service type.
func (qp *QP) Transport() Transport { return qp.cfg.Transport }

// PostRecv queues a receive WQE for incoming Sends.
func (qp *QP) PostRecv(rr RecvRequest) {
	qp.recvs = append(qp.recvs, rr)
}

// PostSend queues a work request; transmission starts immediately
// (subject to scheduling and pacing).
func (qp *QP) PostSend(req WorkRequest) error {
	if !qp.connected {
		return fmt.Errorf("rnic: QP %#x not connected", qp.QPN)
	}
	if qp.errored {
		return fmt.Errorf("rnic: QP %#x in error state", qp.QPN)
	}
	if !qp.cfg.Transport.Supports(req.Verb) {
		return fmt.Errorf("rnic: verb %s not supported on %s transport",
			req.Verb, qp.cfg.Transport)
	}
	if req.Verb.IsAtomic() {
		req.Length = 8 // atomics operate on one 64-bit cell
	}
	if req.Length <= 0 {
		return fmt.Errorf("rnic: work request needs positive length")
	}
	npkts := (req.Length + qp.cfg.MTU - 1) / qp.cfg.MTU
	if req.Verb.IsAtomic() {
		npkts = 1
	}
	if npkts > 1 && qp.cfg.Transport.SinglePacket() {
		return fmt.Errorf("rnic: UD datagram of %d bytes exceeds the %d-byte MTU",
			req.Length, qp.cfg.MTU)
	}
	if len(qp.slab) == cap(qp.slab) {
		// The first slab also sizes qp.wqes for one slab's worth.
		qp.slab = make([]wqe, 0, wqeSlab)
		if qp.wqes == nil {
			qp.wqes = make([]*wqe, 0, wqeSlab)
		}
	}
	qp.slab = append(qp.slab, wqe{
		req:      req,
		startPSN: qp.nextPSN,
		endPSN:   psnAdd(qp.nextPSN, uint32(npkts-1)),
		npkts:    int32(npkts),
		postedAt: qp.nic.Sim.Now(),
	})
	qp.wqes = append(qp.wqes, &qp.slab[len(qp.slab)-1])
	qp.nextPSN = psnAdd(qp.nextPSN, uint32(npkts))
	qp.pump()
	return nil
}

// pump enqueues every not-yet-scheduled packet between sendPtr and
// nextPSN into the NIC scheduler.
func (qp *QP) pump() {
	for psnLT(qp.sendPtr, qp.nextPSN) {
		psn := qp.sendPtr
		w := qp.wqeFor(psn)
		if w == nil {
			// invariant: qp.wqes is append-only, PostSend appends a WQE covering exactly the PSNs it adds to nextPSN, and sendPtr is IPSN, one past a posted WQE, sndUna or a NAK PSN onSequenceNak checked against [sndUna, nextPSN).
			panic(fmt.Sprintf("rnic: no WQE covers PSN %d", psn))
		}
		// sendPtr advances before the enqueue: on completion-at-transmit
		// transports the scheduler may serialize the packet synchronously,
		// complete the WQE, and re-enter pump from the application's
		// completion callback — which must see this PSN as already handed
		// off. (enqueue never reads sendPtr, so RC is order-indifferent.)
		if w.req.Verb.IsAtomic() {
			qp.sendPtr = psnAdd(psn, 1)
			qp.enqueue(txPkt{kind: txAtomicReq, w: w, psn: psn})
		} else if w.req.Verb == VerbRead {
			// One request packet asks for all remaining response PSNs.
			qp.sendPtr = psnAdd(w.endPSN, 1)
			qp.enqueue(txPkt{kind: txReadReq, w: w, psn: psn})
		} else {
			qp.sendPtr = psnAdd(psn, 1)
			qp.enqueue(txPkt{kind: txData, w: w, psn: psn})
		}
	}
	qp.armTimer()
}

func (qp *QP) enqueue(pkt txPkt) {
	qp.nic.sched.enqueue(qp, pkt)
}

// frame builds a queued descriptor's packet at transmit time. Building
// lazily here (instead of capturing a closure at enqueue time) keeps
// Go-back-N semantics — flushed packets cost nothing and rewinds
// regenerate fresh bytes — without a per-packet closure allocation. It
// changes no QP state; what sending the packet changes is sent's.
func (qp *QP) frame(pkt txPkt) *packet.Packet {
	switch pkt.kind {
	case txData:
		return qp.makeDataPacket(pkt.w, pkt.psn)
	case txReadReq:
		return qp.makeReadRequest(pkt.w, pkt.psn)
	case txAtomicReq:
		return qp.makeAtomicRequest(pkt.w, pkt.psn)
	case txReadResp:
		return qp.makeReadResponse(pkt.ctx, pkt.i, pkt.psn)
	case txAck, txAtomicAck:
		return qp.makeAck(pkt)
	}
	// invariant: txPkt descriptors are built only inside this package, each with one of the six txKind constants switched on above.
	panic(fmt.Sprintf("rnic: unknown txPkt kind %d", pkt.kind))
}

// sent applies what sending a requester packet changes: the
// retransmission count, and on UC and UD, which complete at transmit,
// the send window and the WQE's completion. RC completes at
// acknowledgement.
func (qp *QP) sent(pkt txPkt) {
	switch pkt.kind {
	case txData:
		qp.noteTransmit(pkt.psn)
		if !qp.cfg.Transport.Reliable() {
			qp.unreliableOnTransmit(pkt.w, pkt.psn)
		}
	case txReadReq, txAtomicReq:
		qp.noteTransmit(pkt.psn)
	}
}

// rewind restarts transmission from psn (Go-back-N) and flushes packets
// already queued but not yet on the wire.
func (qp *QP) rewind(psn uint32) {
	qp.hub().EmitArgs(telemetry.KindRetransGBN, qp.track, "rewind",
		telemetry.I("psn", int64(psn)))
	qp.nic.sched.flush(qp)
	qp.sendPtr = psn
	qp.pump()
}

// paceRate is the DCQCN-paced rate in Gbps.
func (qp *QP) paceRate() float64 {
	if qp.rp == nil {
		return qp.nic.Prof.LinkGbps
	}
	return qp.rp.rate()
}

func (qp *QP) srcIP() netip.Addr { return qp.cfg.SrcIP }

// --- packet construction ---

// baseHeader resets the QP's scratch packet to a fresh header for op/psn.
// The returned pointer aliases qp.scratch: callers fill in the extended
// headers and serialize before the next build.
func (qp *QP) baseHeader(op packet.Opcode, psn uint32) *packet.Packet {
	p := &qp.scratch
	*p = packet.Packet{
		Eth: packet.Ethernet{Dst: qp.remote.MAC, Src: qp.nic.MAC, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			DSCP: 26, ECN: packet.ECNECT0, TTL: 64, Protocol: packet.ProtoUDP,
			Src: qp.srcIP(), Dst: qp.remote.IP,
		},
		UDP: packet.UDP{SrcPort: qp.udpSrcPort, DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{
			Opcode: op, MigReq: qp.nic.Prof.MigReqInit, PKey: 0xFFFF,
			DestQP: qp.remote.QPN, PSN: psn,
		},
	}
	return p
}

// encode writes p's wire bytes into a frame from the simulator's pool.
// The caller owns the frame until NIC.transmit sends it on.
func (qp *QP) encode(p *packet.Packet) []byte {
	return p.AppendWire(qp.nic.Sim.GetFrame(p.WireLen())[:0])
}

// segLen returns the payload length of packet index i of a message of
// total length, given the MTU.
func segLen(total, mtu, i, npkts int) int {
	if i < npkts-1 {
		return mtu
	}
	rem := total - (npkts-1)*mtu
	return rem
}

func dataOpcode(v Verb, i, npkts int, imm bool) packet.Opcode {
	only := npkts == 1
	first := i == 0
	last := i == npkts-1
	switch v {
	case VerbSend:
		switch {
		case only:
			if imm {
				return packet.OpSendOnlyImm
			}
			return packet.OpSendOnly
		case first:
			return packet.OpSendFirst
		case last:
			if imm {
				return packet.OpSendLastImm
			}
			return packet.OpSendLast
		default:
			return packet.OpSendMiddle
		}
	case VerbWrite:
		switch {
		case only:
			if imm {
				return packet.OpWriteOnlyImm
			}
			return packet.OpWriteOnly
		case first:
			return packet.OpWriteFirst
		case last:
			if imm {
				return packet.OpWriteLastImm
			}
			return packet.OpWriteLast
		default:
			return packet.OpWriteMiddle
		}
	}
	// invariant: only txData descriptors reach here, and pump builds those only for verbs that are neither Read nor atomic; scenario verbs come from config.Validate's rdma-verb list through ParseVerb.
	panic("rnic: dataOpcode on read verb")
}

func respOpcode(i, npkts int) packet.Opcode {
	switch {
	case npkts == 1:
		return packet.OpReadResponseOnly
	case i == 0:
		return packet.OpReadResponseFirst
	case i == npkts-1:
		return packet.OpReadResponseLast
	default:
		return packet.OpReadResponseMiddle
	}
}

func (qp *QP) makeDataPacket(w *wqe, psn uint32) *packet.Packet {
	i := int(psnSub(psn, w.startPSN))
	op := dataOpcode(w.req.Verb, i, int(w.npkts), w.req.UseImm)
	p := qp.baseHeader(op, psn)
	if op.HasRETH() {
		p.RETH = packet.RETH{VA: w.req.RemoteAddr, RKey: w.req.RKey, DMALen: uint32(w.req.Length)}
	}
	if op.HasImm() {
		p.Imm = w.req.Imm
	}
	n := segLen(w.req.Length, qp.cfg.MTU, i, int(w.npkts))
	p.Payload = zeroPayload(n)
	p.BTH.PadCount = uint8((4 - n%4) % 4)
	if op.IsLast() || op.IsOnly() {
		p.BTH.AckReq = true
	}
	return p
}

// makeReadRequest builds the READ_REQUEST for a read WQE starting at
// psn. When psn > startPSN this is an implied-NAK re-read: the VA and
// length are advanced to the first missing byte ("read from memory
// offset N", §6.1).
func (qp *QP) makeReadRequest(w *wqe, psn uint32) *packet.Packet {
	off := int(psnSub(psn, w.startPSN)) * qp.cfg.MTU
	p := qp.baseHeader(packet.OpReadRequest, psn)
	p.RETH = packet.RETH{
		VA:     w.req.RemoteAddr + uint64(off),
		RKey:   w.req.RKey,
		DMALen: uint32(w.req.Length - off),
	}
	p.BTH.AckReq = true
	return p
}

func (qp *QP) noteTransmit(psn uint32) {
	if qp.anySent && psnLT(psn, qp.maxSent) {
		qp.nic.Counters.Inc(CtrRetransmits)
	}
	next := psnAdd(psn, 1)
	if !qp.anySent || psnLT(qp.maxSent, next) {
		qp.maxSent = next
	}
	qp.anySent = true
}

// sharedZeros backs zeroPayload for every common MTU. It is read-only
// after initialization: serialization only copies from the payload slice,
// so aliasing it across QPs (and across per-worker simulators) is safe.
var sharedZeros [4096]byte

// zeroPayload returns an n-byte zero slice; contents are irrelevant to
// every analyzer (the dumper trims payloads anyway) and zero payloads
// keep iCRC computation honest without burning memory on patterns.
// Payloads up to 4 KiB (the largest IB MTU) alias a shared static array
// instead of allocating per packet.
func zeroPayload(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n <= len(sharedZeros) {
		return sharedZeros[:n:n]
	}
	return make([]byte, n)
}

// --- receive-side processing ---

// handlePacket processes a transport packet addressed to this QP. UC
// and UD ignore every opcode they do not carry.
func (qp *QP) handlePacket(v packet.View) {
	if !qp.connected || qp.errored {
		return
	}
	op := v.Opcode()
	switch qp.cfg.Transport {
	case TransportRC:
		qp.rcDispatch(v)
	case TransportUC:
		if op.IsSend() || op.IsWrite() {
			qp.ucHandleRequest(v)
		}
	case TransportUD:
		if op.IsSend() && op.IsOnly() {
			qp.udDeliver(v)
		}
	}
}

// rcDispatch routes one packet to the RC engine's op-specific handlers.
func (qp *QP) rcDispatch(v packet.View) {
	op := v.Opcode()
	switch {
	case op == packet.OpAtomicAcknowledge:
		qp.handleAtomicAck(v)
	case op.IsAck():
		qp.handleAck(v)
	case op.IsReadResponse():
		qp.handleReadResponse(v)
	case op.IsSend() || op.IsWrite():
		qp.handleRequest(v)
	case op.IsReadRequest():
		qp.handleReadRequest(v)
	case op.IsAtomic():
		qp.handleAtomicRequest(v)
	}
}

// --- requester: ACK / NAK / read responses ---

func (qp *QP) handleAck(v packet.View) {
	a := v.AETH()
	switch {
	case a.IsAck():
		qp.cov().Record(coverage.SiteAck, coverage.AckOK)
		qp.advanceUna(psnAdd(v.PSN(), 1))
	case a.IsNak():
		code := a.Syndrome & 0x1F
		switch code {
		case 0: // PSN sequence error → Go-back-N fast retransmit
			qp.cov().Record(coverage.SiteAck, coverage.AckNakSeq)
			qp.onSequenceNak(v.PSN())
		default: // fatal NAKs (remote access, invalid request, ...)
			qp.cov().Record(coverage.SiteAck, coverage.AckNakFatal)
			qp.fatal(StatusRemoteAccessError)
		}
	case a.IsRNR():
		// Receiver not ready: retry after the encoded delay, up to the
		// RNR retry budget. Simplified fixed RNR timer; the paper's
		// workloads pre-post receives.
		qp.rnrRetries++
		if qp.rnrRetries > rnrRetryLimit {
			qp.cov().Record(coverage.SiteAck, coverage.AckRNRExhausted)
			qp.nic.Counters.Inc(CtrRnrNakRetry)
			qp.fatal(StatusRNRRetryExceeded)
			return
		}
		qp.cov().Record(coverage.SiteAck, coverage.AckRNR)
		qp.nic.Sim.AfterEvent(100*sim.Microsecond, qp, qpRNRRetry, 0, nil)
	}
}

// onSequenceNak reacts to a Go-back-N NAK after the profile's NACK
// reaction latency (Figure 9's measured path).
func (qp *QP) onSequenceNak(nakPSN uint32) {
	if psnLT(nakPSN, qp.sndUna) || !psnLT(nakPSN, qp.nextPSN) {
		return // stale NAK
	}
	w := qp.wqeFor(nakPSN)
	idx := 0
	if w != nil {
		idx = int(psnSub(nakPSN, w.startPSN))
	}
	d := qp.nic.Prof.NACKReactWrite.At(idx, qp.nic.rng)
	if h := qp.hub(); h.Active() {
		h.EmitSpan(telemetry.KindRetransGBN, qp.track, "nack_react", int64(d),
			telemetry.I("psn", int64(nakPSN)))
		qp.nic.nackReact.Record(int64(d))
	}
	qp.nic.Sim.AfterEvent(d, qp, qpNakReact, uint64(nakPSN), nil)
}

// handleReadResponse consumes read-response data at the requester — the
// loss-detection side of Read traffic (Figure 8b): gaps trigger an
// implied NAK and a re-read after the (potentially very slow) read
// slow-path latency.
func (qp *QP) handleReadResponse(v packet.View) {
	psn := v.PSN()
	switch {
	case psn == qp.sndUna:
		qp.cov().Record(coverage.SiteReadResp, coverage.ReadRespInOrder)
		w := qp.wqeFor(psn)
		qp.advanceUna(psnAdd(psn, 1))
		qp.readNakArmed = true
		if w != nil && psn == w.endPSN {
			qp.complete(w, StatusOK)
		}
	case psnLT(qp.sndUna, psn) && psnLT(psn, qp.nextPSN):
		// Gap: response(s) lost. Out-of-order responses are discarded
		// (Go-back-N receiver) and at most one implied NAK is
		// outstanding per gap.
		if !qp.readNakArmed {
			return
		}
		qp.readNakArmed = false
		qp.cov().Record(coverage.SiteReadResp, coverage.ReadRespImpliedNak)
		if !qp.nic.Prof.BugImpliedNakSeqStuck {
			qp.nic.Counters.Inc(CtrImpliedNakSeq)
		}
		w := qp.wqeFor(qp.sndUna)
		idx := 0
		if w != nil {
			idx = int(psnSub(qp.sndUna, w.startPSN))
		}
		d := qp.nic.Prof.NACKGenRead.At(idx, qp.nic.rng)
		if h := qp.hub(); h.Active() {
			h.EmitSpan(telemetry.KindRetransGBN, qp.track, "implied_nak", int64(d),
				telemetry.I("from_psn", int64(qp.sndUna)))
			qp.nic.readGen.Record(int64(d))
		}
		// The read slow path occupies a shared hardware context for its
		// duration — the resource whose exhaustion stalls CX4 Lx
		// (§6.2.2).
		qp.nic.slowPathEnter(d)
		qp.nic.Sim.AfterEvent(d, qp, qpImpliedNak, uint64(qp.sndUna), nil)
	default:
		// Duplicate response; ignore.
		qp.cov().Record(coverage.SiteReadResp, coverage.ReadRespDuplicate)
	}
}

// advanceUna moves the acknowledgement horizon, completing covered
// non-read WQEs and resetting the retry budget on progress.
func (qp *QP) advanceUna(to uint32) {
	if !qp.advanceUnaNoTimerReset(to) {
		return
	}
	qp.retries = 0
	qp.rnrRetries = 0
	qp.armTimer()
}

func (qp *QP) advanceUnaNoTimerReset(to uint32) bool {
	// Atomic responses cannot be coalesced: a later acknowledgement must
	// not move the window past an atomic whose own response (carrying
	// the original value) has not arrived — otherwise a lost atomic ack
	// would orphan the operation instead of triggering the timeout that
	// replays it from the responder's cache.
	for _, w := range qp.wqes[qp.wqeLive:] {
		if w.done || !w.req.Verb.IsAtomic() {
			continue
		}
		if psnLT(w.startPSN, to) {
			to = w.startPSN
			break
		}
	}
	if !psnLT(qp.sndUna, to) {
		return false
	}
	qp.sndUna = to
	for _, w := range qp.wqes[qp.wqeLive:] {
		if w.done || w.req.Verb == VerbRead || w.req.Verb.IsAtomic() {
			continue
		}
		if psnLT(w.endPSN, to) {
			qp.complete(w, StatusOK)
		}
	}
	return true
}

// complete finishes w with status st, then delivers the completions
// of the finished prefix of the send queue in posting order. An RC
// atomic's ACK can finish it while an earlier WQE is outstanding; its
// completion waits in w until that one finishes, as the IB spec orders
// a send queue's completions. done never reverts, so the loops that
// skip done WQEs may start at wqeLive.
func (qp *QP) complete(w *wqe, st CompletionStatus) {
	if w.done {
		return
	}
	w.done, w.status = true, uint8(st)
	// wqeLive moves before each delivery: a completion callback may post
	// work that completes, re-entering here, and must see w delivered.
	for qp.wqeLive < len(qp.wqes) && qp.wqes[qp.wqeLive].done {
		next := qp.wqes[qp.wqeLive]
		qp.wqeLive++
		qp.deliver(next)
	}
}

// deliver hands a finished WQE's completion to the application.
func (qp *QP) deliver(w *wqe) {
	st := CompletionStatus(w.status)
	// The PSN range lets offline lineage reconstruction join a
	// retransmitted packet to the message completion it unblocked.
	qp.hub().EmitArgs(telemetry.KindTrafficMsg, qp.track, "wqe_complete",
		telemetry.I("wr_id", int64(w.req.WRID)),
		telemetry.I("qpn", int64(qp.QPN)),
		telemetry.I("start_psn", int64(w.startPSN)),
		telemetry.I("end_psn", int64(w.endPSN)),
		telemetry.S("status", st.String()))
	if w.req.OnComplete != nil {
		w.req.OnComplete(Completion{
			WRID:        w.req.WRID,
			Status:      st,
			PostedAt:    w.postedAt,
			CompletedAt: qp.nic.Sim.Now(),
			Bytes:       w.req.Length,
			AtomicOrig:  w.orig,
		})
	}
}

// wqeFor returns the WQE whose PSN range holds psn, or nil. qp.wqes is
// append-only and PostSend reserves each WQE's PSNs right after the
// previous one's, so the WQEs' offsets from the first one's start ascend
// up to nextPSN's, and a binary search over them finds psn's. The PSNs a
// QP posts span less than 2^23 (config bounds a connection to 2^22
// packets), so no offset wraps.
func (qp *QP) wqeFor(psn uint32) *wqe {
	if len(qp.wqes) == 0 {
		return nil
	}
	base := qp.wqes[0].startPSN
	off := psnSub(psn, base)
	if off >= psnSub(qp.nextPSN, base) {
		return nil
	}
	i := sort.Search(len(qp.wqes), func(i int) bool { return psnSub(qp.wqes[i].startPSN, base) > off })
	return qp.wqes[i-1]
}

// --- responder: Send/Write requests ---

func (qp *QP) handleRequest(v packet.View) {
	psn := v.PSN()
	op := v.Opcode()
	switch {
	case psn == qp.ePSN:
		if op.IsFirst() || op.IsOnly() {
			qp.msgStartPSN = psn
			if op.IsWrite() {
				if r := v.RETH(); !qp.nic.lookupMR(r.RKey, r.VA, int(r.DMALen)) {
					qp.cov().Record(coverage.SiteRecv, coverage.RecvMRFail)
					qp.sendNakNow(packet.NakRemoteAccess)
					return
				}
			}
		}
		if (op.IsSend() || op.HasImm()) && (op.IsLast() || op.IsOnly()) && len(qp.recvs) == 0 {
			// Receiver not ready: reject without advancing state — the
			// retransmission must be re-deliverable once a receive is
			// posted.
			qp.cov().Record(coverage.SiteRecv, coverage.RecvRNRReject)
			qp.sendAckPacket(psn, packet.SyndromeRNRNak|10)
			return
		}
		qp.cov().Record(coverage.SiteRecv, coverage.RecvInOrder)
		qp.ePSN = psnAdd(psn, 1)
		qp.nakArmed = true
		if op.IsLast() || op.IsOnly() {
			qp.msn = (qp.msn + 1) & packet.PSNMask
			// Sends always consume a receive; Writes only when they carry
			// immediate data (IB spec). The RNR check above made sure one
			// is posted.
			if op.IsSend() || op.HasImm() {
				qp.deliverRecv(v)
			}
		}
		// ACK coalescing: acknowledge on explicit request and every
		// ackCoalesce in-order packets, so the requester's send window
		// advances even when a message tail is lost.
		qp.sinceAck++
		if v.AckReq() || qp.sinceAck >= qp.ackCoalesce() {
			qp.sinceAck = 0
			qp.scheduleAck(psn)
		}
	case psnLT(qp.ePSN, psn) && psnLT(psn, psnAdd(qp.ePSN, 1<<22)):
		// Sequence gap, at the NACK-generation latency of the missing
		// PSN's position in its message (Figure 8a).
		qp.cov().Record(coverage.SiteRecv, coverage.RecvGapNak)
		d, armed := qp.seqGap(int(psnSub(qp.ePSN, qp.msgStartPSN)))
		if h := qp.hub(); armed && h.Active() {
			h.EmitSpan(telemetry.KindRetransGBN, qp.track, "nack_gen", int64(d),
				telemetry.I("missing_psn", int64(qp.ePSN)), telemetry.I("got_psn", int64(psn)))
			qp.nic.nackGen.Record(int64(d))
		}
	default:
		// Duplicate request: re-acknowledge so a lost ACK cannot stall
		// the requester.
		qp.cov().Record(coverage.SiteRecv, coverage.RecvDuplicate)
		qp.nic.Counters.Inc(CtrDuplicateReq)
		if v.AckReq() || op.IsLast() || op.IsOnly() {
			qp.scheduleAck(psnSub(qp.ePSN, 1))
		}
	}
}

// deliverRecv pops the head receive WQE and completes it for v — the
// delivery path every transport shares once its own not-ready policy
// (RC: RNR NAK; UC/UD: silent drop) has passed.
func (qp *QP) deliverRecv(v packet.View) {
	rr := qp.recvs[0]
	qp.recvs = qp.recvs[1:]
	msgLen := int(psnSub(v.PSN(), qp.msgStartPSN))*qp.cfg.MTU + v.PayloadLen()
	if v.Opcode().IsWrite() {
		// Write-with-immediate: the receive completes with the immediate
		// only; payload bytes went to remote memory, not the recv buffer.
		msgLen = 0
	}
	c := Completion{
		WRID:        rr.WRID,
		Status:      StatusOK,
		CompletedAt: qp.nic.Sim.Now(),
		Bytes:       msgLen,
	}
	if v.Opcode().HasImm() {
		c.HasImm = true
		c.Imm = v.Imm()
	}
	if rr.OnComplete != nil {
		rr.OnComplete(c)
	}
}

func (qp *QP) scheduleAck(psn uint32) {
	qp.nic.Sim.AfterEvent(qp.nic.Prof.AckGenDelay, qp, qpSendAck, uint64(psn), nil)
}

// seqGap handles a request packet that arrived past ePSN, for every RC
// request handler: it counts the out-of-sequence detection and, once
// per gap (IB forbids repeating the same NAK), schedules the
// PSN_SEQ_ERR NAK for the missing PSN after the NACK-generation latency
// at index idx of the Write curve. It reports the delay and whether it
// scheduled the NAK.
func (qp *QP) seqGap(idx int) (sim.Duration, bool) {
	qp.nic.Counters.Inc(CtrOutOfSequence)
	if !qp.nakArmed {
		return 0, false
	}
	qp.nakArmed = false
	d := qp.nic.Prof.NACKGenWrite.At(idx, qp.nic.rng)
	qp.nic.Sim.AfterEvent(d, qp, qpSeqNak, uint64(qp.ePSN), nil)
	return d, true
}

// QP event ops.
const (
	qpSendAck    = iota // the ACK for PSN arg finished its generation delay
	qpTimeout           // the retransmission timer expired
	qpSendCNP           // the CNP in data finished its emission delay
	qpSeqNak            // the gap NAK for missing PSN arg finished its generation delay
	qpRNRRetry          // the RNR retry delay elapsed
	qpNakReact          // the NAK for PSN arg finished its reaction delay
	qpImpliedNak        // the implied NAK for read responses from PSN arg finished its generation delay
	qpReread            // the re-read in rereads[arg] finished its reaction delay
	qpAtomicAck         // the oldest of atomicAcks finished its generation delay
)

// HandleEvent runs the QP's events.
func (qp *QP) HandleEvent(op int, arg uint64, data []byte) {
	switch op {
	case qpSendAck:
		if !qp.errored {
			qp.sendAckPacket(uint32(arg), packet.SyndromeACK|31)
		}
	case qpSeqNak:
		// Moot once the missing PSN arrived and closed the gap.
		if missing := uint32(arg); !qp.errored && qp.ePSN == missing {
			qp.nic.Counters.Inc(CtrPacketSeqErr)
			qp.sendAckPacket(missing, packet.NakPSNSeqError)
		}
	case qpTimeout:
		qp.onTimeout()
	case qpSendCNP:
		qp.nic.transmit(data, qp)
	case qpRNRRetry:
		if !qp.errored {
			qp.cov().Record(coverage.SiteRewind, coverage.RewindRNR)
			qp.rewind(qp.sndUna)
		}
	case qpNakReact:
		if psn := uint32(arg); !qp.errored {
			// Everything before the NAK PSN is implicitly acknowledged.
			qp.advanceUnaNoTimerReset(psn)
			qp.cov().Record(coverage.SiteRewind, coverage.RewindNak)
			qp.rewind(psn)
		}
	case qpImpliedNak:
		if from := uint32(arg); !qp.errored && psnLT(qp.sndUna, qp.nextPSN) && qp.sndUna == from {
			qp.cov().Record(coverage.SiteRewind, coverage.RewindImpliedNak)
			qp.rewind(from)
		}
	case qpReread:
		r := qp.rereads[arg]
		qp.rereads[arg].off = -1
		if !qp.errored {
			qp.enqueueReadResponses(r.ctx, r.off)
		}
	case qpAtomicAck:
		if ack := qp.atomicAcks.pop(); !qp.errored {
			qp.sendControl(ack)
		}
	}
}

func (qp *QP) sendNakNow(syndrome uint8) {
	qp.sendAckPacket(qp.ePSN, syndrome)
}

// sendAckPacket emits an ACK/NAK. The MSN is snapshotted now: an ACK's
// content is fixed at generation time even when it queues behind read
// responses.
func (qp *QP) sendAckPacket(psn uint32, syndrome uint8) {
	qp.sendControl(txPkt{kind: txAck, psn: psn, syndrome: syndrome, msn: qp.msn})
}

// sendControl emits an acknowledgement of either kind. Acknowledgements
// normally bypass the data scheduler (they are generated by the
// transport engine, not WQEs), but when read responses are queued for
// this QP the ACK must stay ordered behind them — IB responders emit
// responses and acknowledgements in PSN order, and an ACK overtaking a
// response range would make the requester discard the whole range as
// duplicates.
func (qp *QP) sendControl(ack txPkt) {
	if qp.txq.len() > 0 {
		qp.enqueue(ack)
		return
	}
	qp.nic.transmit(qp.encode(qp.makeAck(ack)), qp)
}

// makeAck builds an acknowledgement of either kind from its snapshot;
// an atomic ACK also carries the original remote value.
func (qp *QP) makeAck(ack txPkt) *packet.Packet {
	op := packet.OpAcknowledge
	if ack.kind == txAtomicAck {
		op = packet.OpAtomicAcknowledge
	}
	p := qp.baseHeader(op, ack.psn)
	p.AETH = packet.AETH{Syndrome: ack.syndrome, MSN: ack.msn}
	p.AtomicAck = ack.orig
	return p
}

// --- responder: Read requests ---

func (qp *QP) handleReadRequest(v packet.View) {
	psn := v.PSN()
	reth := v.RETH()
	length := int(reth.DMALen)
	npkts := (length + qp.cfg.MTU - 1) / qp.cfg.MTU
	if npkts == 0 {
		npkts = 1
	}
	switch {
	case psn == qp.ePSN:
		if !qp.nic.lookupMR(reth.RKey, reth.VA, length) {
			qp.cov().Record(coverage.SiteRecv, coverage.RecvMRFail)
			qp.sendNakNow(packet.NakRemoteAccess)
			return
		}
		qp.cov().Record(coverage.SiteReadReq, coverage.ReadReqNew)
		ctx := readCtx{startPSN: psn, npkts: npkts, length: length}
		qp.rememberRead(ctx)
		// A read request reserves one PSN per response packet.
		qp.ePSN = psnAdd(psn, uint32(npkts))
		qp.nakArmed = true
		qp.msn = (qp.msn + 1) & packet.PSNMask
		qp.enqueueReadResponses(ctx, 0)
	case psnLT(psn, qp.ePSN):
		// Duplicate / implied-NAK re-read: re-execute from the requested
		// offset after the NACK-reaction latency of the read path
		// (Figure 9b).
		qp.nic.Counters.Inc(CtrDuplicateReq)
		ctx, ok := qp.findRead(psn)
		if !ok {
			// Range forgotten (very old duplicate): treat as new if it
			// validates, else NAK invalid request.
			qp.cov().Record(coverage.SiteReadReq, coverage.ReadReqForgotten)
			qp.sendNakNow(packet.NakInvalidReq)
			return
		}
		qp.cov().Record(coverage.SiteReadReq, coverage.ReadReqReread)
		off := int(psnSub(psn, ctx.startPSN))
		d := qp.nic.Prof.NACKReactRead.At(off, qp.nic.rng)
		// The delay varies with the offset and with jitter, so re-reads
		// can fire out of post order: each event names its own slot.
		slot := slices.IndexFunc(qp.rereads, func(r reread) bool { return r.off < 0 })
		if slot < 0 {
			slot, qp.rereads = len(qp.rereads), append(qp.rereads, reread{})
		}
		qp.rereads[slot] = reread{ctx, off}
		qp.nic.Sim.AfterEvent(d, qp, qpReread, uint64(slot), nil)
	default:
		// Future read request (requests lost before it): NAK the gap.
		qp.cov().Record(coverage.SiteReadReq, coverage.ReadReqGap)
		qp.seqGap(0)
	}
}

func (qp *QP) rememberRead(ctx readCtx) {
	qp.reads = append(qp.reads, ctx)
	if len(qp.reads) > 64 {
		qp.reads = qp.reads[len(qp.reads)-64:]
	}
}

func (qp *QP) findRead(psn uint32) (readCtx, bool) {
	for i := len(qp.reads) - 1; i >= 0; i-- {
		c := qp.reads[i]
		end := psnAdd(c.startPSN, uint32(c.npkts-1))
		if !psnLT(psn, c.startPSN) && !psnLT(end, psn) {
			return c, true
		}
	}
	return readCtx{}, false
}

// enqueueReadResponses streams response packets [from, npkts) of ctx
// through the data scheduler.
func (qp *QP) enqueueReadResponses(ctx readCtx, from int) {
	for i := from; i < ctx.npkts; i++ {
		psn := psnAdd(ctx.startPSN, uint32(i))
		qp.enqueue(txPkt{kind: txReadResp, ctx: ctx, i: i, psn: psn})
	}
}

func (qp *QP) makeReadResponse(ctx readCtx, i int, psn uint32) *packet.Packet {
	op := respOpcode(i, ctx.npkts)
	p := qp.baseHeader(op, psn)
	if op.HasAETH() {
		p.AETH = packet.AETH{Syndrome: packet.SyndromeACK | 31, MSN: qp.msn}
	}
	n := segLen(ctx.length, qp.cfg.MTU, i, ctx.npkts)
	p.Payload = zeroPayload(n)
	p.BTH.PadCount = uint8((4 - n%4) % 4)
	return p
}

// --- atomics ---

// atomicOpcode maps the verb to its wire opcode.
func atomicOpcode(v Verb) packet.Opcode {
	if v == VerbCompSwap {
		return packet.OpCompareSwap
	}
	return packet.OpFetchAdd
}

func (qp *QP) makeAtomicRequest(w *wqe, psn uint32) *packet.Packet {
	p := qp.baseHeader(atomicOpcode(w.req.Verb), psn)
	p.Atomic = packet.AtomicETH{
		VA:      w.req.RemoteAddr,
		RKey:    w.req.RKey,
		SwapAdd: w.req.SwapAdd,
		Compare: w.req.Compare,
	}
	p.BTH.AckReq = true
	return p
}

// handleAtomicRequest executes the remote atomic at the responder. Per
// the IB spec, responders keep a bounded cache of recent atomic results
// so that duplicate requests (retransmissions whose original reply was
// lost) replay the ORIGINAL result instead of re-executing — atomics
// must be exactly-once.
func (qp *QP) handleAtomicRequest(v packet.View) {
	psn := v.PSN()
	switch {
	case psn == qp.ePSN:
		orig, ok := qp.nic.executeAtomic(v.Opcode(), v.Atomic())
		if !ok {
			qp.cov().Record(coverage.SiteRecv, coverage.RecvMRFail)
			qp.sendNakNow(packet.NakRemoteAccess)
			return
		}
		qp.cov().Record(coverage.SiteAtomic, coverage.AtomicExecute)
		qp.ePSN = psnAdd(psn, 1)
		qp.nakArmed = true
		qp.msn = (qp.msn + 1) & packet.PSNMask
		qp.rememberAtomic(psn, orig)
		qp.sendAtomicAck(psn, orig)
	case psnLT(psn, qp.ePSN):
		// Duplicate: replay the cached result.
		qp.nic.Counters.Inc(CtrDuplicateReq)
		if orig, ok := qp.atomicReplay[psn]; ok {
			qp.cov().Record(coverage.SiteAtomic, coverage.AtomicReplay)
			qp.sendAtomicAck(psn, orig)
		} else {
			// Result aged out of the replay cache: the spec calls this an
			// invalid-request error.
			qp.cov().Record(coverage.SiteAtomic, coverage.AtomicAgedOut)
			qp.sendNakNow(packet.NakInvalidReq)
		}
	default:
		// Sequence gap ahead of the atomic: NAK like any other request.
		qp.cov().Record(coverage.SiteAtomic, coverage.AtomicGap)
		qp.seqGap(0)
	}
}

// atomicReplayCap bounds the responder's atomic result cache.
const atomicReplayCap = 64

func (qp *QP) rememberAtomic(psn uint32, orig uint64) {
	if qp.atomicReplay == nil {
		qp.atomicReplay = map[uint32]uint64{}
	}
	qp.atomicReplay[psn] = orig
	qp.atomicOrder = append(qp.atomicOrder, psn)
	if len(qp.atomicOrder) > atomicReplayCap {
		delete(qp.atomicReplay, qp.atomicOrder[0])
		qp.atomicOrder = qp.atomicOrder[1:]
	}
}

// sendAtomicAck snapshots the atomic ACK's MSN and original value now
// and emits it after AckGenDelay. The delay is a profile constant, so
// pending atomic ACKs fire in the order they were queued.
func (qp *QP) sendAtomicAck(psn uint32, orig uint64) {
	qp.atomicAcks.push(txPkt{kind: txAtomicAck, psn: psn, syndrome: packet.SyndromeACK | 31, msn: qp.msn, orig: orig})
	qp.nic.Sim.AfterEvent(qp.nic.Prof.AckGenDelay, qp, qpAtomicAck, 0, nil)
}

// handleAtomicAck finishes the atomic WQE at the requester with the
// original remote value; complete holds its completion while an earlier
// WQE is outstanding. The WQE finishes before the window advances so the
// no-coalescing clamp does not block its own acknowledgement.
func (qp *QP) handleAtomicAck(v packet.View) {
	psn := v.PSN()
	w := qp.wqeFor(psn)
	if w != nil && !w.done && w.req.Verb.IsAtomic() {
		w.orig = v.AtomicAck()
		qp.complete(w, StatusOK)
	}
	qp.advanceUna(psnAdd(psn, 1))
}

// --- retransmission timer ---

// rto returns the timeout for the current retry attempt: the IB-spec
// constant 4.096 µs · 2^TimeoutExp, or — with adaptive retransmission
// enabled on NVIDIA hardware — the undocumented per-attempt schedule
// §6.3 measured.
func (qp *QP) rto() sim.Duration {
	n := qp.nic
	if n.Set.AdaptiveRetrans && len(n.Prof.AdaptiveTimeouts) > 0 {
		sched := n.Prof.AdaptiveTimeouts
		if qp.retries < len(sched) {
			return sched[qp.retries]
		}
		// Beyond the measured schedule: keep doubling the final value.
		d := sched[len(sched)-1]
		for i := len(sched); i <= qp.retries; i++ {
			d *= 2
		}
		return d
	}
	exp := qp.cfg.TimeoutExp
	if exp <= 0 {
		exp = 14
	}
	base := sim.Duration(4096) // 4.096 µs in ns
	return base << uint(exp)
}

// armTimer (re)arms the retransmission timer when data is outstanding
// and cancels it when everything is acknowledged. UC and UD never
// retransmit, so they never arm it.
func (qp *QP) armTimer() {
	if !qp.cfg.Transport.Reliable() {
		return
	}
	s := qp.nic.Sim
	s.Cancel(qp.rtoTimer)
	if qp.errored || !psnLT(qp.sndUna, qp.nextPSN) {
		return
	}
	rto := qp.rto()
	if h := qp.hub(); h.Active() {
		h.EmitArgs(telemetry.KindRetransTimer, qp.track, "arm",
			telemetry.I("rto_ns", int64(rto)), telemetry.I("retry", int64(qp.retries)))
	}
	qp.cov().Record(coverage.SiteTimer, coverage.TimerArm)
	qp.rtoTimer = s.AfterEvent(rto, qp, qpTimeout, 0, nil)
}

func (qp *QP) onTimeout() {
	if qp.errored || !psnLT(qp.sndUna, qp.nextPSN) {
		return
	}
	qp.nic.Counters.Inc(CtrLocalAckTimeout)
	if h := qp.hub(); h.Active() {
		h.EmitArgs(telemetry.KindRetransTimer, qp.track, "fire",
			telemetry.I("retry", int64(qp.retries)), telemetry.I("una_psn", int64(qp.sndUna)))
		qp.nic.rto.Record(int64(qp.rto()))
	}
	qp.retries++
	if qp.retries > qp.retryLimit {
		qp.cov().Record(coverage.SiteTimer, coverage.TimerExhausted)
		qp.fatal(StatusRetryExceeded)
		return
	}
	qp.cov().Record(coverage.SiteTimer, coverage.TimerRetry)
	// Timeout retransmission of a Read occupies the same constrained
	// read-recovery engine as implied-NAK handling. On CX4 Lx this is
	// what lets synchronized mass timeouts re-stall the pipeline and
	// discard their own re-read responses — sustaining the noisy-
	// neighbor episode (§6.2.2) across multiple RTOs.
	if w := qp.wqeFor(qp.sndUna); w != nil && w.req.Verb == VerbRead {
		qp.nic.slowPathEnter(qp.nic.Prof.NACKGenRead.At(0, qp.nic.rng))
	}
	qp.readNakArmed = true
	qp.cov().Record(coverage.SiteRewind, coverage.RewindTimeout)
	qp.rewind(qp.sndUna)
}

// fatal moves the QP to the error state, flushing outstanding WQEs.
func (qp *QP) fatal(st CompletionStatus) {
	if qp.errored {
		return
	}
	qp.errored = true
	qp.hub().EmitArgs(telemetry.KindQPState, qp.track, "ERROR",
		telemetry.S("status", st.String()))
	qp.cov().Record(coverage.SiteQPState, coverage.QPStateError)
	qp.nic.Counters.Inc(CtrRetryExceeded)
	qp.nic.Sim.Cancel(qp.rtoTimer)
	qp.nic.sched.flush(qp)
	first := true
	for _, w := range qp.wqes[qp.wqeLive:] {
		if w.done {
			continue
		}
		if first {
			qp.complete(w, st)
			first = false
		} else {
			qp.complete(w, StatusFlushed)
		}
	}
	if qp.rp != nil {
		qp.rp.stop()
	}
}

// wqeSlab is how many WQEs PostSend allocates at once once the QP's
// reserved window (NIC.Reserve), if any, is spent. A slot is never
// reused: a queued retransmission (txPkt.w) can still name a WQE that
// has completed, so slab entries must neither move nor change.
const wqeSlab = 4

// rnrRetryLimit bounds receiver-not-ready retries before the QP errors
// (IBV's rnr_retry; 7 is the common non-infinite maximum).
const rnrRetryLimit = 7

// With adaptive retransmission on, a QP retries between adaptiveRetryMin
// and adaptiveRetryMax times regardless of retry_cnt — the bounds §6.3
// measured on every NVIDIA model.
const (
	adaptiveRetryMin = 8
	adaptiveRetryMax = 13
)

// defaultAckCoalesce is the responder's default ACK coalescing factor:
// one ACK per this many in-order request packets (besides explicit
// AckReq packets).
const defaultAckCoalesce = 4

// ackCoalesce resolves the effective coalescing factor from the profile.
func (qp *QP) ackCoalesce() int {
	if c := qp.nic.Prof.AckCoalesce; c > 0 {
		return c
	}
	return defaultAckCoalesce
}

// --- 24-bit PSN arithmetic ---

func psnAdd(a, n uint32) uint32 { return (a + n) & packet.PSNMask }

func psnSub(a, b uint32) uint32 { return (a - b) & packet.PSNMask }

// psnLT compares PSNs within a half-space window, handling wraparound.
func psnLT(a, b uint32) bool {
	return a != b && psnSub(b, a) < 1<<23
}
