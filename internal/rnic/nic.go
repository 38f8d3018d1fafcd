package rnic

import (
	"fmt"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Settings are the runtime RoCE parameters from the host configuration
// (the paper's Listing 1 roce-parameters block).
type Settings struct {
	DCQCNRPEnable      bool
	DCQCNNPEnable      bool
	MinTimeBetweenCNPs sim.Duration // <0 means "use hardware default"
	AdaptiveRetrans    bool
	SlowRestart        bool
}

// DefaultSettings mirror common production defaults: DCQCN fully on,
// hardware-default CNP spacing, adaptive retransmission off.
func DefaultSettings() Settings {
	return Settings{
		DCQCNRPEnable:      true,
		DCQCNNPEnable:      true,
		MinTimeBetweenCNPs: -1,
		AdaptiveRetrans:    false,
		SlowRestart:        true,
	}
}

// MR is a registered memory region. Lumina's traffic generators exchange
// (Addr, RKey) during metadata setup exactly like libibverbs apps.
type MR struct {
	Addr   uint64
	Length int
	RKey   uint32
}

// mrState pairs the handle with backing storage. Bulk verbs move
// synthetic zero payloads (the dumpers trim payloads anyway), but atomic
// operations need real 64-bit cells to operate on.
type mrState struct {
	MR
	mem map[uint64]uint64 // sparse 8-byte cells keyed by address
}

// NIC is one simulated RDMA NIC instance.
type NIC struct {
	Sim  *sim.Simulator
	Prof Profile
	Set  Settings
	Name string
	MAC  packet.MAC

	Counters *Counters

	port *sim.Port
	ips  []netip.Addr
	qps  map[uint32]*QP
	mrs  map[uint32]*mrState
	rng  *sim.RNG

	sched *etsScheduler

	// DCQCN notification point: next instant a CNP may be emitted, per
	// rate-limiter scope bucket.
	cnpNextAllowed map[string]sim.Time

	// Slow-path engine (§6.2.2): occupancy above Prof.SlowPathContexts
	// wedges the RX pipeline for Prof.WedgeDuration; arriving packets
	// are discarded while wedged. A cooldown suppresses immediate
	// re-wedging so the post-watchdog backlog can drain.
	slowBusy          int
	wedgedUntil       sim.Time
	wedgeCooldownTill sim.Time

	// APM engine (§6.2.3): connections (local QPs) whose peers send
	// MigReq=0 beyond the APM cache capacity have every packet serviced
	// by a single slow server with a shallow buffer.
	apmCache   map[uint32]bool // local QPN → in fast cache
	apmCacheN  int
	apmQueueN  int
	apmBusyTil sim.Time

	nextQPN uint32
	nextRK  uint32

	// rxFree recycles decoded-packet structs across the RX path: a packet
	// lives from decode until its dispatch event returns (handlers never
	// retain the pointer), so steady-state reception allocates no Packet
	// structs. Per-NIC, hence safe with one simulator per worker.
	rxFree []*packet.Packet
	// rxq holds the decoded packets inside the RX pipeline, oldest first.
	// PipelineDelay is one constant per NIC, so the pipeline's dispatch
	// events fire in admission order and each one takes the head.
	rxq ring[*packet.Packet]

	// lastCNPAt feeds the inter-CNP-gap histogram (telemetry only).
	lastCNPAt sim.Time
	anyCNP    bool
}

// hub returns the telemetry bus (nil-safe no-op when detached).
func (n *NIC) hub() *telemetry.Hub { return n.Sim.Hub() }

// Config bundles NIC construction parameters.
type Config struct {
	Name string
	MAC  packet.MAC
	IPs  []netip.Addr
	ETS  ETSConfig
	Set  Settings
}

// New creates a NIC. The RNG is forked from the simulator's so component
// construction order does not perturb other components' random streams.
func New(s *sim.Simulator, prof Profile, cfg Config) *NIC {
	if len(cfg.IPs) == 0 {
		// invariant: config.Validate refuses a host whose ip-list is empty or holds no parseable address, and the orchestrator's topology gives every fabric host a generated one.
		panic("rnic: NIC needs at least one IP (GID)")
	}
	ets := cfg.ETS
	if len(ets.Queues) == 0 {
		ets = DefaultETSConfig()
	}
	if err := ets.Validate(); err != nil {
		// invariant: config.Validate refuses ets-queues that are strict and weighted or weighted without a positive weight, the two checks ETSConfig.Validate makes on a non-empty list.
		panic(err)
	}
	n := &NIC{
		Sim:            s,
		Prof:           prof,
		Set:            cfg.Set,
		Name:           cfg.Name,
		MAC:            cfg.MAC,
		Counters:       NewCounters(),
		ips:            append([]netip.Addr(nil), cfg.IPs...),
		qps:            map[uint32]*QP{},
		mrs:            map[uint32]*mrState{},
		rng:            s.RNG().Fork(),
		cnpNextAllowed: map[string]sim.Time{},
		apmCache:       map[uint32]bool{},
	}
	n.sched = newETSScheduler(n, ets)
	return n
}

// AttachPort binds the NIC to its switch-facing port and installs the RX
// handler.
func (n *NIC) AttachPort(p *sim.Port) {
	n.port = p
	p.SetFrameReceiver(n.receive)
}

// IP returns the NIC's primary address.
func (n *NIC) IP() netip.Addr { return n.ips[0] }

// IPs returns all addresses (multi-GID emulation, §5).
func (n *NIC) IPs() []netip.Addr { return n.ips }

// RegisterMR registers a memory region of the given length and returns
// its handle. Addresses are synthetic but unique per NIC.
func (n *NIC) RegisterMR(length int) MR {
	n.nextRK++
	mr := MR{
		Addr:   uint64(n.nextRK) << 32,
		Length: length,
		RKey:   0x1000 + n.nextRK,
	}
	n.mrs[mr.RKey] = &mrState{MR: mr, mem: map[uint64]uint64{}}
	return mr
}

// lookupMR validates an rkey/address/length triple.
func (n *NIC) lookupMR(rkey uint32, addr uint64, length int) bool {
	mr, ok := n.mrs[rkey]
	if !ok {
		return false
	}
	return addr >= mr.Addr && addr+uint64(length) <= mr.Addr+uint64(mr.Length)
}

// ReadMR reads the 64-bit cell at addr (zero when never written) — the
// application-side view of atomic targets.
func (n *NIC) ReadMR(rkey uint32, addr uint64) (uint64, bool) {
	mr, ok := n.mrs[rkey]
	if !ok || !n.lookupMR(rkey, addr, 8) {
		return 0, false
	}
	return mr.mem[addr], true
}

// WriteMR stores a 64-bit cell (test setup and application
// initialization of atomic targets).
func (n *NIC) WriteMR(rkey uint32, addr uint64, v uint64) bool {
	mr, ok := n.mrs[rkey]
	if !ok || !n.lookupMR(rkey, addr, 8) {
		return false
	}
	mr.mem[addr] = v
	return true
}

// executeAtomic performs the remote atomic on the MR cell, returning the
// original value.
func (n *NIC) executeAtomic(op packet.Opcode, rkey uint32, addr uint64, swapAdd, compare uint64) (orig uint64, ok bool) {
	mr, exists := n.mrs[rkey]
	if !exists || !n.lookupMR(rkey, addr, 8) {
		return 0, false
	}
	orig = mr.mem[addr]
	switch op {
	case packet.OpCompareSwap:
		if orig == compare {
			mr.mem[addr] = swapAdd
		}
	case packet.OpFetchAdd:
		mr.mem[addr] = orig + swapAdd
	default:
		return 0, false
	}
	return orig, true
}

// transmit pushes scheduler-selected wire bytes onto the port. wire is a
// pool frame (QP.encode); its ownership leaves with it.
func (n *NIC) transmit(wire []byte, qp *QP) {
	n.Counters.Inc(CtrTxRoCEPackets)
	n.Counters.Add(CtrTxRoCEBytes, uint64(len(wire)))
	if h := n.hub(); h.Active() && qp != nil {
		now := n.Sim.Now()
		if qp.txSeen {
			h.Observe("nic.tx_gap_ns", int64(now.Sub(qp.lastTxAt)))
		}
		qp.lastTxAt, qp.txSeen = now, true
		h.Count("nic.tx_packets", 1)
	}
	n.port.SendFrame(wire, true)
}

// getRxPkt pops a recycled packet struct (or allocates the first time).
func (n *NIC) getRxPkt() *packet.Packet {
	if k := len(n.rxFree); k > 0 {
		p := n.rxFree[k-1]
		n.rxFree[k-1] = nil
		n.rxFree = n.rxFree[:k-1]
		return p
	}
	return new(packet.Packet)
}

// putRxPkt returns a packet struct to the freelist. The payload alias is
// dropped so the wire buffer it points into can be collected.
func (n *NIC) putRxPkt(p *packet.Packet) {
	p.Payload = nil
	n.rxFree = append(n.rxFree, p)
}

// receive is the RX entry point for frames arriving from the switch. A
// frame the pipeline admits is released when its dispatch event has run;
// one discarded here is released at once.
func (n *NIC) receive(wire []byte, owned bool) {
	if !n.admit(wire, owned) && owned {
		n.Sim.PutFrame(wire)
	}
}

// admit runs the arrival-time checks and, for a packet that passes them,
// schedules its dispatch after the pipeline delay. It reports whether the
// dispatch event now holds the frame.
func (n *NIC) admit(wire []byte, owned bool) bool {
	// The phy/pipeline drop decision happens at arrival: a stalled
	// pipeline discards frames before any parsing (§6.2.2).
	if n.stalled() {
		n.Counters.Inc(CtrRxDiscardsPhy)
		return false
	}
	pkt := n.getRxPkt()
	if err := packet.DecodeInto(wire, pkt); err != nil || !pkt.IsRoCE() {
		// Non-RoCE traffic (e.g. the generators' TCP metadata exchange)
		// is out of scope for the hardware transport.
		n.putRxPkt(pkt)
		return false
	}
	n.Counters.Inc(CtrRxRoCEPackets)
	n.Counters.Add(CtrRxRoCEBytes, uint64(len(wire)))

	// iCRC check precedes all transport processing.
	if err := packet.VerifyICRC(wire); err != nil {
		n.Counters.Inc(CtrICRCErrors)
		n.putRxPkt(pkt)
		return false
	}

	// APM slow path (§6.2.3): data packets carrying MigReq=0 on strict
	// receivers may detour or be discarded.
	if n.Prof.StrictAPM && !pkt.BTH.MigReq && pkt.BTH.Opcode.IsData() {
		if !n.apmAdmit(pkt) {
			n.Counters.Inc(CtrRxDiscardsPhy)
			n.putRxPkt(pkt)
			return false
		}
		// apmAdmit schedules delayed delivery itself (with its own copy)
		// when queued.
		if n.apmQueued(pkt) {
			n.putRxPkt(pkt)
			return false
		}
	}

	n.rxq.push(pkt)
	n.Sim.AfterEvent(n.Prof.PipelineDelay, n, 0, sim.OwnedArg(owned), wire)
	return true
}

// HandleEvent is the NIC's only event: the RX pipeline delay of the
// oldest admitted packet has elapsed. data is that packet's frame, which
// its payload aliases; arg != 0 when the NIC owns the frame.
func (n *NIC) HandleEvent(_ int, arg uint64, data []byte) {
	pkt := n.rxq.pop()
	n.dispatch(pkt)
	n.putRxPkt(pkt)
	if arg != 0 {
		n.Sim.PutFrame(data)
	}
}

// dispatch routes a parsed packet to congestion processing and its QP.
func (n *NIC) dispatch(pkt *packet.Packet) {
	// DCQCN notification point: CE-marked data packets may elicit CNPs.
	if pkt.IP.ECN == packet.ECNCE && pkt.BTH.Opcode.IsData() {
		n.Counters.Inc(CtrNpEcnMarked)
		n.maybeSendCNP(pkt)
	}

	if pkt.BTH.Opcode.IsCNP() {
		n.Counters.Inc(CtrRpCnpHandled)
		if qp, ok := n.qps[pkt.BTH.DestQP]; ok && n.Set.DCQCNRPEnable && qp.rp != nil {
			qp.rp.onCNP()
		}
		return
	}

	qp, ok := n.qps[pkt.BTH.DestQP]
	if !ok {
		return // packet for a torn-down or foreign QP
	}
	qp.handlePacket(pkt)
}

// maybeSendCNP applies the scope-keyed rate limiter and emits a CNP
// toward the data sender when allowed.
func (n *NIC) maybeSendCNP(pkt *packet.Packet) {
	if !n.Set.DCQCNNPEnable {
		n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPDisabled)
		return
	}
	qp, ok := n.qps[pkt.BTH.DestQP]
	if !ok || !qp.connected {
		return
	}
	key := n.cnpScopeKey(pkt.IP.Src.String(), qp.remote.QPN)
	now := n.Sim.Now()
	if next, busy := n.cnpNextAllowed[key]; busy && now < next {
		n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPSuppress)
		if h := n.hub(); h.Active() {
			h.EmitArgs(telemetry.KindCNPGen, n.Name+"/cnp", "suppress",
				telemetry.I("dest_qpn", int64(qp.remote.QPN)))
			h.Count("cnp.suppressed", 1)
		}
		return // coalesced away by the rate limiter
	}
	n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPSend)
	n.cnpNextAllowed[key] = now.Add(n.minCNPInterval())
	if h := n.hub(); h.Active() {
		h.EmitArgs(telemetry.KindCNPGen, n.Name+"/cnp", "send",
			telemetry.I("dest_qpn", int64(qp.remote.QPN)))
		h.Count("cnp.sent", 1)
		if n.anyCNP {
			h.Observe("cnp.gap_ns", int64(now.Sub(n.lastCNPAt)))
		}
		n.lastCNPAt, n.anyCNP = now, true
	}
	if !n.Prof.BugCNPSentStuck {
		n.Counters.Inc(CtrNpCnpSent)
	}
	// Built in the QP's scratch packet and encoded immediately — the
	// wire bytes are what crosses the emission delay, not the struct.
	cnp := &qp.scratch
	*cnp = packet.Packet{
		Eth: packet.Ethernet{Dst: qp.remote.MAC, Src: n.MAC, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			DSCP: 48, ECN: packet.ECNNotECT, TTL: 64, Protocol: packet.ProtoUDP,
			Src: qp.srcIP(), Dst: qp.remote.IP,
		},
		UDP: packet.UDP{SrcPort: qp.udpSrcPort, DstPort: packet.RoCEv2Port},
		BTH: packet.BTH{Opcode: packet.OpCNP, BECN: true, MigReq: n.Prof.MigReqInit, DestQP: qp.remote.QPN},
	}
	// CNPs bypass pacing: they are tiny control packets emitted by the
	// congestion engine, not the WQE scheduler.
	n.Sim.AfterEvent(200, qp, qpSendCNP, 0, qp.encode(cnp))
}

// --- slow-path engine (noisy neighbor, §6.2.2) ---

func (n *NIC) stalled() bool {
	return n.Sim.Now() < n.wedgedUntil
}

// slowPathEnter occupies a slow-path context for d. The instant
// occupancy exceeds the context pool the whole RX pipeline wedges for
// WedgeDuration (arrivals discarded) unless a previous wedge's cooldown
// is still active — modelling the watchdog-recovered pipeline hang
// behind §6.2.2's multi-hundred-millisecond innocent-flow timeouts.
func (n *NIC) slowPathEnter(d sim.Duration) {
	if n.Prof.SlowPathContexts <= 0 {
		return
	}
	n.slowBusy++
	n.Sim.After(d, func() { n.slowBusy-- })
	now := n.Sim.Now()
	if n.slowBusy > n.Prof.SlowPathContexts && now >= n.wedgeCooldownTill {
		n.wedgedUntil = now.Add(n.Prof.WedgeDuration)
		n.wedgeCooldownTill = n.wedgedUntil.Add(n.Prof.WedgeCooldown)
		if h := n.hub(); h.Active() {
			h.EmitSpan(telemetry.KindNICWedge, n.Name, "rx_wedged", int64(n.Prof.WedgeDuration),
				telemetry.I("slow_busy", int64(n.slowBusy)))
			h.Count("nic.wedges", 1)
		}
	}
}

// --- APM engine (interoperability, §6.2.3) ---

// apmAdmit decides the fate of a MigReq=0 data packet: fast path (cached
// connection), queued slow path, or discard on overflow. It reports
// false for discard.
func (n *NIC) apmAdmit(pkt *packet.Packet) bool {
	qpn := pkt.BTH.DestQP
	if n.apmCache[qpn] {
		return true // fast path: connection holds an APM cache slot
	}
	if n.apmCacheN < apmCacheCapacity {
		n.apmCache[qpn] = true
		n.apmCacheN++
		return true
	}
	// Over-capacity connection: every packet takes the serialized slow
	// path. Shallow buffer; overflow discards.
	if n.apmQueueN >= apmSlowBuffer {
		return false
	}
	n.apmQueueN++
	now := n.Sim.Now()
	start := now
	if n.apmBusyTil > start {
		start = n.apmBusyTil
	}
	done := start.Add(n.Prof.APMServiceTime)
	n.apmBusyTil = done
	n.Counters.Inc(CtrApmProcessed)
	p := *pkt
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	n.Sim.At(done, func() {
		n.apmQueueN--
		n.dispatch(&p)
	})
	return true
}

// apmQueued reports whether the packet was deferred to the slow path
// (and will be dispatched later by apmAdmit's completion event).
func (n *NIC) apmQueued(pkt *packet.Packet) bool {
	return !n.apmCache[pkt.BTH.DestQP]
}

// APM model constants: the fast-connection cache holds this many
// MigReq=0 peers; beyond it, packets funnel through a single slow server
// with a shallow buffer. Capacity 12 places the failure onset between 8
// and 16 concurrent QPs, matching §6.2.3's observation.
const (
	apmCacheCapacity = 12
	apmSlowBuffer    = 64
)

func (n *NIC) String() string {
	return fmt.Sprintf("NIC(%s %s %s)", n.Name, n.Prof.Name, n.ips[0])
}
