package rnic

import (
	"fmt"
	"net/netip"
	"strconv"

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
}

// DefaultSettings mirror common production defaults: DCQCN fully on,
// hardware-default CNP spacing, adaptive retransmission off.
func DefaultSettings() Settings {
	return Settings{
		DCQCNRPEnable:      true,
		DCQCNNPEnable:      true,
		MinTimeBetweenCNPs: -1,
		AdaptiveRetrans:    false,
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
	mem map[uint64]uint64 // sparse 8-byte cells keyed by address; nil until the first store
}

// store writes the 64-bit cell at addr.
func (mr *mrState) store(addr, v uint64) {
	if mr.mem == nil {
		mr.mem = map[uint64]uint64{}
	}
	mr.mem[addr] = v
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
	cnpNextAllowed map[cnpBucket]sim.Time

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
	apmBusyTil sim.Time
	apmQueued  int // frames in the slow path

	nextRK uint32

	// lastCNPAt feeds the inter-CNP-gap histogram.
	lastCNPAt sim.Time
	anyCNP    bool

	// Latency histograms, sampled only while a hub is attached: each
	// QP's inter-transmit gap, the inter-CNP gap, and the QPs' NAK
	// generation and reaction, read NAK generation and fired RTOs.
	txGap, cnpGap, nackGen, nackReact, readGen, rto telemetry.Histogram

	// CNPs sent and rate-limited away (np_cnp_sent may be stuck), and
	// RX pipeline wedges.
	cnpSent, cnpSuppressed, wedges int64
}

// hub returns the telemetry bus (nil-safe no-op when detached).
func (n *NIC) hub() *telemetry.Hub { return n.Sim.Hub() }

// Publish writes the NIC's counts into reg: each ETS queue's grants and
// bytes even at zero, the transmit, CNP and wedge totals when non-zero,
// and its histograms.
func (n *NIC) Publish(reg *telemetry.Registry) {
	for i, q := range n.sched.queues {
		name := n.Name + "/ets.q" + strconv.Itoa(i)
		reg.Add(name+".grants", q.grants)
		reg.Add(name+".bytes", q.bytesServed)
	}
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{"nic.tx_packets", int64(n.Counters.Get(CtrTxRoCEPackets))},
		{"cnp.sent", n.cnpSent}, {"cnp.suppressed", n.cnpSuppressed}, {"nic.wedges", n.wedges},
	} {
		if c.v != 0 {
			reg.Add(c.name, c.v)
		}
	}
	reg.AddHistogram("nic.tx_gap_ns", &n.txGap)
	reg.AddHistogram("cnp.gap_ns", &n.cnpGap)
	reg.AddHistogram("retrans.nack_gen_ns", &n.nackGen)
	reg.AddHistogram("retrans.nack_react_ns", &n.nackReact)
	reg.AddHistogram("retrans.read_gen_ns", &n.readGen)
	reg.AddHistogram("retrans.rto_ns", &n.rto)
}

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
		cnpNextAllowed: map[cnpBucket]sim.Time{},
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
	n.mrs[mr.RKey] = &mrState{MR: mr}
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
	mr.store(addr, v)
	return true
}

// executeAtomic performs the remote atomic on the MR cell, returning the
// original value.
func (n *NIC) executeAtomic(op packet.Opcode, a packet.AtomicETH) (orig uint64, ok bool) {
	mr, exists := n.mrs[a.RKey]
	if !exists || !n.lookupMR(a.RKey, a.VA, 8) {
		return 0, false
	}
	orig = mr.mem[a.VA]
	switch op {
	case packet.OpCompareSwap:
		if orig == a.Compare {
			mr.store(a.VA, a.SwapAdd)
		}
	case packet.OpFetchAdd:
		mr.store(a.VA, orig+a.SwapAdd)
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
	if n.hub().Active() {
		now := n.Sim.Now()
		if qp.txSeen {
			n.txGap.Record(int64(now.Sub(qp.lastTxAt)))
		}
		qp.lastTxAt, qp.txSeen = now, true
	}
	n.port.SendFrame(wire)
}

// receive is the RX entry point for frames arriving from the switch. A
// frame the pipeline admits is released when its dispatch event has run;
// one discarded here is released at once.
func (n *NIC) receive(wire []byte) {
	if !n.admit(wire) {
		n.Sim.PutFrame(wire)
	}
}

// admit runs the arrival-time checks and, for a packet that passes them,
// schedules its dispatch after the pipeline delay, or after the APM slow
// path. It reports whether a dispatch event now holds the frame.
func (n *NIC) admit(wire []byte) bool {
	// The phy/pipeline drop decision happens at arrival: a stalled
	// pipeline discards frames before any parsing (§6.2.2).
	if n.stalled() {
		n.Counters.Inc(CtrRxDiscardsPhy)
		return false
	}
	v, err := packet.ParseFrame(wire)
	if err != nil || !v.IsRoCE() {
		// Non-RoCE traffic (e.g. the generators' TCP metadata exchange)
		// is out of scope for the hardware transport.
		return false
	}
	n.Counters.Inc(CtrRxRoCEPackets)
	n.Counters.Add(CtrRxRoCEBytes, uint64(len(wire)))

	// iCRC check precedes all transport processing.
	if err := packet.VerifyICRC(wire); err != nil {
		n.Counters.Inc(CtrICRCErrors)
		return false
	}

	// APM slow path (§6.2.3): data packets carrying MigReq=0 on strict
	// receivers may detour or be discarded.
	if n.Prof.StrictAPM && !v.MigReq() && v.Opcode().IsData() && !n.apmFast(v) {
		return n.apmSlow(wire)
	}
	n.Sim.AfterEvent(n.Prof.PipelineDelay, n, nicRxDispatch, 0, wire)
	return true
}

// NIC event ops.
const (
	nicRxDispatch  = iota // a frame's RX pipeline delay elapsed
	nicSlowRelease        // a slow-path context's occupancy ended
	nicAPMDispatch        // the APM slow path finished a frame
)

// HandleEvent runs the NIC's events. A dispatch's data is the packet's
// frame, which the NIC owns and releases once the packet is handled.
func (n *NIC) HandleEvent(op int, _ uint64, data []byte) {
	switch op {
	case nicSlowRelease:
		n.slowBusy--
		return
	case nicAPMDispatch:
		n.apmQueued--
	}
	v, _ := packet.ParseFrame(data) // admit parsed these bytes
	n.dispatch(v)
	n.Sim.PutFrame(data)
}

// dispatch routes a received packet to congestion processing and its QP.
func (n *NIC) dispatch(v packet.View) {
	// DCQCN notification point: CE-marked data packets may elicit CNPs.
	if v.ECN() == packet.ECNCE && v.Opcode().IsData() {
		n.Counters.Inc(CtrNpEcnMarked)
		n.maybeSendCNP(v)
	}

	if v.Opcode().IsCNP() {
		n.Counters.Inc(CtrRpCnpHandled)
		if qp, ok := n.qps[v.DestQP()]; ok && n.Set.DCQCNRPEnable && qp.rp != nil {
			qp.rp.onCNP()
		}
		return
	}

	qp, ok := n.qps[v.DestQP()]
	if !ok {
		return // packet for a torn-down or foreign QP
	}
	qp.handlePacket(v)
}

// maybeSendCNP applies the scope-keyed rate limiter and emits a CNP
// toward the data sender when allowed.
func (n *NIC) maybeSendCNP(v packet.View) {
	if !n.Set.DCQCNNPEnable {
		n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPDisabled)
		return
	}
	qp, ok := n.qps[v.DestQP()]
	if !ok || !qp.connected {
		return
	}
	key := n.cnpScopeKey(v.Src(), qp.remote.QPN)
	now := n.Sim.Now()
	if next, busy := n.cnpNextAllowed[key]; busy && now < next {
		n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPSuppress)
		n.cnpSuppressed++
		if h := n.hub(); h.Active() {
			h.EmitArgs(telemetry.KindCNPGen, n.Name+"/cnp", "suppress",
				telemetry.I("dest_qpn", int64(qp.remote.QPN)))
		}
		return // coalesced away by the rate limiter
	}
	n.Sim.Coverage().Record(coverage.SiteDCQCNNP, coverage.NPSend)
	n.cnpNextAllowed[key] = now.Add(n.Prof.CNPInterval(n.Set.MinTimeBetweenCNPs))
	n.cnpSent++
	if h := n.hub(); h.Active() {
		h.EmitArgs(telemetry.KindCNPGen, n.Name+"/cnp", "send",
			telemetry.I("dest_qpn", int64(qp.remote.QPN)))
		if n.anyCNP {
			n.cnpGap.Record(int64(now.Sub(n.lastCNPAt)))
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
	n.Sim.AfterEvent(d, n, nicSlowRelease, 0, nil)
	now := n.Sim.Now()
	if n.slowBusy > n.Prof.SlowPathContexts && now >= n.wedgeCooldownTill {
		n.wedgedUntil = now.Add(n.Prof.WedgeDuration)
		n.wedgeCooldownTill = n.wedgedUntil.Add(n.Prof.WedgeCooldown)
		n.wedges++
		if h := n.hub(); h.Active() {
			h.EmitSpan(telemetry.KindNICWedge, n.Name, "rx_wedged", int64(n.Prof.WedgeDuration),
				telemetry.I("slow_busy", int64(n.slowBusy)))
		}
	}
}

// --- APM engine (interoperability, §6.2.3) ---

// apmFast reports whether a MigReq=0 data packet takes the fast path:
// its connection (local QP) holds an APM cache slot, or takes a free one.
func (n *NIC) apmFast(v packet.View) bool {
	qpn := v.DestQP()
	if n.apmCache[qpn] {
		return true
	}
	if n.apmCacheN < apmCacheCapacity {
		n.apmCache[qpn] = true
		n.apmCacheN++
		return true
	}
	return false
}

// apmSlow sends an over-capacity connection's frame through the
// serialized slow path, whose shallow buffer discards on overflow. It
// reports whether the slow path holds the frame.
func (n *NIC) apmSlow(wire []byte) bool {
	if n.apmQueued >= apmSlowBuffer {
		n.Counters.Inc(CtrRxDiscardsPhy)
		return false
	}
	n.apmBusyTil = max(n.Sim.Now(), n.apmBusyTil).Add(n.Prof.APMServiceTime)
	n.apmQueued++
	n.Counters.Inc(CtrApmProcessed)
	n.Sim.AtEvent(n.apmBusyTil, n, nicAPMDispatch, 0, wire)
	return true
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
