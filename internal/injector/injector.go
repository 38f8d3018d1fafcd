// Package injector implements Lumina's event injector: the programmable
// switch data plane of Figure 6. Frames arriving on host-facing ports
// pass through the RoCE classifier, the ITER tracker, the event-injection
// match-action table, and L2 forwarding; every RoCE packet is also
// mirrored at ingress — before any drop takes effect, exactly as on the
// Tofino where mirroring precedes the MMU — with the mirror sequence
// number, event type, and ingress timestamp embedded in rewritten header
// fields, then sprayed over the traffic-dumper pool by weighted
// round-robin with optional RSS-defeating UDP port randomization (§3.3,
// §3.4).
package injector

import (
	"fmt"
	"net/netip"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Rule is one entry of the event-injection match-action table — the
// low-level form of Figure 2's example: exact match on (source IP,
// destination IP, destination QPN, PSN, ITER), action an EventType.
type Rule struct {
	SrcIP  netip.Addr
	DstIP  netip.Addr
	DstQPN uint32
	PSN    uint32
	Iter   uint32
	Action packet.EventType

	// Delay is the added forwarding latency for EventDelay actions.
	Delay sim.Duration
	// ReorderOffset is how many later same-connection data packets an
	// EventReorder action lets overtake the matched packet.
	ReorderOffset int

	// Hits counts matches (rule diagnostics in the result bundle).
	Hits int
}

func (r Rule) key() ruleKey {
	return ruleKey{r.SrcIP, r.DstIP, r.DstQPN, r.PSN, r.Iter}
}

type ruleKey struct {
	srcIP  netip.Addr
	dstIP  netip.Addr
	dstQPN uint32
	psn    uint32
	iter   uint32
}

// ConnMeta is the runtime traffic metadata a traffic generator shares
// with the injector before traffic starts (§3.3): both endpoints'
// IP/QPN/IPSN. It seeds the ITER tracker so Figure 3's Last_PSN starts
// at IPSN-1 in both directions. Read responses travel responder →
// requester but consume requester-side PSNs, so both directions seed
// from the requester's IPSN.
type ConnMeta struct {
	ReqIP    netip.Addr
	ReqQPN   uint32
	ReqIPSN  uint32
	RespIP   netip.Addr
	RespQPN  uint32
	RespIPSN uint32
}

type connKey struct {
	srcIP  netip.Addr
	dstIP  netip.Addr
	dstQPN uint32
}

// connState is the per-direction ITER tracker (Figure 3).
type connState struct {
	lastPSN uint32
	iter    uint32
}

// PortCounters are per-port packet counters dumped for integrity checks
// (§3.5, Table 1).
type PortCounters struct {
	RxFrames uint64 `json:"rx_frames"`
	RxRoCE   uint64 `json:"rx_roce"`
	TxFrames uint64 `json:"tx_frames"`
	TxRoCE   uint64 `json:"tx_roce"`
	Mirrored uint64 `json:"mirrored"`
	Injected uint64 `json:"injected"`
	Dropped  uint64 `json:"dropped"` // by drop actions
}

// Switch is the event injector instance.
type Switch struct {
	Sim *sim.Simulator
	Cfg config.Switch

	hostPorts   []*sim.Port
	hostMACs    []packet.MAC
	macTable    map[packet.MAC]int
	defaultPort int // unknown-unicast egress (-1 = drop); see SetDefaultPort
	dumperPorts []*sim.Port
	wrrWeights  []int
	wrrCurrent  []int

	rules map[ruleKey]*Rule
	conns map[connKey]*connState

	// reorder buffers: packets held by EventReorder, waiting for later
	// same-connection data packets to overtake them.
	held map[connKey][]*heldPkt

	mirrorSeq uint64
	rng       *sim.RNG

	perPort []PortCounters
	total   PortCounters

	// intCol/intHop make the match-action pipeline an INT stamping hop:
	// every mirrored RoCE packet's transit ID is bound to the mirror
	// sequence number — the join key between INT stamps and lineage
	// chains — and the forwarded original is restamped with the
	// pipeline's hop ID (see inband.Collector.Pipeline).
	intCol *inband.Collector
	intHop uint8

	// ByIngressMirror reproduces the initial two-host dumper design
	// (§3.4): each ingress port's mirrors go to one fixed dumper instead
	// of the weighted round-robin spray.
	ByIngressMirror bool
	// NoRSSRewrite disables the UDP destination-port randomization,
	// leaving the dumpers' RSS flow-affine (the ablation of §3.4's
	// load-balancing design).
	NoRSSRewrite bool
}

// New creates a switch with the given data-plane configuration.
func New(s *sim.Simulator, cfg config.Switch) *Switch {
	if cfg.PipelineLatencyNs <= 0 {
		cfg.PipelineLatencyNs = 400
	}
	return &Switch{
		Sim:         s,
		Cfg:         cfg,
		macTable:    map[packet.MAC]int{},
		defaultPort: -1,
		rules:       map[ruleKey]*Rule{},
		conns:       map[connKey]*connState{},
		held:        map[connKey][]*heldPkt{},
		rng:         s.RNG().Fork(),
	}
}

// heldPkt is a packet parked by an EventReorder action.
type heldPkt struct {
	wire      []byte
	owned     bool // wire is a pool frame the switch holds
	dst       packet.MAC
	remaining int // same-connection data packets that must overtake first
	released  bool
}

// reorderMaxHold bounds how long a reordered packet may wait for
// overtaking traffic before it is forcibly released — without it, a
// reorder on the final packet of a stream would hold it forever.
const reorderMaxHold = 100 * sim.Microsecond

// AttachHost binds a host-facing port. The MAC populates the L2
// forwarding table.
func (sw *Switch) AttachHost(port *sim.Port, mac packet.MAC) int {
	idx := len(sw.hostPorts)
	sw.hostPorts = append(sw.hostPorts, port)
	sw.hostMACs = append(sw.hostMACs, mac)
	sw.macTable[mac] = idx
	sw.perPort = append(sw.perPort, PortCounters{})
	port.SetFrameReceiver(func(wire []byte, owned bool) { sw.ingress(idx, wire, owned) })
	return idx
}

// AttachTrunk binds a fabric-facing trunk port (a leaf uplink, or a
// spine port toward one leaf) that fronts many MACs: every address in
// macs forwards out of this port. The trunk shares the host-port
// numbering and counters — it is a host port whose "host" is a subtree
// of the fabric. Returns the port index.
func (sw *Switch) AttachTrunk(port *sim.Port, macs []packet.MAC) int {
	idx := len(sw.hostPorts)
	sw.hostPorts = append(sw.hostPorts, port)
	sw.hostMACs = append(sw.hostMACs, packet.MAC{})
	for _, mac := range macs {
		sw.macTable[mac] = idx
	}
	sw.perPort = append(sw.perPort, PortCounters{})
	port.SetFrameReceiver(func(wire []byte, owned bool) { sw.ingress(idx, wire, owned) })
	return idx
}

// SetDefaultPort routes unknown-unicast frames out of the host port at
// idx instead of dropping them — the leaf switch's default route up to
// the spine. Pass -1 to restore dropping.
func (sw *Switch) SetDefaultPort(idx int) { sw.defaultPort = idx }

// AttachDumper binds a mirror port with a WRR weight (≥1).
func (sw *Switch) AttachDumper(port *sim.Port, weight int) {
	if weight <= 0 {
		weight = 1
	}
	sw.dumperPorts = append(sw.dumperPorts, port)
	sw.wrrWeights = append(sw.wrrWeights, weight)
	sw.wrrCurrent = append(sw.wrrCurrent, 0)
}

// EnableINT registers the match-action pipeline as an INT hop on the
// collector. Must be called before traffic starts.
func (sw *Switch) EnableINT(c *inband.Collector) {
	sw.intCol = c
	sw.intHop = c.RegisterHop("sw-pipeline", false)
}

// AddConnection seeds the ITER tracker from exchanged traffic metadata.
func (sw *Switch) AddConnection(m ConnMeta) {
	seed := func(src, dst netip.Addr, dstQPN, ipsn uint32) {
		sw.conns[connKey{src, dst, dstQPN}] = &connState{
			lastPSN: (ipsn - 1) & packet.PSNMask,
			iter:    1,
		}
	}
	// Requester → responder data (Send/Write/Read requests): requester
	// PSN space. Responder → requester data (Read responses): also
	// requester PSN space (responses reuse the request's reserved PSNs).
	seed(m.ReqIP, m.RespIP, m.RespQPN, m.ReqIPSN)
	seed(m.RespIP, m.ReqIP, m.ReqQPN, m.ReqIPSN)
}

// InstallRule adds one match-action entry. Installing a duplicate
// (srcIP,dstIP,dstQPN,psn,iter) key replaces the action.
func (sw *Switch) InstallRule(r Rule) {
	rr := r
	sw.rules[r.key()] = &rr
}

// Rules returns the installed rules (diagnostics).
func (sw *Switch) Rules() []*Rule {
	out := make([]*Rule, 0, len(sw.rules))
	for _, r := range sw.rules {
		out = append(out, r)
	}
	return out
}

// Totals returns the aggregate counters.
func (sw *Switch) Totals() PortCounters { return sw.total }

// PerPort returns a copy of the per-host-port counters.
func (sw *Switch) PerPort() []PortCounters {
	return append([]PortCounters(nil), sw.perPort...)
}

// MirrorCount returns the number of packets mirrored so far — integrity
// check condition 2 (§3.5).
func (sw *Switch) MirrorCount() uint64 { return sw.mirrorSeq }

// ingress is the switch pipeline entry point (Figure 6). An owned frame
// is the switch's to pass on or release: it leaves with forward, or goes
// back to the pool where the pipeline drops it or replaces it with a
// rewritten copy. An unowned one is only ever read.
func (sw *Switch) ingress(portIdx int, wire []byte, owned bool) {
	pc := &sw.perPort[portIdx]
	pc.RxFrames++
	sw.total.RxFrames++

	var pkt packet.Packet
	isRoCE := packet.Decode(wire, &pkt) == nil && pkt.IsRoCE()

	if sw.Cfg.L2Only || !isRoCE {
		// Plain L2 forwarding (baseline mode, and non-RoCE traffic in
		// Lumina mode skips the RoCE pipeline stages).
		sw.forward(wire, owned, pkt.Eth.Dst, isRoCE)
		return
	}

	pc.RxRoCE++
	sw.total.RxRoCE++

	// ITER tracking (Figure 3): data packets only — events target data
	// packets, and ACK/CNP PSNs live in unrelated sequence spaces.
	ev := packet.EventNone
	var rule *Rule
	isData := pkt.BTH.Opcode.IsData()
	if isData {
		iter := sw.trackITER(&pkt)
		if sw.Cfg.Inject {
			if rule = sw.lookupRule(&pkt, iter); rule != nil {
				sw.Sim.Coverage().Record(coverage.SiteInjectLookup, coverage.LookupHit)
				ev = rule.Action
				if h := sw.Sim.Hub(); h.Active() {
					// lineage = the mirror sequence number the imminent
					// ingress mirror stamps on this packet (mirrorSeq is
					// incremented just before embedding), i.e. the ID the
					// lineage package keys causal chains on.
					h.EmitArgs(telemetry.KindInjectHit,
						fmt.Sprintf("switch/port-%d", portIdx), ev.String(),
						telemetry.I("psn", int64(pkt.BTH.PSN)),
						telemetry.I("qpn", int64(pkt.BTH.DestQP)),
						telemetry.I("iter", int64(iter)),
						telemetry.I("lineage", int64(sw.mirrorSeq+1)))
					h.Count("inject.hits", 1)
				}
			} else {
				sw.Sim.Coverage().Record(coverage.SiteInjectLookup, coverage.LookupMiss)
			}
		}
	}

	// Apply the action to the forwarded original. Rewrites go into a
	// fresh pool frame — the arriving bytes may be a caller's — which
	// then replaces the original.
	out := wire
	switch ev {
	case packet.EventECN:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionECN)
		out = sw.copyFrame(wire)
		packet.SetECNCE(out)
	case packet.EventCorrupt:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionCorrupt)
		out = sw.copyFrame(wire)
		packet.CorruptPayload(out)
	case packet.EventSetMigReq:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionMigReq)
		out = sw.rewriteMigReq(&pkt)
	}
	if &out[0] != &wire[0] {
		// pkt's payload aliased wire; nothing below reads it.
		if owned {
			sw.Sim.PutFrame(wire)
		}
		owned = true
	}
	if ev != packet.EventNone {
		pc.Injected++
		sw.total.Injected++
	}

	// Ingress mirror: duplicates carry the post-injection bytes plus the
	// embedded metadata, and leave before the drop takes effect.
	if sw.Cfg.Mirror && len(sw.dumperPorts) > 0 {
		sw.mirror(out, ev, portIdx)
	}

	key := connKey{pkt.IP.Src, pkt.IP.Dst, pkt.BTH.DestQP}
	switch ev {
	case packet.EventDrop:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionDrop)
		pc.Dropped++
		sw.total.Dropped++
		sw.Sim.Hub().Count("inject.drops", 1)
		if owned {
			sw.Sim.PutFrame(out)
		}
		return
	case packet.EventDelay:
		// Quantitative delay (§7 future work): forward after the rule's
		// extra latency on top of the pipeline.
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionDelay)
		d := sw.dataPlaneLatency(true) + rule.Delay
		dst := pkt.Eth.Dst
		sw.Sim.After(d, func() { sw.forwardNow(out, owned, dst, true) })
		return
	case packet.EventReorder:
		// Packet reordering (§7 future work): park the packet until
		// ReorderOffset later data packets of its connection overtake it
		// (bounded by reorderMaxHold in case the stream ends).
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionReorderHold)
		off := rule.ReorderOffset
		if off <= 0 {
			off = 1
		}
		h := &heldPkt{wire: out, owned: owned, dst: pkt.Eth.Dst, remaining: off}
		sw.held[key] = append(sw.held[key], h)
		sw.Sim.After(reorderMaxHold, func() { sw.release(key, h) })
		return
	}
	sw.forward(out, owned, pkt.Eth.Dst, true)

	// Data packets overtake any parked (reordered) predecessors.
	if isData {
		sw.overtake(key)
	}
}

// overtake credits one overtaking packet to every held packet of the
// connection and releases those whose quota is spent.
func (sw *Switch) overtake(key connKey) {
	holds := sw.held[key]
	if len(holds) == 0 {
		return
	}
	for _, h := range holds {
		h.remaining--
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionOvertake)
		if h.remaining <= 0 {
			sw.release(key, h)
		}
	}
}

// release forwards a held packet (idempotent) and compacts the hold list.
func (sw *Switch) release(key connKey, h *heldPkt) {
	if h.released {
		return
	}
	h.released = true
	sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionRelease)
	holds := sw.held[key][:0]
	for _, x := range sw.held[key] {
		if x != h {
			holds = append(holds, x)
		}
	}
	if len(holds) == 0 {
		delete(sw.held, key)
	} else {
		sw.held[key] = holds
	}
	sw.forward(h.wire, h.owned, h.dst, true)
}

// trackITER implements Figure 3: if the packet's PSN is not larger than
// Last_PSN, a new (re)transmission round begins.
func (sw *Switch) trackITER(pkt *packet.Packet) uint32 {
	key := connKey{pkt.IP.Src, pkt.IP.Dst, pkt.BTH.DestQP}
	st, ok := sw.conns[key]
	if !ok {
		// Unknown connection (no metadata shared): adopt it with the
		// current packet starting round 1.
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterAdopt)
		st = &connState{lastPSN: pkt.BTH.PSN, iter: 1}
		sw.conns[key] = st
		return st.iter
	}
	if !psnGreater(pkt.BTH.PSN, st.lastPSN) {
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterNewRound)
		st.iter++
	} else {
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterTracked)
	}
	st.lastPSN = pkt.BTH.PSN
	return st.iter
}

func (sw *Switch) lookupRule(pkt *packet.Packet, iter uint32) *Rule {
	k := ruleKey{pkt.IP.Src, pkt.IP.Dst, pkt.BTH.DestQP, pkt.BTH.PSN, iter}
	if r, ok := sw.rules[k]; ok {
		r.Hits++
		return r
	}
	return nil
}

// rewriteMigReq re-serializes the packet with MigReq forced to 1 — the
// action Lumina added to confirm the §6.2.3 interop root cause. Unlike
// ECN marking, MigReq is iCRC-covered, so the packet must be rebuilt.
// The flip is applied in place on the decoded packet and restored after
// encoding, avoiding a full clone.
func (sw *Switch) rewriteMigReq(pkt *packet.Packet) []byte {
	saved := pkt.BTH.MigReq
	pkt.BTH.MigReq = true
	out := pkt.AppendWire(sw.Sim.GetFrame(pkt.WireLen())[:0])
	pkt.BTH.MigReq = saved
	return out
}

// copyFrame duplicates wire into a pool frame.
func (sw *Switch) copyFrame(wire []byte) []byte {
	dup := sw.Sim.GetFrame(len(wire))
	copy(dup, wire)
	return dup
}

// dataPlaneLatency models the pipeline stages a packet traverses:
// PipelineLatencyNs is the full Lumina pipeline (parser, ITER tracking,
// event-injection match-action, L2 forwarding — the prototype's four
// Tofino stages); packets that skip the injection stages (plain L2 mode,
// injection disabled, or non-RoCE traffic) only pay the parse+forward
// fraction. This reproduces Figure 7's 4–7% MCT overhead of the full
// pipeline over Lumina-ne and plain L2 forwarding.
func (sw *Switch) dataPlaneLatency(roce bool) sim.Duration {
	full := sim.Duration(sw.Cfg.PipelineLatencyNs)
	base := full * 5 / 8
	if sw.Cfg.L2Only || !sw.Cfg.Inject || !roce {
		return base
	}
	return full
}

// egress resolves dst to a host port index and counts the frame out of
// it. An unknown unicast with no default route is dropped — no flooding
// in a 2-host testbed — and reported as -1, its frame released.
func (sw *Switch) egress(wire []byte, owned bool, dst packet.MAC, isRoCE bool) int {
	idx, ok := sw.macTable[dst]
	if !ok {
		if sw.defaultPort < 0 {
			if owned {
				sw.Sim.PutFrame(wire)
			}
			return -1
		}
		idx = sw.defaultPort // default route: the uplink trunk
	}
	sw.perPort[idx].TxFrames++
	sw.total.TxFrames++
	if isRoCE {
		sw.perPort[idx].TxRoCE++
		sw.total.TxRoCE++
	}
	return idx
}

// Switch event ops. Both carry the frame in data and a port index in
// arg; swForward's arg also carries ownership in its low bit.
const (
	swForward = iota // pipeline latency elapsed: send on host port arg>>1
	swMirror         // mirror latency elapsed: send on dumper port arg
)

// forward performs L2 forwarding with the stage-dependent latency.
func (sw *Switch) forward(wire []byte, owned bool, dst packet.MAC, isRoCE bool) {
	idx := sw.egress(wire, owned, dst, isRoCE)
	if idx < 0 {
		return
	}
	sw.Sim.AfterEvent(sw.dataPlaneLatency(isRoCE), sw, swForward, uint64(idx)<<1|sim.OwnedArg(owned), wire)
}

// forwardNow is forward without the pipeline latency (the caller already
// accounted for it, e.g. delay events).
func (sw *Switch) forwardNow(wire []byte, owned bool, dst packet.MAC, isRoCE bool) {
	if idx := sw.egress(wire, owned, dst, isRoCE); idx >= 0 {
		sw.hostPorts[idx].SendFrame(wire, owned)
	}
}

// HandleEvent puts a frame on its egress port once the pipeline latency
// scheduled by forward or mirror has elapsed.
func (sw *Switch) HandleEvent(op int, arg uint64, data []byte) {
	if op == swForward {
		sw.hostPorts[arg>>1].SendFrame(data, arg&1 != 0)
		return
	}
	sw.dumperPorts[arg].SendFrame(data, true)
}

// mirror emits the metadata-stamped duplicate toward the dumper pool.
func (sw *Switch) mirror(wire []byte, ev packet.EventType, ingress int) {
	dup := sw.copyFrame(wire)
	sw.mirrorSeq++
	if sw.intCol != nil {
		// INT pipeline hop on the forwarded original (the mirror copy is
		// already duplicated): stamp the ingress instant and bind transit
		// ID ↔ mirror sequence number, the lineage join key.
		sw.intCol.Pipeline(wire, sw.intHop, int64(sw.Sim.Now()), sw.mirrorSeq)
	}
	packet.EmbedMirrorMeta(dup, packet.MirrorMeta{
		Seq:       sw.mirrorSeq,
		Event:     ev,
		Timestamp: int64(sw.Sim.Now()),
	})
	// Defeat flow-affinity RSS at the dumpers: randomize the UDP
	// destination port (restored to 4791 by the dumper before writing to
	// disk).
	if !sw.NoRSSRewrite {
		sw.Sim.Coverage().Record(coverage.SiteInjectMirror, coverage.MirrorRSSRewrite)
		packet.RewriteUDPDstPort(dup, uint16(0xC000+sw.rng.Intn(0x3000)))
	}
	var pick int
	if sw.ByIngressMirror {
		sw.Sim.Coverage().Record(coverage.SiteInjectMirror, coverage.MirrorByIngress)
		pick = ingress % len(sw.dumperPorts)
	} else {
		sw.Sim.Coverage().Record(coverage.SiteInjectMirror, coverage.MirrorSpray)
		pick = sw.nextDumper()
	}
	if h := sw.Sim.Hub(); h.Active() {
		h.EmitArgs(telemetry.KindWRRPick, "switch/mirror", "spray",
			telemetry.I("node", int64(pick)),
			telemetry.I("seq", int64(sw.mirrorSeq)))
		h.Count("switch.mirrored", 1)
	}
	sw.total.Mirrored++
	sw.Sim.AfterEvent(sim.Duration(sw.Cfg.PipelineLatencyNs), sw, swMirror, uint64(pick), dup)
}

// nextDumper runs smooth weighted round-robin over the dumper ports.
func (sw *Switch) nextDumper() int {
	if len(sw.dumperPorts) == 1 {
		return 0
	}
	totalW := 0
	best := 0
	for i, w := range sw.wrrWeights {
		sw.wrrCurrent[i] += w
		totalW += w
		if sw.wrrCurrent[i] > sw.wrrCurrent[best] {
			best = i
		}
	}
	sw.wrrCurrent[best] -= totalW
	return best
}

// psnGreater reports a > b in the 24-bit circular space.
func psnGreater(a, b uint32) bool {
	return a != b && ((b-a)&packet.PSNMask) >= 1<<23
}

func (sw *Switch) String() string {
	return fmt.Sprintf("Switch(hosts=%d dumpers=%d rules=%d)", len(sw.hostPorts), len(sw.dumperPorts), len(sw.rules))
}
