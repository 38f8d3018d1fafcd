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
	"slices"

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

// connKey names one direction of a connection: the match fields of a
// Rule but the PSN and ITER.
type connKey struct {
	src, dst [4]byte
	dstQPN   uint32
}

func keyOf(src, dst netip.Addr, dstQPN uint32) connKey {
	return connKey{src.As4(), dst.As4(), dstQPN}
}

// connection is the switch's state for one direction of a connection:
// the ITER tracker (Figure 3), the match-action entries on (PSN, ITER)
// and the packets an EventReorder action holds, waiting for later data
// packets of the connection to overtake them.
type connection struct {
	lastPSN uint32
	iter    uint32 // 0 until AddConnection seeds it or a data packet adopts it
	rules   map[[2]uint32]Rule
	held    []*heldPkt
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

// dumperPort is a mirror port with its WRR weight, credit and mirror count.
type dumperPort struct {
	port            *sim.Port
	weight, current int
	spray           int64
}

// Switch is the event injector instance.
type Switch struct {
	Sim *sim.Simulator
	Cfg config.Switch

	hostPorts   []*sim.Port
	hostMACs    []packet.MAC
	macTable    map[packet.MAC]int
	defaultPort int // unknown-unicast egress (-1 = drop); see SetDefaultPort
	dumpers     []dumperPort

	conns map[connKey]*connection // made by the first conn, sized by slab
	// slab is where conn takes new records while AddConnections' slab
	// lasts; it is never grown, so its entries never move.
	slab []connection

	rng *sim.RNG

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

// New creates a switch with the given data-plane configuration, which
// config.Validate has filled in.
func New(s *sim.Simulator, cfg config.Switch) *Switch {
	return &Switch{
		Sim:         s,
		Cfg:         cfg,
		macTable:    map[packet.MAC]int{},
		defaultPort: -1,
		rng:         s.RNG().Fork(),
	}
}

// heldPkt is a packet parked by an EventReorder action. It is also the
// handler of its own reorderMaxHold timeout.
type heldPkt struct {
	sw        *Switch
	conn      *connection
	wire      []byte
	remaining int // same-connection data packets that must overtake first
	released  bool
}

// HandleEvent releases the packet when its hold times out, unless an
// overtake released it first.
func (h *heldPkt) HandleEvent(int, uint64, []byte) {
	if h.released {
		return
	}
	h.conn.held = slices.DeleteFunc(h.conn.held, func(x *heldPkt) bool { return x == h })
	h.sw.release(h)
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
	port.SetFrameReceiver(func(wire []byte) { sw.ingress(idx, wire) })
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
	port.SetFrameReceiver(func(wire []byte) { sw.ingress(idx, wire) })
	return idx
}

// SetDefaultPort routes unknown-unicast frames out of the host port at
// idx instead of dropping them — the leaf switch's default route up to
// the spine. Pass -1 to restore dropping.
func (sw *Switch) SetDefaultPort(idx int) { sw.defaultPort = idx }

// AttachDumper binds a mirror port with a WRR weight, at least 1 (the
// dumper-pool weights tag holds a configured one there).
func (sw *Switch) AttachDumper(port *sim.Port, weight int) {
	sw.dumpers = append(sw.dumpers, dumperPort{port: port, weight: weight})
}

// Publish writes the switch's counts into reg: the mirrors sent to each
// dumper even at zero, the mirror, hit and drop totals when non-zero.
func (sw *Switch) Publish(reg *telemetry.Registry) {
	for i, d := range sw.dumpers {
		reg.Add(fmt.Sprintf("switch.spray.dumper-%d", i), d.spray)
	}
	for _, c := range [...]struct {
		name string
		v    uint64
	}{{"switch.mirrored", sw.total.Mirrored}, {"inject.hits", sw.total.Injected}, {"inject.drops", sw.total.Dropped}} {
		if c.v != 0 {
			reg.Add(c.name, int64(c.v))
		}
	}
}

// EnableINT registers the match-action pipeline as an INT hop on the
// collector. Must be called before traffic starts.
func (sw *Switch) EnableINT(c *inband.Collector) {
	sw.intCol = c
	sw.intHop = c.RegisterHop("sw-pipeline", false)
}

// conn returns the state of the connection named by key, creating it
// unseeded.
func (sw *Switch) conn(key connKey) *connection {
	c := sw.conns[key]
	if c == nil {
		if sw.conns == nil {
			sw.conns = make(map[connKey]*connection, cap(sw.slab))
		}
		if len(sw.slab) < cap(sw.slab) {
			sw.slab = sw.slab[:len(sw.slab)+1]
			c = &sw.slab[len(sw.slab)-1]
		} else {
			c = &connection{}
		}
		sw.conns[key] = c
	}
	return c
}

// AddConnections seeds the ITER trackers of every connection in ms, as
// AddConnection does, with both directions' records taken from one slab
// sized for them.
func (sw *Switch) AddConnections(ms []ConnMeta) {
	sw.slab = make([]connection, 0, 2*len(ms))
	for _, m := range ms {
		sw.AddConnection(m)
	}
}

// AddConnection seeds the ITER tracker from exchanged traffic metadata.
func (sw *Switch) AddConnection(m ConnMeta) {
	seed := func(src, dst netip.Addr, dstQPN, ipsn uint32) {
		c := sw.conn(keyOf(src, dst, dstQPN))
		c.lastPSN, c.iter = (ipsn-1)&packet.PSNMask, 1
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
	c := sw.conn(keyOf(r.SrcIP, r.DstIP, r.DstQPN))
	if c.rules == nil {
		c.rules = map[[2]uint32]Rule{}
	}
	c.rules[[2]uint32{r.PSN, r.Iter}] = r
}

// Totals returns the aggregate counters.
func (sw *Switch) Totals() PortCounters { return sw.total }

// PerPort returns a copy of the per-host-port counters.
func (sw *Switch) PerPort() []PortCounters {
	return append([]PortCounters(nil), sw.perPort...)
}

// MirrorCount returns the number of packets mirrored so far — integrity
// check condition 2 (§3.5).
func (sw *Switch) MirrorCount() uint64 { return sw.total.Mirrored }

// ingress is the switch pipeline entry point (Figure 6). The frame is
// the switch's: it leaves with forward, or goes back to the pool where
// the pipeline drops it.
func (sw *Switch) ingress(portIdx int, wire []byte) {
	pc := &sw.perPort[portIdx]
	pc.RxFrames++
	sw.total.RxFrames++

	v, err := packet.ParseFrame(wire)
	isRoCE := err == nil && v.IsRoCE()
	if isRoCE {
		pc.RxRoCE++
		sw.total.RxRoCE++
	}

	if sw.Cfg.L2Only || !isRoCE {
		// Plain L2 forwarding (baseline mode, and non-RoCE traffic in
		// Lumina mode skips the RoCE pipeline stages).
		sw.forward(wire, isRoCE)
		return
	}

	// ITER tracking (Figure 3): data packets only — events target data
	// packets, and ACK/CNP PSNs live in unrelated sequence spaces. c stays
	// nil for any other packet.
	ev := packet.EventNone
	var rule Rule
	var c *connection
	if v.Opcode().IsData() {
		c = sw.conn(connKey{v.Src().As4(), v.Dst().As4(), v.DestQP()})
		psn := v.PSN()
		iter := sw.trackITER(c, psn)
		if sw.Cfg.Inject {
			var hit bool
			if rule, hit = c.rules[[2]uint32{psn, iter}]; hit {
				sw.Sim.Coverage().Record(coverage.SiteInjectLookup, coverage.LookupHit)
				ev = rule.Action
				if h := sw.Sim.Hub(); h.Active() {
					// lineage = the mirror sequence number the imminent
					// ingress mirror stamps on this packet (the mirror
					// count, bumped just before embedding), i.e. the ID the
					// lineage package keys causal chains on.
					h.EmitArgs(telemetry.KindInjectHit,
						fmt.Sprintf("switch/port-%d", portIdx), ev.String(),
						telemetry.I("psn", int64(psn)),
						telemetry.I("qpn", int64(v.DestQP())),
						telemetry.I("iter", int64(iter)),
						telemetry.I("lineage", int64(sw.total.Mirrored+1)))
				}
			} else {
				sw.Sim.Coverage().Record(coverage.SiteInjectLookup, coverage.LookupMiss)
			}
		}
	}

	// Apply the action to the forwarded original, in place: the switch
	// holds the frame.
	switch ev {
	case packet.EventECN:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionECN)
		packet.SetECNCE(wire)
	case packet.EventCorrupt:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionCorrupt)
		packet.CorruptPayload(wire)
	case packet.EventSetMigReq:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionMigReq)
		packet.SetMigReq(wire)
	}
	if ev != packet.EventNone {
		pc.Injected++
		sw.total.Injected++
	}

	// Ingress mirror: duplicates carry the post-injection bytes plus the
	// embedded metadata, and leave before the drop takes effect.
	if sw.Cfg.Mirror && len(sw.dumpers) > 0 {
		sw.mirror(wire, ev, portIdx)
	}

	switch ev {
	case packet.EventDrop:
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionDrop)
		pc.Dropped++
		sw.total.Dropped++
		sw.Sim.PutFrame(wire)
		return
	case packet.EventDelay:
		// Quantitative delay (§7 future work): forward after the rule's
		// extra latency on top of the pipeline.
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionDelay)
		d := sw.dataPlaneLatency(true) + rule.Delay
		sw.Sim.AfterEvent(d, sw, swDelayed, 0, wire)
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
		h := &heldPkt{sw: sw, conn: c, wire: wire, remaining: off}
		c.held = append(c.held, h)
		sw.Sim.AfterEvent(reorderMaxHold, h, 0, 0, nil)
		return
	}
	sw.forward(wire, true)

	// Data packets overtake any parked (reordered) predecessors.
	if c != nil {
		sw.overtake(c)
	}
}

// overtake credits one overtaking packet to every held packet of the
// connection and releases those whose quota is spent, keeping the rest
// in one pass over the hold list.
func (sw *Switch) overtake(c *connection) {
	kept := c.held[:0]
	for _, h := range c.held {
		h.remaining--
		sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionOvertake)
		if h.remaining > 0 {
			kept = append(kept, h)
		} else {
			sw.release(h)
		}
	}
	clear(c.held[len(kept):])
	c.held = kept
}

// release forwards a held packet.
func (sw *Switch) release(h *heldPkt) {
	h.released = true
	sw.Sim.Coverage().Record(coverage.SiteInjectAction, coverage.ActionRelease)
	sw.forward(h.wire, true)
}

// trackITER implements Figure 3: if the packet's PSN is not larger than
// Last_PSN, a new (re)transmission round begins.
func (sw *Switch) trackITER(c *connection, psn uint32) uint32 {
	switch {
	case c.iter == 0:
		// Unknown connection (no metadata shared): adopt it with the
		// current packet starting round 1.
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterAdopt)
		c.iter = 1
	case !psnGreater(psn, c.lastPSN):
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterNewRound)
		c.iter++
	default:
		sw.Sim.Coverage().Record(coverage.SiteInjectIter, coverage.IterTracked)
	}
	c.lastPSN = psn
	return c.iter
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

// egress resolves the frame's destination MAC to a host port index and
// counts the frame out of it. Rewrites leave the Ethernet header alone,
// and a frame that fails the RoCE parse still leaves by it. An unknown
// unicast with no default route is dropped — no flooding in a 2-host
// testbed — and reported as -1, its frame released.
func (sw *Switch) egress(wire []byte, isRoCE bool) int {
	idx, ok := sw.macTable[packet.FrameDst(wire)]
	if !ok {
		if sw.defaultPort < 0 {
			sw.Sim.PutFrame(wire)
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

// Switch event ops. Each carries the frame in data.
const (
	swForward = iota // pipeline latency elapsed: send on host port arg
	swMirror         // mirror latency elapsed: send on dumper port arg
	swDelayed        // a delay event's latency elapsed: forward now
)

// forward performs L2 forwarding with the stage-dependent latency.
func (sw *Switch) forward(wire []byte, isRoCE bool) {
	idx := sw.egress(wire, isRoCE)
	if idx < 0 {
		return
	}
	sw.Sim.AfterEvent(sw.dataPlaneLatency(isRoCE), sw, swForward, uint64(idx), wire)
}

// HandleEvent puts a frame on its egress port once the latency
// scheduled by forward, mirror or a delay event has elapsed. A delayed
// frame resolves its port only now, with no further pipeline latency.
func (sw *Switch) HandleEvent(op int, arg uint64, data []byte) {
	switch op {
	case swForward:
		sw.hostPorts[arg].SendFrame(data)
	case swMirror:
		sw.dumpers[arg].port.SendFrame(data)
	case swDelayed:
		if idx := sw.egress(data, true); idx >= 0 {
			sw.hostPorts[idx].SendFrame(data)
		}
	}
}

// mirror emits the metadata-stamped duplicate toward the dumper pool.
func (sw *Switch) mirror(wire []byte, ev packet.EventType, ingress int) {
	dup := sw.Sim.GetFrame(len(wire))
	copy(dup, wire)
	sw.perPort[ingress].Mirrored++
	sw.total.Mirrored++ // the mirror sequence number
	if sw.intCol != nil {
		// INT pipeline hop on the forwarded original (the mirror copy is
		// already duplicated): stamp the ingress instant and bind transit
		// ID ↔ mirror sequence number, the lineage join key.
		sw.intCol.Pipeline(wire, sw.intHop, int64(sw.Sim.Now()), sw.total.Mirrored)
	}
	packet.EmbedMirrorMeta(dup, packet.MirrorMeta{
		Seq:       sw.total.Mirrored,
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
		pick = ingress % len(sw.dumpers)
	} else {
		sw.Sim.Coverage().Record(coverage.SiteInjectMirror, coverage.MirrorSpray)
		pick = sw.nextDumper()
	}
	sw.dumpers[pick].spray++
	sw.Sim.AfterEvent(sim.Duration(sw.Cfg.PipelineLatencyNs), sw, swMirror, uint64(pick), dup)
}

// nextDumper runs smooth weighted round-robin over the dumper ports.
func (sw *Switch) nextDumper() int {
	if len(sw.dumpers) == 1 {
		return 0
	}
	totalW, best := 0, 0
	for i := range sw.dumpers {
		d := &sw.dumpers[i]
		d.current += d.weight
		totalW += d.weight
		if d.current > sw.dumpers[best].current {
			best = i
		}
	}
	sw.dumpers[best].current -= totalW
	return best
}

// psnGreater reports a > b in the 24-bit circular space.
func psnGreater(a, b uint32) bool {
	return a != b && ((b-a)&packet.PSNMask) >= 1<<23
}
