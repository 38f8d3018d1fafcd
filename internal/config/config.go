// Package config defines Lumina's typed test configuration — the schema
// of the paper's Listings 1 (host / roce-parameters) and 2 (traffic /
// data-pkt-events) — plus the simulation-substrate sections (switch and
// traffic-dumper pool) that stand in for hardware choices, and loading
// from the yamlite format.
package config

import (
	"cmp"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Test is a complete test description: everything the orchestrator needs
// to set up the environment, generate traffic, inject events, and dump
// packets.
type Test struct {
	Name string `json:"name"`
	// Seed drives every random choice in the simulation (QPN/PSN
	// allocation, latency jitter); identical configs + seeds reproduce
	// identical traces bit for bit.
	Seed int64 `json:"seed"`

	Requester Host       `json:"requester"`
	Responder Host       `json:"responder"`
	Traffic   Traffic    `json:"traffic"`
	Switch    Switch     `json:"switch"`
	Dumpers   DumperPool `json:"dumper-pool"`

	// Fabric, when present, replaces the 2-host pair with a leaf-spine
	// fabric: Leaves×HostsPerLeaf hosts, one injector-capable spine, and
	// plain L2 leaves. The Requester host template configures every
	// sender NIC and the Responder template the receiver; Traffic then
	// describes each sender→receiver pair. Nil (the default, and the
	// only form the pair-testbed corpus uses) keeps the classic
	// requester/responder testbed.
	Fabric *FabricTopo `json:"fabric,omitempty"`
}

// FabricTopo is the leaf-spine topology description for fabric-scale
// runs (hundreds of QPs converging through one switch tier).
type FabricTopo struct {
	// Leaves is the number of leaf switches; HostsPerLeaf the hosts
	// hanging off each leaf. Host 0 (on leaf 0) is the traffic sink.
	Leaves       int `json:"leaves" lumina:"default=2"`
	HostsPerLeaf int `json:"hosts-per-leaf" lumina:"default=8"`
	// UplinkGbps is the leaf↔spine trunk rate (the incast bottleneck
	// shifts to the receiver's leaf downlink when this exceeds the host
	// line rate).
	UplinkGbps float64 `json:"uplink-gbps" lumina:"default=400,min=0.001"`
	// Pattern names the traffic pattern; only "incast" (every other
	// host sends to host 0) is defined.
	Pattern string `json:"pattern" lumina:"default=incast,oneof=incast"`
}

// Hosts returns the total host count.
func (f FabricTopo) Hosts() int { return f.Leaves * f.HostsPerLeaf }

// Host mirrors Listing 1: the NIC under test and its RoCE parameters.
type Host struct {
	// Workspace is the host's working directory on the physical
	// testbed. No model reads it; it is part of the content hash.
	Workspace string `json:"workspace,omitempty"`
	// ControlIP is the host's management address on the physical
	// testbed. No model reads it; it is part of the content hash.
	ControlIP string `json:"control-ip,omitempty"`
	NIC       NIC    `json:"nic"`
	RoCE      RoCE   `json:"roce-parameters"`
	// ETS queues configured on this host's NIC (§6.2.1 experiments).
	// Empty means a single default queue.
	ETS []ETSQueue `json:"ets-queues,omitempty"`
}

// NIC selects and places the hardware under test.
type NIC struct {
	Type string `json:"type" lumina:"default=spec"` // cx4 | cx5 | cx6 | e810 | spec
	// IfName is the NIC's interface name on the physical testbed. No
	// model reads it; it is part of the content hash.
	IfName string `json:"if-name,omitempty"`
	// SwitchPort is the switch port the NIC is cabled to on the
	// physical testbed. No model reads it; it is part of the content
	// hash.
	SwitchPort int          `json:"switch-port,omitempty"`
	IPList     []netip.Addr `json:"ip-list" lumina:"min=1"`
	// Profile overrides single behaviours of the model Type names, the
	// flips the ablations make. Nil (absent, or no key set) runs the
	// model as it is; a pointer, so report.json leaves it out as well.
	Profile *Overrides `json:"profile,omitempty"`
}

// Overrides turn single modelled mechanisms off or retune them, one per
// key. A key is set exactly when it is non-zero, so a set key always
// appears in the canonical YAML and the content hash; orchestrator
// applies them to the profile it builds the NIC from.
type Overrides struct {
	// NoETSClamp makes weighted ETS queues work-conserving (clears the
	// CX6 Dx guarantee clamp, §6.2.1).
	NoETSClamp bool `json:"no-ets-clamp,omitempty"`
	// NoSlowPathWedge gives the slow path unlimited contexts, so it
	// never wedges the RX pipeline (§6.2.2).
	NoSlowPathWedge bool `json:"no-slow-path-wedge,omitempty"`
	// NoStrictAPM admits every connection to the fast path whatever its
	// MigReq (§6.2.3).
	NoStrictAPM bool `json:"no-strict-apm,omitempty"`
	// AckCoalesce is the responder's ACK coalescing factor: one ACK per
	// this many in-order request packets. Zero keeps the model's (4).
	// Past the packets a connection may send, only AckReq packets are
	// acknowledged.
	AckCoalesce int `json:"ack-coalesce,omitempty" lumina:"min=0,max=4194304"`
}

// RoCE mirrors Listing 1's roce-parameters block.
type RoCE struct {
	DCQCNRPEnable      bool `json:"dcqcn-rp-enable"`
	DCQCNNPEnable      bool `json:"dcqcn-np-enable"`
	MinTimeBetweenCNPs int  `json:"min-time-between-cnps" lumina:"max=1000000000"` // µs; -1 = hardware default
	AdaptiveRetrans    bool `json:"adaptive-retrans"`
	// SlowRestart is Listing 2's slow-restart switch. No NIC model
	// implements it; it is part of the content hash.
	SlowRestart bool `json:"slow-restart"`
}

// ETSQueue is one scheduler queue.
type ETSQueue struct {
	Strict bool `json:"strict,omitempty"`
	Weight int  `json:"weight,omitempty"`
}

// Traffic mirrors Listing 2.
type Traffic struct {
	NumConnections       int    `json:"num-connections" lumina:"min=1,max=4096"`
	Verb                 string `json:"rdma-verb" lumina:"default=write,oneof=send write read send+read write+read"`
	NumMsgsPerQP         int    `json:"num-msgs-per-qp" lumina:"default=1"`
	MTU                  int    `json:"mtu" lumina:"default=1024,max=4096"`
	MessageSize          int    `json:"message-size" lumina:"min=1"`
	MultiGID             bool   `json:"multi-gid"`
	BarrierSync          bool   `json:"barrier-sync"`
	TxDepth              int    `json:"tx-depth" lumina:"default=1"`
	MinRetransmitTimeout int    `json:"min-retransmit-timeout" lumina:"default=14,max=31"` // IB's 5-bit timeout exponent
	MaxRetransmitRetry   int    `json:"max-retransmit-retry" lumina:"default=7"`
	// QPTrafficClass maps connection index → ETS queue on the sender
	// (the multi-queue experiments of §6.2.1). Missing entries default
	// to queue 0.
	QPTrafficClass []int `json:"qp-traffic-class,omitempty"`
	// Transport selects the RoCE service type for every connection:
	// "rc" (the default), "uc", or "ud". Validate canonicalizes "rc" to
	// the empty string so pre-transport documents keep their content
	// hashes.
	Transport string `json:"transport,omitempty"`
	// QPTransport maps connection index → transport, overriding
	// Transport per connection (interop mixes, e.g. RC and UD sharing
	// ETS queues). Missing or empty entries inherit Transport.
	QPTransport []string `json:"qp-transport,omitempty"`
	// Events are the deterministic injections (data-pkt-events).
	Events []Event `json:"data-pkt-events"`
}

// Event is one deterministic injection intent, in user-relative terms:
// qpn is the 1-based connection index, psn the 1-based packet index
// within the connection's data stream, iter the (re)transmission round
// (Fig. 3), type the action. Every, when > 0, expands the intent to every
// Every-th packet starting at psn ("mark one out of every 50 packets",
// §6.2.1).
//
// The delay and reorder types implement the quantitative-delay and
// packet-reordering events §7 lists as future work: delay postpones the
// packet by DelayUs microseconds; reorder slips it behind the next
// Offset packets of its connection.
type Event struct {
	QPN   int    `json:"qpn" lumina:"min=1"`
	PSN   int    `json:"psn" lumina:"min=1,max=16777216"`
	Iter  int    `json:"iter" lumina:"default=1,max=4294967295"` // the injector compares a uint32
	Type  string `json:"type"`                                   // ecn | drop | corrupt | set-migreq | delay | reorder
	Every int    `json:"every,omitempty" lumina:"min=0,max=16777216"`
	// DelayUs is the added forwarding delay for delay events, in µs.
	DelayUs int `json:"delay-us,omitempty" lumina:"max=1000000000"`
	// Offset is how many later packets a reorder event slips behind
	// (default 1: swap with the next packet).
	Offset int `json:"offset,omitempty"`
}

// Switch configures the event injector substrate (§5): the measured
// Tofino pipeline adds <0.4 µs latency; mirroring and injection can be
// disabled to reproduce the Lumina-nm / Lumina-ne / l2-forward baselines
// of Figure 7.
type Switch struct {
	PipelineLatencyNs int  `json:"pipeline-latency-ns" lumina:"default=400,max=1000000000000"`
	Mirror            bool `json:"mirror"`
	Inject            bool `json:"inject"`
	// L2Only bypasses the whole Lumina pipeline (match-action tables,
	// counters, ITER tracking): the plain L2-forwarding baseline.
	L2Only bool `json:"l2-only,omitempty"`
}

// DumperPool configures the traffic-dumper substrate (§3.4).
type DumperPool struct {
	Nodes        int `json:"nodes" lumina:"default=4"`
	CoresPerNode int `json:"cores-per-node" lumina:"default=8"`
	// PerCoreGbps is each core's sustained packet-processing rate.
	PerCoreGbps float64 `json:"per-core-gbps" lumina:"default=5,min=0.001"`
	// NodeGbps is each node's NIC line rate.
	NodeGbps float64 `json:"node-gbps" lumina:"default=100,min=0.001"`
	// Weights for the injector's weighted round-robin spraying; empty
	// means equal weights.
	Weights []int `json:"weights,omitempty" lumina:"min=1"`
	// TrimBytes: packets are truncated to this many bytes before
	// buffering (the first 128 bytes hold all headers, §5).
	TrimBytes int `json:"trim-bytes" lumina:"default=128"`
	// RSSPortRewrite enables the injector's UDP destination port
	// randomization so RSS spreads one flow across all cores (§3.4).
	RSSPortRewrite bool `json:"rss-port-rewrite"`
	// PerPacketLB selects per-packet spraying across nodes; false
	// reproduces the initial two-host design whose capture success was
	// ~30% (§3.4).
	PerPacketLB bool `json:"per-packet-lb"`
}

// Default returns a fully-populated baseline configuration: spec NICs,
// Lumina switch with injection and mirroring on, a 4-node dumper pool.
// The values a lumina tag declares come from the tag.
func Default() Test {
	t := defaults()
	_ = t.Validate() // fills the seed and the tag defaults; TestDefaultsValidate holds it valid
	return t
}

// defaults is Default before Validate fills it in. Parse decodes onto it
// and then validates once.
func defaults() Test {
	host := func(ipStr string) Host {
		return Host{
			NIC: NIC{IPList: []netip.Addr{netip.MustParseAddr(ipStr)}},
			RoCE: RoCE{
				DCQCNRPEnable: true, DCQCNNPEnable: true,
				MinTimeBetweenCNPs: -1, SlowRestart: true,
			},
		}
	}
	return Test{
		Name:      "default",
		Requester: host("10.0.0.1"),
		Responder: host("10.0.0.2"),
		Traffic:   Traffic{NumConnections: 1, MessageSize: 10240},
		Switch:    Switch{Mirror: true, Inject: true},
		Dumpers:   DumperPool{RSSPortRewrite: true, PerPacketLB: true},
	}
}

// Size limits on what a scenario makes orchestrator.Build allocate:
// hosts, QPs, dumper cores, packets and injector rules. Without them one
// short document could ask Build for 10^15 QPs and exhaust memory, in
// `lumina serve` the whole daemon's. Each is far above what the paper or
// any checked-in scenario uses; DESIGN.md gives the reasons for each
// value. Limits on a single key are its lumina tag.
const (
	maxFabricHosts  = 1024    // leaves × hosts-per-leaf
	maxQPs          = 65536   // sending hosts × num-connections
	maxDumperCores  = 4096    // dumper-pool nodes × cores-per-node
	maxPacketsPerQP = 1 << 22 // data packets per connection: under half the PSN space
	maxRules        = 65536   // data-pkt-events after every expands them
	// maxPackets bounds the data packets of a whole run: sending hosts ×
	// num-connections × packets per connection. With every observer on
	// and artifacts written a run allocates about 1.7 KB per packet
	// (perfgate's bulk_explain_packet), so this holds a run to about
	// 7 GB, what one connection at its own limit may ask for; 4 096 such
	// connections would be 29 TB. The largest checked-in scenario or
	// experiment, a 100 000-packet fig7 run, is 42× under it.
	maxPackets = 1 << 22
)

// fits reports whether a × b ≤ limit for positive a and b, without
// computing a product that could overflow.
func fits(a, b, limit int) bool { return a <= limit/b }

// Validate fills the defaults and enforces the bounds the fields' lumina
// tags declare, then checks the rules that read more than one key.
func (t *Test) Validate() error {
	if err := check(reflect.ValueOf(t).Elem()); err != nil {
		return err
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	for _, h := range []*Host{&t.Requester, &t.Responder} {
		if h.NIC.Profile != nil && *h.NIC.Profile == (Overrides{}) {
			h.NIC.Profile = nil // `profile: {}` is the model as it is
		}
		for i, q := range h.ETS {
			if q.Strict && q.Weight != 0 {
				return fmt.Errorf("config: ETS queue %d both strict and weighted", i)
			}
			if !q.Strict && q.Weight <= 0 {
				return fmt.Errorf("config: ETS queue %d needs a positive weight", i)
			}
		}
	}
	tr := &t.Traffic
	pktsPerMsg := tr.PacketsPerMessage()
	if !fits(pktsPerMsg, tr.NumMsgsPerQP, maxPacketsPerQP) {
		return fmt.Errorf("config: message-size / mtu × num-msgs-per-qp (%d × %d packets) exceeds the limit of %d packets per connection",
			pktsPerMsg, tr.NumMsgsPerQP, maxPacketsPerQP)
	}
	pktsPerQP := pktsPerMsg * tr.NumMsgsPerQP
	// Verb combinations generate bi-directional data traffic (§3.2).
	// Event intents are direction-ambiguous there, so they are only valid
	// with a single verb.
	if strings.Contains(tr.Verb, "+") && len(tr.Events) > 0 {
		return fmt.Errorf("config: data-pkt-events require a single rdma-verb, not %q", tr.Verb)
	}
	if err := tr.validateTransports(); err != nil {
		return err
	}
	nq := max(len(t.Requester.ETS), 1) // no ets-queues is one default queue
	for i, tc := range tr.QPTrafficClass {
		if tc < 0 || tc >= nq {
			return fmt.Errorf("config: qp-traffic-class[%d] = %d out of range (%d queues)", i, tc, nq)
		}
	}
	rules := 0
	for i, ev := range tr.Events {
		if ev.QPN > tr.NumConnections {
			return fmt.Errorf("config: event %d: qpn %d out of range 1..%d", i, ev.QPN, tr.NumConnections)
		}
		switch action, _ := packet.ParseEventType(ev.Type); action {
		case packet.EventNone:
			return fmt.Errorf("config: event %d: unknown type %q", i, ev.Type)
		case packet.EventDelay:
			if ev.DelayUs <= 0 {
				return fmt.Errorf("config: event %d: delay events need delay-us > 0", i)
			}
		case packet.EventReorder:
			if ev.Offset < 0 {
				return fmt.Errorf("config: event %d: negative reorder offset", i)
			}
			if ev.Offset == 0 {
				tr.Events[i].Offset = 1
			}
		}
		rules++
		if ev.Every > 0 && ev.PSN < pktsPerQP {
			rules += (pktsPerQP - ev.PSN) / ev.Every
		}
		if rules > maxRules {
			return fmt.Errorf("config: data-pkt-events expand to more than the limit of %d injector rules", maxRules)
		}
	}
	d := &t.Dumpers
	// The dumpers keep the first trim-bytes of each mirrored frame, and
	// trace reconstruction decodes every header in them: the RETH of a
	// Write or a Read request, or the AETH on a Send's acknowledgement.
	headers := packet.EthernetSize + packet.IPv4Size + packet.UDPSize + packet.BTHSize + packet.RETHSize
	if tr.Verb == "send" {
		headers += packet.AETHSize - packet.RETHSize
	}
	if d.TrimBytes < headers {
		return fmt.Errorf("config: dumper-pool.trim-bytes: %d is shorter than the %d header bytes of an rdma-verb %s trace", d.TrimBytes, headers, tr.Verb)
	}
	if !fits(d.Nodes, d.CoresPerNode, maxDumperCores) {
		return fmt.Errorf("config: dumper-pool nodes × cores-per-node (%d × %d) exceeds the limit of %d cores",
			d.Nodes, d.CoresPerNode, maxDumperCores)
	}
	if len(d.Weights) != 0 && len(d.Weights) != d.Nodes {
		return fmt.Errorf("config: %d dumper weights for %d nodes", len(d.Weights), d.Nodes)
	}
	senders := 1
	if f := t.Fabric; f != nil {
		if !fits(f.Leaves, f.HostsPerLeaf, maxFabricHosts) {
			return fmt.Errorf("config: fabric leaves × hosts-per-leaf (%d × %d) exceeds the limit of %d hosts",
				f.Leaves, f.HostsPerLeaf, maxFabricHosts)
		}
		if f.Hosts() < 2 {
			return fmt.Errorf("config: fabric needs at least 2 hosts, got %d", f.Hosts())
		}
		if len(tr.Events) > 0 {
			return fmt.Errorf("config: data-pkt-events are pair-testbed only; not valid with a fabric")
		}
		if senders = f.Hosts() - 1; senders*tr.NumConnections > maxQPs {
			return fmt.Errorf("config: %d sending hosts × num-connections %d exceeds the limit of %d QPs",
				senders, tr.NumConnections, maxQPs)
		}
	}
	if !fits(senders*tr.NumConnections, pktsPerQP, maxPackets) {
		return fmt.Errorf("config: sending hosts × num-connections × packets per connection (%d × %d × %d) exceeds the limit of %d packets per run",
			senders, tr.NumConnections, pktsPerQP, maxPackets)
	}
	return nil
}

// MinCNPInterval converts the µs config knob to a duration (-1 → -1,
// meaning hardware default).
func (r RoCE) MinCNPInterval() sim.Duration {
	if r.MinTimeBetweenCNPs < 0 {
		return -1
	}
	return sim.Duration(r.MinTimeBetweenCNPs) * sim.Microsecond
}

// PacketsPerMessage returns how many MTU-sized packets one message spans.
// It is written so that no message-size overflows it.
func (tr Traffic) PacketsPerMessage() int {
	return (tr.MessageSize-1)/tr.MTU + 1
}

// PacketsPerQP returns the total first-transmission data packets each
// connection produces.
func (tr Traffic) PacketsPerQP() int {
	return tr.PacketsPerMessage() * tr.NumMsgsPerQP
}

// TransportOf returns the effective transport name for connection i
// (0-based): the per-connection override when set, else the
// traffic-wide Transport, else "rc".
func (tr Traffic) TransportOf(i int) string {
	if i < len(tr.QPTransport) && tr.QPTransport[i] != "" {
		return tr.QPTransport[i]
	}
	return cmp.Or(tr.Transport, "rc")
}

// Transports returns the sorted set of effective transport names across
// all connections.
func (tr Traffic) Transports() []string {
	set := map[string]bool{}
	for i := 0; i < tr.NumConnections; i++ {
		set[tr.TransportOf(i)] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// validateTransports checks the transport names and the per-transport
// traffic constraints, then canonicalizes the fields: "rc" (the
// all-default spelling) collapses to the zero value so documents
// written before transports existed — and spellings that only restate
// the default — keep their content hashes.
func (tr *Traffic) validateTransports() error {
	tr.Transport = strings.ToLower(tr.Transport)
	if tr.Transport != "" {
		if _, err := rnic.ParseTransport(tr.Transport); err != nil {
			return fmt.Errorf("config: traffic transport: %w", err)
		}
	}
	if len(tr.QPTransport) > tr.NumConnections {
		return fmt.Errorf("config: %d qp-transport entries for %d connections",
			len(tr.QPTransport), tr.NumConnections)
	}
	base := cmp.Or(tr.Transport, "rc")
	// Canonical names go into a fresh slice, never back into the backing
	// array: by-value copies of one config.Test share it, and engine
	// workers validate their copies concurrently. A list already in
	// canonical form is kept, so validating it again allocates nothing.
	canon, fresh := tr.QPTransport, false
	allBase := true
	for i, raw := range tr.QPTransport {
		name := strings.ToLower(raw)
		if name == "" {
			name = base // empty entries inherit the traffic-wide choice
		}
		if _, err := rnic.ParseTransport(name); err != nil {
			return fmt.Errorf("config: qp-transport[%d]: %w", i, err)
		}
		if name != raw {
			if !fresh {
				canon, fresh = slices.Clone(canon), true
			}
			canon[i] = name
		}
		if name != base {
			allBase = false
		}
	}
	tr.QPTransport = canon
	if allBase {
		tr.QPTransport = nil
	}
	if tr.Transport == "rc" {
		tr.Transport = ""
	}
	// Connections past the qp-transport list all take the base transport,
	// so the first of them speaks for the rest: the check costs no more
	// for num-connections 10^15 than for 2.
	for i := 0; i < min(tr.NumConnections, len(tr.QPTransport)+1); i++ {
		tp, _ := rnic.ParseTransport(tr.TransportOf(i)) // checked above
		for rest := tr.Verb; rest != ""; {
			var name string
			name, rest, _ = strings.Cut(rest, "+")
			if v, _ := rnic.ParseVerb(name); !tp.Supports(v) {
				return fmt.Errorf("config: connection %d is %s, which carries only %s (got %q)",
					i+1, strings.ToUpper(tp.String()), carried(tp), tr.Verb)
			}
		}
		if tp.SinglePacket() && tr.MessageSize > tr.MTU {
			return fmt.Errorf("config: connection %d is %s: message-size %d exceeds the %d-byte MTU (datagrams are single-packet)",
				i+1, strings.ToUpper(tp.String()), tr.MessageSize, tr.MTU)
		}
	}
	return nil
}

// carried names the rdma-verb values transport tp carries, for errors.
func carried(tp rnic.Transport) string {
	var names []string
	for _, v := range []rnic.Verb{rnic.VerbSend, rnic.VerbWrite, rnic.VerbRead} {
		if tp.Supports(v) {
			names = append(names, v.String())
		}
	}
	if len(names) == 1 {
		return "rdma-verb " + names[0]
	}
	return strings.Join(names, " or ")
}
