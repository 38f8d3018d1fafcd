// Package config defines Lumina's typed test configuration — the schema
// of the paper's Listings 1 (host / roce-parameters) and 2 (traffic /
// data-pkt-events) — plus the simulation-substrate sections (switch and
// traffic-dumper pool) that stand in for hardware choices, and loading
// from the yamlite format.
package config

import (
	"fmt"
	"math"
	"net/netip"
	"os"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/yamlite"
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
	Leaves       int `json:"leaves"`
	HostsPerLeaf int `json:"hosts-per-leaf"`
	// UplinkGbps is the leaf↔spine trunk rate (the incast bottleneck
	// shifts to the receiver's leaf downlink when this exceeds the host
	// line rate).
	UplinkGbps float64 `json:"uplink-gbps"`
	// Pattern names the traffic pattern; only "incast" (every other
	// host sends to host 0) is defined.
	Pattern string `json:"pattern"`
}

// Hosts returns the total host count.
func (f FabricTopo) Hosts() int { return f.Leaves * f.HostsPerLeaf }

// Host mirrors Listing 1: the NIC under test and its RoCE parameters.
type Host struct {
	Workspace string `json:"workspace,omitempty"`
	ControlIP string `json:"control-ip,omitempty"`
	NIC       NIC    `json:"nic"`
	RoCE      RoCE   `json:"roce-parameters"`
	// ETS queues configured on this host's NIC (§6.2.1 experiments).
	// Empty means a single default queue.
	ETS []ETSQueue `json:"ets-queues,omitempty"`
}

// NIC selects and places the hardware under test.
type NIC struct {
	Type       string       `json:"type"` // cx4 | cx5 | cx6 | e810 | spec
	IfName     string       `json:"if-name,omitempty"`
	SwitchPort int          `json:"switch-port,omitempty"`
	IPList     []netip.Addr `json:"ip-list"`
}

// RoCE mirrors Listing 1's roce-parameters block.
type RoCE struct {
	DCQCNRPEnable      bool `json:"dcqcn-rp-enable"`
	DCQCNNPEnable      bool `json:"dcqcn-np-enable"`
	MinTimeBetweenCNPs int  `json:"min-time-between-cnps"` // µs; -1 = hardware default
	AdaptiveRetrans    bool `json:"adaptive-retrans"`
	SlowRestart        bool `json:"slow-restart"`
}

// ETSQueue is one scheduler queue.
type ETSQueue struct {
	Strict bool `json:"strict,omitempty"`
	Weight int  `json:"weight,omitempty"`
}

// Traffic mirrors Listing 2.
type Traffic struct {
	NumConnections       int    `json:"num-connections"`
	Verb                 string `json:"rdma-verb"` // send | write | read
	NumMsgsPerQP         int    `json:"num-msgs-per-qp"`
	MTU                  int    `json:"mtu"`
	MessageSize          int    `json:"message-size"`
	MultiGID             bool   `json:"multi-gid"`
	BarrierSync          bool   `json:"barrier-sync"`
	TxDepth              int    `json:"tx-depth"`
	MinRetransmitTimeout int    `json:"min-retransmit-timeout"` // IB timeout exponent
	MaxRetransmitRetry   int    `json:"max-retransmit-retry"`
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
	QPN   int    `json:"qpn"`
	PSN   int    `json:"psn"`
	Iter  int    `json:"iter"`
	Type  string `json:"type"` // ecn | drop | corrupt | set-migreq | delay | reorder
	Every int    `json:"every,omitempty"`
	// DelayUs is the added forwarding delay for delay events, in µs.
	DelayUs int `json:"delay-us,omitempty"`
	// Offset is how many later packets a reorder event slips behind
	// (default 1: swap with the next packet).
	Offset int `json:"offset,omitempty"`
}

// Switch configures the event injector substrate (§5): the measured
// Tofino pipeline adds <0.4 µs latency; mirroring and injection can be
// disabled to reproduce the Lumina-nm / Lumina-ne / l2-forward baselines
// of Figure 7.
type Switch struct {
	PipelineLatencyNs int  `json:"pipeline-latency-ns"`
	Mirror            bool `json:"mirror"`
	Inject            bool `json:"inject"`
	// L2Only bypasses the whole Lumina pipeline (match-action tables,
	// counters, ITER tracking): the plain L2-forwarding baseline.
	L2Only bool `json:"l2-only,omitempty"`
}

// DumperPool configures the traffic-dumper substrate (§3.4).
type DumperPool struct {
	Nodes        int `json:"nodes"`
	CoresPerNode int `json:"cores-per-node"`
	// PerCoreGbps is each core's sustained packet-processing rate.
	PerCoreGbps float64 `json:"per-core-gbps"`
	// NodeGbps is each node's NIC line rate.
	NodeGbps float64 `json:"node-gbps"`
	// Weights for the injector's weighted round-robin spraying; empty
	// means equal weights.
	Weights []int `json:"weights,omitempty"`
	// TrimBytes: packets are truncated to this many bytes before
	// buffering (the first 128 bytes hold all headers, §5).
	TrimBytes int `json:"trim-bytes"`
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
func Default() Test {
	host := func(ipStr string) Host {
		return Host{
			NIC: NIC{Type: "spec", IPList: []netip.Addr{netip.MustParseAddr(ipStr)}},
			RoCE: RoCE{
				DCQCNRPEnable: true, DCQCNNPEnable: true,
				MinTimeBetweenCNPs: -1, SlowRestart: true,
			},
		}
	}
	return Test{
		Name:      "default",
		Seed:      1,
		Requester: host("10.0.0.1"),
		Responder: host("10.0.0.2"),
		Traffic: Traffic{
			NumConnections: 1, Verb: "write", NumMsgsPerQP: 1,
			MTU: 1024, MessageSize: 10240, TxDepth: 1,
			MinRetransmitTimeout: 14, MaxRetransmitRetry: 7,
		},
		Switch: Switch{PipelineLatencyNs: 400, Mirror: true, Inject: true},
		Dumpers: DumperPool{
			Nodes: 4, CoresPerNode: 8, PerCoreGbps: 5, NodeGbps: 100,
			TrimBytes: 128, RSSPortRewrite: true, PerPacketLB: true,
		},
	}
}

// Validate checks internal consistency and fills defaulted fields.
func (t *Test) Validate() error {
	if t.Seed == 0 {
		t.Seed = 1
	}
	for _, h := range []*Host{&t.Requester, &t.Responder} {
		if h.NIC.Type == "" {
			h.NIC.Type = "spec"
		}
		if len(h.NIC.IPList) == 0 {
			return fmt.Errorf("config: host %q needs at least one IP", h.ControlIP)
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
	if tr.NumConnections <= 0 {
		return fmt.Errorf("config: num-connections must be positive")
	}
	if tr.MTU <= 0 {
		tr.MTU = 1024
	}
	if tr.MessageSize <= 0 {
		return fmt.Errorf("config: message-size must be positive")
	}
	if tr.NumMsgsPerQP <= 0 {
		tr.NumMsgsPerQP = 1
	}
	if tr.TxDepth <= 0 {
		tr.TxDepth = 1
	}
	if tr.MinRetransmitTimeout <= 0 {
		tr.MinRetransmitTimeout = 14
	}
	if tr.MinRetransmitTimeout > 31 {
		// IB's Local ACK Timeout is a 5-bit exponent; past 50 the
		// 4.096 µs << exp retransmission timer overflows to a negative
		// delay inside the run.
		return fmt.Errorf("config: min-retransmit-timeout %d exceeds the 5-bit exponent's maximum of 31", tr.MinRetransmitTimeout)
	}
	if tr.MaxRetransmitRetry <= 0 {
		tr.MaxRetransmitRetry = 7
	}
	switch tr.Verb {
	case "send", "write", "read":
	case "send+read", "write+read":
		// Verb combinations generate bi-directional data traffic (§3.2).
		// Event intents are direction-ambiguous there, so they are only
		// valid with a single verb.
		if len(tr.Events) > 0 {
			return fmt.Errorf("config: data-pkt-events require a single rdma-verb, not %q", tr.Verb)
		}
	case "":
		tr.Verb = "write"
	default:
		return fmt.Errorf("config: unknown rdma-verb %q", tr.Verb)
	}
	if err := tr.validateTransports(); err != nil {
		return err
	}
	for i, tc := range tr.QPTrafficClass {
		nq := len(t.Requester.ETS)
		if nq == 0 {
			nq = 1
		}
		if tc < 0 || tc >= nq {
			return fmt.Errorf("config: qp-traffic-class[%d] = %d out of range (%d queues)", i, tc, nq)
		}
	}
	for i, ev := range tr.Events {
		if ev.QPN < 1 || ev.QPN > tr.NumConnections {
			return fmt.Errorf("config: event %d: qpn %d out of range 1..%d", i, ev.QPN, tr.NumConnections)
		}
		if ev.PSN < 1 {
			return fmt.Errorf("config: event %d: psn must be >= 1 (1-based packet index)", i)
		}
		if ev.Iter < 1 {
			tr.Events[i].Iter = 1
		}
		switch ev.Type {
		case "ecn", "drop", "corrupt", "set-migreq":
		case "delay":
			if ev.DelayUs <= 0 {
				return fmt.Errorf("config: event %d: delay events need delay-us > 0", i)
			}
		case "reorder":
			if ev.Offset < 0 {
				return fmt.Errorf("config: event %d: negative reorder offset", i)
			}
			if ev.Offset == 0 {
				tr.Events[i].Offset = 1
			}
		default:
			return fmt.Errorf("config: event %d: unknown type %q", i, ev.Type)
		}
		if ev.Every < 0 {
			return fmt.Errorf("config: event %d: negative every", i)
		}
	}
	sw := &t.Switch
	if sw.PipelineLatencyNs <= 0 {
		sw.PipelineLatencyNs = 400
	}
	d := &t.Dumpers
	if d.Nodes <= 0 {
		d.Nodes = 4
	}
	if d.CoresPerNode <= 0 {
		d.CoresPerNode = 8
	}
	if err := defaultRate("per-core-gbps", &d.PerCoreGbps, 5); err != nil {
		return err
	}
	if err := defaultRate("node-gbps", &d.NodeGbps, 100); err != nil {
		return err
	}
	if d.TrimBytes <= 0 {
		d.TrimBytes = 128
	}
	if len(d.Weights) != 0 && len(d.Weights) != d.Nodes {
		return fmt.Errorf("config: %d dumper weights for %d nodes", len(d.Weights), d.Nodes)
	}
	for i, w := range d.Weights {
		if w <= 0 {
			return fmt.Errorf("config: dumper weight %d must be positive", i)
		}
	}
	if f := t.Fabric; f != nil {
		if f.Leaves <= 0 {
			f.Leaves = 2
		}
		if f.HostsPerLeaf <= 0 {
			f.HostsPerLeaf = 8
		}
		if err := defaultRate("uplink-gbps", &f.UplinkGbps, 400); err != nil {
			return err
		}
		if f.Pattern == "" {
			f.Pattern = "incast"
		}
		if f.Pattern != "incast" {
			return fmt.Errorf("config: unknown fabric pattern %q", f.Pattern)
		}
		if f.Hosts() < 2 {
			return fmt.Errorf("config: fabric needs at least 2 hosts, got %d", f.Hosts())
		}
		if len(tr.Events) > 0 {
			return fmt.Errorf("config: data-pkt-events are pair-testbed only; not valid with a fabric")
		}
	}
	return nil
}

// defaultRate fills in a non-positive line rate and refuses one that is
// not a finite number: yamlite reads "NaN" and "Inf" as floats, a NaN
// passes every <= 0 guard downstream, and the serialization time it
// yields lies in the distant past — a scheduling panic inside the run.
func defaultRate(key string, gbps *float64, def float64) error {
	if math.IsNaN(*gbps) || math.IsInf(*gbps, 0) {
		return fmt.Errorf("config: %s must be a finite rate in Gbps, got %v", key, *gbps)
	}
	if *gbps <= 0 {
		*gbps = def
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
func (tr Traffic) PacketsPerMessage() int {
	return (tr.MessageSize + tr.MTU - 1) / tr.MTU
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
	if tr.Transport != "" {
		return tr.Transport
	}
	return "rc"
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
	base := tr.Transport
	if base == "" {
		base = "rc"
	}
	// Canonical names go into a fresh slice, never back into the backing
	// array: by-value copies of one config.Test share it, and engine
	// workers validate their copies concurrently.
	canon := make([]string, len(tr.QPTransport))
	allBase := true
	for i, raw := range tr.QPTransport {
		name := strings.ToLower(raw)
		if name == "" {
			name = base // empty entries inherit the traffic-wide choice
		}
		if _, err := rnic.ParseTransport(name); err != nil {
			return fmt.Errorf("config: qp-transport[%d]: %w", i, err)
		}
		canon[i] = name
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
	for i := 0; i < tr.NumConnections; i++ {
		switch tr.TransportOf(i) {
		case "ud":
			if tr.Verb != "send" {
				return fmt.Errorf("config: connection %d is UD, which carries only rdma-verb send (got %q)", i+1, tr.Verb)
			}
			if tr.MessageSize > tr.MTU {
				return fmt.Errorf("config: connection %d is UD: message-size %d exceeds the %d-byte MTU (datagrams are single-packet)", i+1, tr.MessageSize, tr.MTU)
			}
		case "uc":
			if tr.Verb != "send" && tr.Verb != "write" {
				return fmt.Errorf("config: connection %d is UC, which carries only send or write (got %q)", i+1, tr.Verb)
			}
		}
	}
	return nil
}

// Load reads a yamlite test configuration from a file.
func Load(path string) (Test, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Test{}, err
	}
	return Parse(data)
}

// Parse decodes a yamlite test configuration. Missing sections inherit
// Default() values.
func Parse(data []byte) (Test, error) {
	root, err := yamlite.ParseMap(data)
	if err != nil {
		return Test{}, err
	}
	t := Default()
	w := yamlite.Wrap(root)

	t.Name = w.Str("name", t.Name)
	t.Seed = w.Int64("seed", t.Seed)

	if w.Has("requester") {
		parseHost(w.Child("requester"), &t.Requester)
	}
	if w.Has("responder") {
		parseHost(w.Child("responder"), &t.Responder)
	}
	if w.Has("traffic") {
		parseTraffic(w.Child("traffic"), &t.Traffic)
	}
	if w.Has("switch") {
		s := w.Child("switch")
		t.Switch.PipelineLatencyNs = s.Int("pipeline-latency-ns", t.Switch.PipelineLatencyNs)
		t.Switch.Mirror = s.Bool("mirror", t.Switch.Mirror)
		t.Switch.Inject = s.Bool("inject", t.Switch.Inject)
		t.Switch.L2Only = s.Bool("l2-only", t.Switch.L2Only)
	}
	if w.Has("dumper-pool") {
		d := w.Child("dumper-pool")
		t.Dumpers.Nodes = d.Int("nodes", t.Dumpers.Nodes)
		t.Dumpers.CoresPerNode = d.Int("cores-per-node", t.Dumpers.CoresPerNode)
		t.Dumpers.PerCoreGbps = d.Float("per-core-gbps", t.Dumpers.PerCoreGbps)
		t.Dumpers.NodeGbps = d.Float("node-gbps", t.Dumpers.NodeGbps)
		t.Dumpers.TrimBytes = d.Int("trim-bytes", t.Dumpers.TrimBytes)
		t.Dumpers.RSSPortRewrite = d.Bool("rss-port-rewrite", t.Dumpers.RSSPortRewrite)
		t.Dumpers.PerPacketLB = d.Bool("per-packet-lb", t.Dumpers.PerPacketLB)
		for _, v := range d.StrList("weights") {
			var x int
			if _, err := fmt.Sscanf(v, "%d", &x); err != nil {
				return Test{}, fmt.Errorf("config: bad dumper weight %q", v)
			}
			t.Dumpers.Weights = append(t.Dumpers.Weights, x)
		}
	}
	if w.Has("fabric") {
		f := w.Child("fabric")
		t.Fabric = &FabricTopo{
			Leaves:       f.Int("leaves", 0),
			HostsPerLeaf: f.Int("hosts-per-leaf", 0),
			UplinkGbps:   f.Float("uplink-gbps", 0),
			Pattern:      f.Str("pattern", ""),
		}
	}
	if err := w.Err(); err != nil {
		return Test{}, err
	}
	if err := t.Validate(); err != nil {
		return Test{}, err
	}
	return t, nil
}

func parseHost(h yamlite.Map, out *Host) {
	out.Workspace = h.Str("workspace", out.Workspace)
	out.ControlIP = h.Str("control-ip", out.ControlIP)
	if h.Has("nic") {
		n := h.Child("nic")
		out.NIC.Type = n.Str("type", out.NIC.Type)
		out.NIC.IfName = n.Str("if-name", out.NIC.IfName)
		out.NIC.SwitchPort = n.Int("switch-port", out.NIC.SwitchPort)
		if ips := n.StrList("ip-list"); len(ips) > 0 {
			out.NIC.IPList = nil
			for _, s := range ips {
				// Accept both bare addresses and CIDR notation.
				s = strings.SplitN(s, "/", 2)[0]
				if a, err := netip.ParseAddr(s); err == nil {
					out.NIC.IPList = append(out.NIC.IPList, a)
				}
			}
		}
	}
	if h.Has("roce-parameters") {
		r := h.Child("roce-parameters")
		out.RoCE.DCQCNRPEnable = r.Bool("dcqcn-rp-enable", out.RoCE.DCQCNRPEnable)
		out.RoCE.DCQCNNPEnable = r.Bool("dcqcn-np-enable", out.RoCE.DCQCNNPEnable)
		out.RoCE.MinTimeBetweenCNPs = r.Int("min-time-between-cnps", out.RoCE.MinTimeBetweenCNPs)
		out.RoCE.AdaptiveRetrans = r.Bool("adaptive-retrans", out.RoCE.AdaptiveRetrans)
		out.RoCE.SlowRestart = r.Bool("slow-restart", out.RoCE.SlowRestart)
	}
	if h.Has("ets-queues") {
		out.ETS = nil
		for _, q := range h.MapList("ets-queues") {
			out.ETS = append(out.ETS, ETSQueue{
				Strict: q.Bool("strict", false),
				Weight: q.Int("weight", 0),
			})
		}
	}
}

func parseTraffic(tr yamlite.Map, out *Traffic) {
	out.NumConnections = tr.Int("num-connections", out.NumConnections)
	out.Verb = tr.Str("rdma-verb", out.Verb)
	out.NumMsgsPerQP = tr.Int("num-msgs-per-qp", out.NumMsgsPerQP)
	out.MTU = tr.Int("mtu", out.MTU)
	out.MessageSize = tr.Int("message-size", out.MessageSize)
	out.MultiGID = tr.Bool("multi-gid", out.MultiGID)
	out.BarrierSync = tr.Bool("barrier-sync", out.BarrierSync)
	out.TxDepth = tr.Int("tx-depth", out.TxDepth)
	out.MinRetransmitTimeout = tr.Int("min-retransmit-timeout", out.MinRetransmitTimeout)
	out.MaxRetransmitRetry = tr.Int("max-retransmit-retry", out.MaxRetransmitRetry)
	if tr.Has("qp-traffic-class") {
		out.QPTrafficClass = nil
		for _, v := range tr.StrList("qp-traffic-class") {
			var x int
			fmt.Sscanf(v, "%d", &x)
			out.QPTrafficClass = append(out.QPTrafficClass, x)
		}
	}
	out.Transport = tr.Str("transport", out.Transport)
	if tr.Has("qp-transport") {
		out.QPTransport = tr.StrList("qp-transport")
	}
	if tr.Has("data-pkt-events") {
		out.Events = nil
		for _, e := range tr.MapList("data-pkt-events") {
			out.Events = append(out.Events, Event{
				QPN:     e.Int("qpn", 0),
				PSN:     e.Int("psn", 0),
				Iter:    e.Int("iter", 1),
				Type:    e.Str("type", ""),
				Every:   e.Int("every", 0),
				DelayUs: e.Int("delay-us", 0),
				Offset:  e.Int("offset", 0),
			})
		}
	}
}
