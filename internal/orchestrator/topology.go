// The testbed as data. Lumina's testbed is one shape (§3.1, Figure 1):
// hosts under test, an injector switch that mirrors, a dumper pool. A
// topology value describes one instance of it — which hosts, which
// switches, how they are linked, which ports stamp INT, who sends to
// whom — and build turns any such value into a Testbed on one
// sim.Simulator, creating every component in the order the description
// lists it. That order is load-bearing: it fixes the RNG fork sequence,
// the port order and the INT hop IDs, and with them every artifact
// byte.
//
// Two functions produce descriptions: pairTopology (the paper's two
// hosts around one injector switch) and fabricTopology (a leaf-spine
// incast fabric); topologyOf picks one for Build.
package orchestrator

import (
	"fmt"
	"net/netip"
	"slices"

	"github.com/lumina-sim/lumina/internal/analyzer"
	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/dumper"
	"github.com/lumina-sim/lumina/internal/inband"
	"github.com/lumina-sim/lumina/internal/injector"
	"github.com/lumina-sim/lumina/internal/packet"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// linkProp is the propagation delay of every testbed link (100 ns).
const linkProp = 100

// topology is the description build consumes.
type topology struct {
	hosts    []hostSpec
	switches []config.Switch
	// injector indexes the switch that runs the Lumina pipeline
	// (mirroring, event injection, ITER tracking); build hangs the dumper
	// pool off it.
	injector int

	// links in creation order, host i's link first as link i. Link i's
	// two ports are ports 2i (the a end) and 2i+1 (the b end) of
	// Testbed.Ports; the dumper pool's ports follow them.
	links []linkSpec
	// hops lists, in hop-ID order, the ports whose egress stamps INT;
	// the injector's pipeline hop always follows them.
	hops  []hopSpec
	flows []flowSpec
}

type hostSpec struct {
	name string
	mac  packet.MAC
	// tmpl is the host template (NIC model, RoCE and ETS settings) with
	// this host's addresses filled in. responder marks hosts built from
	// the scenario's Responder template — the traffic sinks, whose
	// counters the report folds separately from the senders'.
	tmpl      config.Host
	responder bool
}

type nodeKind uint8

const (
	hostNode nodeKind = iota
	switchNode
)

// end is one side of a link: the component it attaches to and the name
// of the port created there.
type end struct {
	kind nodeKind
	idx  int
	port string
}

// linkSpec is one full-duplex link. b is always a switch; a is what
// hangs off it — a host, or a lower-tier switch (a trunk).
type linkSpec struct {
	a, b end
	// gbps is the line rate; 0 means the rate of the host NIC at a.
	gbps float64
}

type hopSpec struct {
	port   int  // index into Testbed.Ports
	origin bool // originates transits (a host NIC) rather than relaying
}

// flowSpec is one traffic generator: sender and receiver index hosts.
type flowSpec struct {
	sender, receiver int
	label            string // telemetry track label; "" for a lone flow
}

// pairTopology describes the classic testbed: requester and responder
// around one injector switch.
func pairTopology(cfg config.Test) topology {
	return topology{
		hosts: []hostSpec{
			{name: "requester", mac: packet.MAC{2, 0, 0, 0, 0, 1}, tmpl: cfg.Requester},
			{name: "responder", mac: packet.MAC{2, 0, 0, 0, 0, 2}, tmpl: cfg.Responder, responder: true},
		},
		switches: []config.Switch{cfg.Switch},
		links: []linkSpec{
			{a: end{hostNode, 0, "req-nic"}, b: end{switchNode, 0, "sw-req"}},
			{a: end{hostNode, 1, "resp-nic"}, b: end{switchNode, 0, "sw-resp"}},
		},
		// NIC egress ports originate transits, then the switch's
		// host-facing egress ports append their view.
		hops:  []hopSpec{{0, true}, {2, true}, {1, false}, {3, false}},
		flows: []flowSpec{{sender: 0, receiver: 1}},
	}
}

// fabricTopology describes a leaf-spine fabric: plain L2 leaves under
// one spine that carries the injector pipeline and the dumper pool.
// Host 0 is the traffic sink (Responder template); every other host (Requester
// template) runs one flow toward it.
func fabricTopology(cfg config.Test) topology {
	ft := cfg.Fabric
	hosts, spine := ft.Hosts(), ft.Leaves
	t := topology{injector: spine}
	for i := 0; i < hosts; i++ {
		// Addresses sit outside the pair testbed's 2:0:0:0:0:x space.
		h := hostSpec{
			name: fmt.Sprintf("host-%d", i),
			mac:  packet.MAC{2, 0, 0, 1, byte(i >> 8), byte(i)},
			tmpl: cfg.Requester,
		}
		if i == 0 {
			h.tmpl, h.responder = cfg.Responder, true
		} else {
			t.flows = append(t.flows, flowSpec{sender: i, receiver: 0, label: fmt.Sprintf("h%d", i)})
		}
		h.tmpl.NIC.IPList = []netip.Addr{netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(i%250 + 1)})}
		t.hosts = append(t.hosts, h)

		l := i / ft.HostsPerLeaf
		t.hops = append(t.hops, hopSpec{port: 2 * len(t.links), origin: true})
		t.links = append(t.links, linkSpec{
			a: end{hostNode, i, h.name},
			b: end{switchNode, l, fmt.Sprintf("leaf-%d-p%d", l, i%ft.HostsPerLeaf)},
		})
	}
	leafCfg := config.Switch{PipelineLatencyNs: cfg.Switch.PipelineLatencyNs, L2Only: true}
	for l := 0; l < ft.Leaves; l++ {
		t.switches = append(t.switches, leafCfg)
		// Both trunk ends relay transits; a leaf's host-facing egress
		// does not stamp.
		t.hops = append(t.hops, hopSpec{port: 2 * len(t.links)}, hopSpec{port: 2*len(t.links) + 1})
		t.links = append(t.links, linkSpec{
			a:    end{switchNode, l, fmt.Sprintf("leaf-%d-up", l)},
			b:    end{switchNode, spine, fmt.Sprintf("spine-p%d", l)},
			gbps: ft.UplinkGbps,
		})
	}
	t.switches = append(t.switches, cfg.Switch)
	return t
}

// topologyOf describes the testbed cfg asks for.
func topologyOf(cfg config.Test) topology {
	if cfg.Fabric != nil {
		return fabricTopology(cfg)
	}
	return pairTopology(cfg)
}

// hostViews gives the counter analyzer (§6.2.4) each side of the run
// the trace can judge: the requester side (the senders), then the
// responder side (the sinks), each with its hosts' addresses and the
// side's summed counters. It names the sides it leaves out: those the
// trace cannot account for, because one of their flows never crosses a
// mirroring injector (on a fabric, one sender on the sink's leaf does
// that to both sides) or they share an address with the other side.
func (tb *Testbed) hostViews(rep *Report) (views []analyzer.HostView, unjudged []string) {
	t := &tb.topo
	// Below the injector sit only plain switches trunked straight up to
	// it, so a flow crosses the injector unless both its ends hang off
	// the same plain switch (host i hangs off link i).
	skip := map[bool]bool{} // by hostSpec.responder
	for _, f := range t.flows {
		if a := t.links[f.sender].b.idx; !t.switches[t.injector].Mirror || (a != t.injector && a == t.links[f.receiver].b.idx) {
			skip[t.hosts[f.sender].responder] = true
			skip[t.hosts[f.receiver].responder] = true
		}
	}
	sides := [2]analyzer.HostView{
		{Name: "requester", Counters: rep.RequesterCounters},
		{Name: "responder", Counters: rep.ResponderCounters},
	}
	if !skip[false] || !skip[true] {
		for _, h := range t.hosts {
			v := &sides[0]
			if h.responder {
				v = &sides[1]
			}
			v.IPs = append(v.IPs, h.tmpl.NIC.IPList...)
		}
		// Nor can the trace tell two sides apart that share an address.
		if slices.ContainsFunc(sides[0].IPs, func(ip netip.Addr) bool { return slices.Contains(sides[1].IPs, ip) }) {
			skip[false], skip[true] = true, true
		}
	}
	for i, v := range sides {
		if skip[i == 1] {
			unjudged = append(unjudged, v.Name)
		} else {
			views = append(views, v)
		}
	}
	return views, unjudged
}

// checkHops reports whether the INT hop table can hold the description:
// an origin hop's ID rides in the 6 high bits of the on-wire tag, and
// the table itself is one byte wide. inband.RegisterHop panics on
// either; a scenario must not be able to reach that.
func (t *topology) checkHops() error {
	for i, h := range t.hops {
		if h.origin && i >= inband.MaxOriginHops {
			return fmt.Errorf("orchestrator: INT tags can name %d originating hosts; this topology has %d", inband.MaxOriginHops, len(t.hosts))
		}
	}
	if n := len(t.hops) + 1; n > inband.MaxHops { // +1: the injector pipeline
		return fmt.Errorf("orchestrator: the INT hop table holds %d hops; this topology needs %d", inband.MaxHops, n)
	}
	return nil
}

// build assembles the testbed the description lists on one event loop.
func (t *topology) build(cfg config.Test, opts Options) (*Testbed, error) {
	s := sim.New(cfg.Seed)
	tb := &Testbed{Cfg: cfg, Opts: opts, Sim: s, topo: *t}
	tb.obs.attach(s, opts)

	// Hosts, then switches: the order components fork the RNG.
	for _, h := range t.hosts {
		nic, err := buildNIC(s, h)
		if err != nil {
			return nil, err
		}
		tb.Hosts = append(tb.Hosts, nic)
	}
	switches := make([]*injector.Switch, len(t.switches))
	for i, sc := range t.switches {
		switches[i] = injector.New(s, sc)
	}
	sw := switches[t.injector]
	sw.NoRSSRewrite = !cfg.Dumpers.RSSPortRewrite
	sw.ByIngressMirror = !cfg.Dumpers.PerPacketLB
	tb.Switch = sw

	tb.Ports = make([]*sim.Port, 0, 2*(len(t.links)+cfg.Dumpers.Nodes))
	for _, l := range t.links {
		gbps := l.gbps
		if gbps == 0 {
			gbps = tb.Hosts[l.a.idx].Prof.LinkGbps
		}
		pa, pb := sim.Connect(s, l.a.port, l.b.port, gbps, linkProp)
		tb.Ports = append(tb.Ports, pa, pb)
		up := switches[l.b.idx]
		switch l.a.kind {
		case hostNode:
			nic := tb.Hosts[l.a.idx]
			nic.AttachPort(pa)
			up.AttachHost(pb, nic.MAC)
		case switchNode:
			// The lower switch default-routes unknown unicast up the
			// trunk; the upper one routes the lower's hosts down it.
			down := switches[l.a.idx]
			down.SetDefaultPort(down.AttachTrunk(pa, nil))
			var below []packet.MAC
			for _, hl := range t.links {
				if hl.a.kind == hostNode && hl.b.idx == l.a.idx {
					below = append(below, tb.Hosts[hl.a.idx].MAC)
				}
			}
			up.AttachTrunk(pb, below)
		}
	}

	// The dumper pool hangs off the injector. By-ingress mirroring uses
	// only two nodes, one per traffic direction.
	dumpers := cfg.Dumpers.Nodes
	if !cfg.Dumpers.PerPacketLB && dumpers > 2 {
		dumpers = 2
	}
	tb.Pool = dumper.NewPool(s, dumpers, dumper.Config{
		Cores:       cfg.Dumpers.CoresPerNode,
		PerCoreGbps: cfg.Dumpers.PerCoreGbps,
		TrimBytes:   cfg.Dumpers.TrimBytes,
	})
	for i, node := range tb.Pool.Nodes {
		np, sp := sim.Connect(s, fmt.Sprintf("dumper-%d", i), fmt.Sprintf("sw-dump-%d", i), cfg.Dumpers.NodeGbps, linkProp)
		tb.Ports = append(tb.Ports, np, sp)
		node.AttachPort(np)
		w := 1
		if i < len(cfg.Dumpers.Weights) {
			w = cfg.Dumpers.Weights[i]
		}
		sw.AttachDumper(sp, w)
	}

	// INT hops register in description order. The injector's pipeline hop
	// binds transit IDs to mirror sequence numbers. Dumper-facing ports
	// never stamp: mirror copies must reach the trace with their bytes
	// untouched.
	if opts.INT {
		if err := t.checkHops(); err != nil {
			return nil, err
		}
		for _, h := range t.hops {
			tb.obs.col.AttachPort(tb.Ports[h.port], h.origin)
		}
		sw.EnableINT(tb.obs.col)
	}

	metas := make([]injector.ConnMeta, 0, len(t.flows)*cfg.Traffic.NumConnections)
	for _, fl := range t.flows {
		p, err := traffic.NewPair(s, tb.Hosts[fl.sender], tb.Hosts[fl.receiver], cfg.Traffic, fl.label)
		if err != nil {
			return nil, err
		}
		tb.Flows = append(tb.Flows, p)
		metas = append(metas, p.ConnMetas()...)
	}

	// Control-plane phase (§3.3): the requesters share runtime metadata
	// with the injector, which combines it with the configured intents
	// to populate the match-action table — before traffic starts.
	sw.AddConnections(metas)
	if cfg.Switch.Inject {
		rules, err := injector.TranslateIntents(cfg.Traffic.Events, cfg.Traffic.Verb, metas, cfg.Traffic.PacketsPerQP())
		if err != nil {
			return nil, err
		}
		for _, r := range rules {
			sw.InstallRule(r)
		}
	}
	return tb, nil
}

func buildNIC(s *sim.Simulator, h hostSpec) (*rnic.NIC, error) {
	prof, err := rnic.ProfileByName(h.tmpl.NIC.Type)
	if err != nil {
		return nil, err
	}
	// The scenario's overrides are the one way to run a model with a
	// mechanism flipped.
	if o := h.tmpl.NIC.Profile; o != nil {
		if o.NoETSClamp {
			prof.ETSNonWorkConserving = false
		}
		if o.NoSlowPathWedge {
			prof.SlowPathContexts = 0
		}
		if o.NoStrictAPM {
			prof.StrictAPM = false
		}
		if o.AckCoalesce > 0 {
			prof.AckCoalesce = o.AckCoalesce
		}
	}
	roce := h.tmpl.RoCE
	set := rnic.Settings{
		DCQCNRPEnable:      roce.DCQCNRPEnable,
		DCQCNNPEnable:      roce.DCQCNNPEnable,
		MinTimeBetweenCNPs: roce.MinCNPInterval(),
		AdaptiveRetrans:    roce.AdaptiveRetrans,
	}
	var ets rnic.ETSConfig
	for _, q := range h.tmpl.ETS {
		ets.Queues = append(ets.Queues, rnic.ETSQueueConfig{Strict: q.Strict, Weight: q.Weight})
	}
	for _, ip := range h.tmpl.NIC.IPList {
		if !ip.Is4() {
			// The wire format (internal/packet) is RoCEv2 over IPv4.
			return nil, fmt.Errorf("orchestrator: %s: %v is not an IPv4 address", h.name, ip)
		}
	}
	return rnic.New(s, prof, rnic.Config{
		Name: h.name, MAC: h.mac, IPs: h.tmpl.NIC.IPList, ETS: ets, Set: set,
	}), nil
}
