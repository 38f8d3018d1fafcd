package orchestrator

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/inband"
)

// describe flattens the ordered lists of a description that fix artifact
// bytes: NICs (RNG fork order), ports (creation order) and INT hops (hop
// IDs).
func describe(t *topology) (nics, ports, hops []string) {
	for _, h := range t.hosts {
		nics = append(nics, fmt.Sprintf("%s %x", h.name, h.mac[:]))
	}
	for _, l := range t.links {
		ports = append(ports, l.a.port, l.b.port)
	}
	for id, h := range t.hops {
		hops = append(hops, fmt.Sprintf("%d %s origin=%v", id, ports[h.port], h.origin))
	}
	return nics, ports, hops
}

// TestTopologyDescriptionsArePinned pins what the two topology
// functions emit, in order. They are the single source build consumes,
// and a reordering here is a change of every artifact.
func TestTopologyDescriptionsArePinned(t *testing.T) {
	leafSpine := config.Default()
	leafSpine.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 2, UplinkGbps: 400, Pattern: "incast"}

	cases := []struct {
		name              string
		topo              topology
		nics, ports, hops []string
		flows             []flowSpec
	}{
		{
			name: "pair", topo: pairTopology(config.Default()),
			nics:  []string{"requester 020000000001", "responder 020000000002"},
			ports: []string{"req-nic", "sw-req", "resp-nic", "sw-resp"},
			hops:  []string{"0 req-nic origin=true", "1 resp-nic origin=true", "2 sw-req origin=false", "3 sw-resp origin=false"},
			flows: []flowSpec{{sender: 0, receiver: 1}},
		},
		{
			name: "2x2 leaf-spine", topo: fabricTopology(leafSpine),
			nics: []string{"host-0 020000010000", "host-1 020000010001", "host-2 020000010002", "host-3 020000010003"},
			ports: []string{
				"host-0", "leaf-0-p0", "host-1", "leaf-0-p1",
				"host-2", "leaf-1-p0", "host-3", "leaf-1-p1",
				"leaf-0-up", "spine-p0", "leaf-1-up", "spine-p1",
			},
			hops: []string{
				"0 host-0 origin=true", "1 host-1 origin=true", "2 host-2 origin=true", "3 host-3 origin=true",
				"4 leaf-0-up origin=false", "5 spine-p0 origin=false", "6 leaf-1-up origin=false", "7 spine-p1 origin=false",
			},
			flows: []flowSpec{{1, 0, "h1"}, {2, 0, "h2"}, {3, 0, "h3"}},
		},
	}
	for _, c := range cases {
		nics, ports, hops := describe(&c.topo)
		for _, cmp := range []struct {
			what      string
			got, want any
		}{
			{"NICs", nics, c.nics},
			{"ports", ports, c.ports},
			{"INT hops", hops, c.hops},
			{"flows", c.topo.flows, c.flows},
		} {
			if !reflect.DeepEqual(cmp.got, cmp.want) {
				t.Errorf("%s: %s =\n  %v\nwant\n  %v", c.name, cmp.what, cmp.got, cmp.want)
			}
		}
	}
}

// TestBuildFollowsTheDescription checks the other half: the testbed
// build assembles has the description's hosts, ports and flows in the
// description's order, then the dumper pool's ports.
func TestBuildFollowsTheDescription(t *testing.T) {
	cfg := config.Default()
	cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 2, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.Events = nil
	tb, err := Build(cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range tb.Ports {
		names = append(names, p.Name)
	}
	want := "host-0 leaf-0-p0 host-1 leaf-0-p1 host-2 leaf-1-p0 host-3 leaf-1-p1 " +
		"leaf-0-up spine-p0 leaf-1-up spine-p1 " +
		"dumper-0 sw-dump-0 dumper-1 sw-dump-1 dumper-2 sw-dump-2 dumper-3 sw-dump-3"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("ports = %s\nwant   %s", got, want)
	}
	if len(tb.Hosts) != 4 || len(tb.Flows) != 3 {
		t.Fatalf("hosts=%d flows=%d, want 4, 3", len(tb.Hosts), len(tb.Flows))
	}
	for i, fl := range tb.Flows {
		if fl.Req != tb.Hosts[i+1] || fl.Resp != tb.Hosts[0] {
			t.Errorf("flow %d does not run host %d -> host 0", i, i+1)
		}
	}
}

// TestINTHopLimitsAreBuildErrors: a scenario that needs more INT hops
// than the tag or the hop table can name must be refused by Build, not
// panic inside inband.RegisterHop — and only when INT is on.
func TestINTHopLimitsAreBuildErrors(t *testing.T) {
	cfg := config.Default()
	cfg.Fabric = &config.FabricTopo{Leaves: 8, HostsPerLeaf: 9, UplinkGbps: 400, Pattern: "incast"}
	cfg.Traffic.Events = nil
	cfg.Traffic.NumConnections = 1
	cfg.Traffic.NumMsgsPerQP = 1

	opts := DefaultOptions()
	if _, err := Build(cfg, opts); err != nil {
		t.Fatalf("72 hosts without INT must build: %v", err)
	}
	opts.INT = true
	_, err := Build(cfg, opts)
	if err == nil || !strings.Contains(err.Error(), "63") || !strings.Contains(err.Error(), "72") {
		t.Errorf("72 hosts with INT: Build error = %v, want the limit (63) and the count (72)", err)
	}
	cfg.Fabric.HostsPerLeaf = 8
	if _, err := Build(cfg, opts); err == nil {
		t.Error("64 hosts with INT built; the tag names only 63 origins")
	}
	cfg.Fabric.Leaves, cfg.Fabric.HostsPerLeaf = 7, 9
	if _, err := Build(cfg, opts); err != nil {
		t.Errorf("63 hosts with INT must build: %v", err)
	}

	// The hop table bound cannot be reached through a leaf-spine config
	// once the origin bound holds, so drive it through a description.
	wide := pairTopology(config.Default())
	for len(wide.hops) < inband.MaxHops-1 {
		wide.hops = append(wide.hops, hopSpec{port: 1})
	}
	if err := wide.checkHops(); err != nil {
		t.Errorf("%d hops + pipeline fill the table exactly: %v", len(wide.hops), err)
	}
	wide.hops = append(wide.hops, hopSpec{port: 1})
	err = wide.checkHops()
	if err == nil || !strings.Contains(err.Error(), "255") || !strings.Contains(err.Error(), "256") {
		t.Errorf("256 hops: checkHops error = %v, want the limit (255) and the count (256)", err)
	}
}
