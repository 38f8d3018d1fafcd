package orchestrator

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/rnic"
)

// TestOverridesReachTheNIC: each profile override set on one host
// template reaches the Prof of every NIC built from that template, and
// of no other, on the pair testbed and on a fabric (whose senders share
// the requester template). Each row names a model the override flips,
// so the built value differs from the model's own.
func TestOverridesReachTheNIC(t *testing.T) {
	for _, row := range []struct {
		key   string
		model string
		set   func(*config.Overrides)
		read  func(rnic.Profile) any
		want  any
	}{
		{"no-ets-clamp", rnic.ModelCX6, func(o *config.Overrides) { o.NoETSClamp = true },
			func(p rnic.Profile) any { return p.ETSNonWorkConserving }, false},
		{"no-slow-path-wedge", rnic.ModelCX4, func(o *config.Overrides) { o.NoSlowPathWedge = true },
			func(p rnic.Profile) any { return p.SlowPathContexts }, 0},
		{"no-strict-apm", rnic.ModelCX5, func(o *config.Overrides) { o.NoStrictAPM = true },
			func(p rnic.Profile) any { return p.StrictAPM }, false},
		{"ack-coalesce", rnic.ModelSpec, func(o *config.Overrides) { o.AckCoalesce = 7 },
			func(p rnic.Profile) any { return p.AckCoalesce }, 7},
	} {
		own, err := rnic.ProfileByName(row.model)
		if err != nil {
			t.Fatal(err)
		}
		if row.read(own) == row.want {
			t.Fatalf("%s: %s already has %v; the row cannot see the override", row.key, row.model, row.want)
		}
		for _, fabric := range []bool{false, true} {
			for _, responder := range []bool{false, true} {
				name := fmt.Sprintf("%s/fabric=%t/responder=%t", row.key, fabric, responder)
				cfg := config.Default()
				cfg.Requester.NIC.Type, cfg.Responder.NIC.Type = row.model, row.model
				if fabric {
					cfg.Fabric = &config.FabricTopo{Leaves: 2, HostsPerLeaf: 2, UplinkGbps: 400, Pattern: "incast"}
				}
				h := &cfg.Requester
				if responder {
					h = &cfg.Responder
				}
				h.NIC.Profile = &config.Overrides{}
				row.set(h.NIC.Profile)
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tb, err := Build(cfg, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, nic := range tb.Hosts {
					want := row.read(own)
					if tb.topo.hosts[i].responder == responder {
						want = row.want
					}
					if got := row.read(nic.Prof); got != want {
						t.Errorf("%s: host %s has %v, want %v", name, tb.topo.hosts[i].name, got, want)
					}
				}
			}
		}
	}
}

// TestAckCoalesceRunsAtItsBound: ack-coalesce takes its tag's maximum,
// the packets one connection may send, and a step past it is refused.
// At the maximum no coalesced ACK is ever due, so the responder
// acknowledges only each message's last packet, which asks for one.
func TestAckCoalesceRunsAtItsBound(t *testing.T) {
	const bound = 1 << 22
	scenario := func(factor int) string {
		return fmt.Sprintf("responder: {nic: {profile: {ack-coalesce: %d}}}\ntraffic: {num-msgs-per-qp: 5, message-size: 10240}\n", factor)
	}
	if _, err := config.Parse([]byte(scenario(bound + 1))); err == nil || !strings.Contains(err.Error(), "ack-coalesce") {
		t.Fatalf("ack-coalesce %d: got %v, want an error naming the key", bound+1, err)
	}
	cfg, err := config.Parse([]byte(scenario(bound)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimedOut || !rep.IntegrityOK {
		t.Fatalf("timed out %t, integrity %s", rep.TimedOut, rep.IntegrityDetail)
	}
	if got := rep.ResponderCounters[rnic.CtrTxRoCEPackets]; got != 5 {
		t.Errorf("responder sent %d packets, want 5 ACKs, one per message", got)
	}
}
