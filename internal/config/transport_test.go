package config

import (
	"strings"
	"sync"
	"testing"
)

func TestTransportOfAndTransports(t *testing.T) {
	tr := Traffic{NumConnections: 3}
	if got := tr.TransportOf(0); got != "rc" {
		t.Errorf("default TransportOf = %q", got)
	}
	tr.Transport = "uc"
	if got := tr.TransportOf(2); got != "uc" {
		t.Errorf("traffic-wide TransportOf = %q", got)
	}
	tr.QPTransport = []string{"", "ud"}
	if got := tr.TransportOf(0); got != "uc" {
		t.Errorf("empty override TransportOf = %q, want base uc", got)
	}
	if got := tr.TransportOf(1); got != "ud" {
		t.Errorf("override TransportOf = %q", got)
	}
	if got := tr.Transports(); strings.Join(got, ",") != "uc,ud" {
		t.Errorf("Transports() = %v", got)
	}
}

// TestTransportCanonicalization checks the hash-stability contract:
// explicit "rc" spellings collapse to the zero value, so pre-transport
// documents and default-restating ones marshal byte-identically.
func TestTransportCanonicalization(t *testing.T) {
	plain := Default()
	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
	spelled := Default()
	spelled.Traffic.Transport = "RC"
	spelled.Traffic.QPTransport = []string{"rc"}
	if err := spelled.Validate(); err != nil {
		t.Fatal(err)
	}
	if spelled.Traffic.Transport != "" || spelled.Traffic.QPTransport != nil {
		t.Fatalf("explicit rc not canonicalized: %q %v",
			spelled.Traffic.Transport, spelled.Traffic.QPTransport)
	}
	a, err := plain.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spelled.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("explicit-rc document marshals differently from a plain one")
	}

	// A per-connection mix canonicalizes empty entries to the base name.
	mixed := Default()
	mixed.Traffic.NumConnections = 2
	mixed.Traffic.Verb = "send"
	mixed.Traffic.MessageSize = 1024
	mixed.Traffic.QPTransport = []string{"", "UD"}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(mixed.Traffic.QPTransport, ","); got != "rc,ud" {
		t.Errorf("canonicalized qp-transport = %q, want rc,ud", got)
	}
}

// TestValidateCopiesConcurrently is the -race regression test for the
// engine's usage: workers receive by-value copies of one config.Test,
// which share the qp-transport backing array, and validate them at the
// same time. Validation must not write through the shared array, and
// the original must keep its spelling.
func TestValidateCopiesConcurrently(t *testing.T) {
	shared := Default()
	shared.Traffic.NumConnections = 2
	shared.Traffic.Verb = "send"
	shared.Traffic.MessageSize = 1024
	shared.Traffic.QPTransport = []string{"", "UD"}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		cp := shared
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cp.Validate(); err != nil {
				t.Error(err)
			}
			if got := strings.Join(cp.Traffic.QPTransport, ","); got != "rc,ud" {
				t.Errorf("canonicalized qp-transport = %q, want rc,ud", got)
			}
		}()
	}
	wg.Wait()
	if got := strings.Join(shared.Traffic.QPTransport, ","); got != ",UD" {
		t.Errorf("validating a copy rewrote the original's qp-transport to %q", got)
	}
}

func TestTransportParseRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Traffic.Transport = "uc"
	cfg.Traffic.MessageSize = 4096
	yml, err := cfg.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(yml), "transport: uc") {
		t.Fatalf("marshal lost the transport field:\n%s", yml)
	}
	back, err := Parse(yml)
	if err != nil {
		t.Fatal(err)
	}
	if back.Traffic.Transport != "uc" {
		t.Errorf("round-trip transport = %q", back.Traffic.Transport)
	}

	mix := Default()
	mix.Traffic.NumConnections = 2
	mix.Traffic.Verb = "send"
	mix.Traffic.MessageSize = 1024
	mix.Traffic.QPTransport = []string{"rc", "ud"}
	yml, err = mix.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	back, err = Parse(yml)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(back.Traffic.QPTransport, ","); got != "rc,ud" {
		t.Errorf("round-trip qp-transport = %q", got)
	}
}

func TestTransportValidationRules(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Test)
		want string
	}{
		{"unknown transport", func(c *Test) { c.Traffic.Transport = "xrc" }, "unknown transport"},
		{"unknown qp-transport", func(c *Test) { c.Traffic.QPTransport = []string{"dc"} }, "qp-transport[0]"},
		{"too many qp-transport entries", func(c *Test) { c.Traffic.QPTransport = []string{"rc", "uc"} }, "qp-transport entries"},
		{"ud with write", func(c *Test) { c.Traffic.Transport = "ud" }, "carries only rdma-verb send"},
		{"ud multi-packet", func(c *Test) {
			c.Traffic.Transport = "ud"
			c.Traffic.Verb = "send"
		}, "exceeds the 1024-byte MTU"},
		{"uc with read", func(c *Test) {
			c.Traffic.Transport = "uc"
			c.Traffic.Verb = "read"
		}, "carries only send or write"},
	}
	for _, tc := range cases {
		cfg := Default() // write verb, 10240-byte messages, 1024 MTU, 1 conn
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	ok := Default()
	ok.Traffic.Transport = "ud"
	ok.Traffic.Verb = "send"
	ok.Traffic.MessageSize = 1024
	if err := ok.Validate(); err != nil {
		t.Errorf("valid UD config rejected: %v", err)
	}

	// The unknown-transport error lists the valid names sorted (the
	// ProfileByName convention).
	bad := Default()
	bad.Traffic.Transport = "xrc"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "rc, uc, ud") {
		t.Errorf("unknown-transport error %v does not list known transports sorted", err)
	}
}
