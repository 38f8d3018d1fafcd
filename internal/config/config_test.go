package config

import (
	"math"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
)

const fullConfig = `
name: retrans-probe
seed: 42
requester:
  control-ip: req-host
  nic:
    type: cx4
    if-name: enp4s0
    switch-port: 144
    ip-list: [10.0.0.2/24, 10.0.0.12/24]
  roce-parameters:
    dcqcn-rp-enable: False
    dcqcn-np-enable: True
    min-time-between-cnps: 0
    adaptive-retrans: False
    slow-restart: True
responder:
  control-ip: rsp-host
  nic:
    type: cx5
    ip-list: [10.0.0.3]
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  multi-gid: true
  barrier-sync: true
  tx-depth: 1
  min-retransmit-timeout: 14
  max-retransmit-retry: 7
  data-pkt-events:
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    - {qpn: 2, psn: 5, type: drop, iter: 1}
    - {qpn: 2, psn: 5, type: drop, iter: 2}
switch:
  pipeline-latency-ns: 380
  mirror: true
  inject: true
dumper-pool:
  nodes: 3
  cores-per-node: 4
  per-core-gbps: 10
  trim-bytes: 128
`

func TestParseFullConfig(t *testing.T) {
	tc, err := Parse([]byte(fullConfig))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Name != "retrans-probe" || tc.Seed != 42 {
		t.Errorf("name/seed = %q/%d", tc.Name, tc.Seed)
	}
	if tc.Requester.NIC.Type != "cx4" || tc.Responder.NIC.Type != "cx5" {
		t.Errorf("NIC types = %q/%q", tc.Requester.NIC.Type, tc.Responder.NIC.Type)
	}
	wantIPs := []netip.Addr{netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.12")}
	if len(tc.Requester.NIC.IPList) != 2 || tc.Requester.NIC.IPList[0] != wantIPs[0] || tc.Requester.NIC.IPList[1] != wantIPs[1] {
		t.Errorf("requester IPs = %v (CIDR suffix must be stripped)", tc.Requester.NIC.IPList)
	}
	if tc.Requester.RoCE.DCQCNRPEnable || !tc.Requester.RoCE.DCQCNNPEnable {
		t.Error("roce-parameters booleans wrong")
	}
	if tc.Requester.RoCE.MinTimeBetweenCNPs != 0 {
		t.Error("min-time-between-cnps should be 0 (explicit)")
	}
	if tc.Traffic.NumConnections != 2 || tc.Traffic.MessageSize != 10240 {
		t.Errorf("traffic = %+v", tc.Traffic)
	}
	if len(tc.Traffic.Events) != 3 {
		t.Fatalf("events = %v", tc.Traffic.Events)
	}
	ev := tc.Traffic.Events[2]
	if ev.QPN != 2 || ev.PSN != 5 || ev.Iter != 2 || ev.Type != "drop" {
		t.Errorf("event[2] = %+v", ev)
	}
	if tc.Switch.PipelineLatencyNs != 380 {
		t.Errorf("switch latency = %d", tc.Switch.PipelineLatencyNs)
	}
	if tc.Dumpers.Nodes != 3 || tc.Dumpers.PerCoreGbps != 10 {
		t.Errorf("dumpers = %+v", tc.Dumpers)
	}
	// Defaults still applied for unspecified dumper fields.
	if !tc.Dumpers.RSSPortRewrite || !tc.Dumpers.PerPacketLB {
		t.Error("dumper defaults not inherited")
	}
}

func TestDefaultsValidate(t *testing.T) {
	d := Default()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Traffic.PacketsPerMessage() != 10 {
		t.Errorf("PacketsPerMessage = %d", d.Traffic.PacketsPerMessage())
	}
	if d.Traffic.PacketsPerQP() != 10 {
		t.Errorf("PacketsPerQP = %d", d.Traffic.PacketsPerQP())
	}
}

func TestMinCNPIntervalConversion(t *testing.T) {
	r := RoCE{MinTimeBetweenCNPs: 4}
	if r.MinCNPInterval() != 4000 {
		t.Errorf("4µs = %d ns", r.MinCNPInterval())
	}
	r.MinTimeBetweenCNPs = -1
	if r.MinCNPInterval() != -1 {
		t.Error("hardware default must map to -1")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Test)
		want   string
	}{
		{func(t *Test) { t.Traffic.NumConnections = 0 }, "num-connections"},
		{func(t *Test) { t.Traffic.MessageSize = 0 }, "message-size"},
		{func(t *Test) { t.Traffic.Verb = "atomic" }, "rdma-verb"},
		{func(t *Test) { t.Requester.NIC.IPList = nil }, "requester.nic.ip-list"},
		{func(t *Test) { t.Traffic.Events = []Event{{QPN: 5, PSN: 1, Type: "drop"}} }, "qpn"},
		{func(t *Test) { t.Traffic.Events = []Event{{QPN: 1, PSN: 0, Type: "drop"}} }, "psn"},
		{func(t *Test) { t.Traffic.Events = []Event{{QPN: 1, PSN: 1, Type: "truncate"}} }, "unknown type"},
		{func(t *Test) { t.Traffic.Events = []Event{{QPN: 1, PSN: 1, Type: "delay"}} }, "delay-us"},
		{func(t *Test) { t.Traffic.Events = []Event{{QPN: 1, PSN: 1, Type: "reorder", Offset: -1}} }, "reorder offset"},
		{func(t *Test) { t.Requester.ETS = []ETSQueue{{Weight: 0}} }, "positive weight"},
		{func(t *Test) { t.Requester.ETS = []ETSQueue{{Strict: true, Weight: 3}} }, "strict and weighted"},
		{func(t *Test) { t.Traffic.QPTrafficClass = []int{3} }, "qp-traffic-class"},
		{func(t *Test) { t.Dumpers.Weights = []int{1, 2} }, "weights"},
		{func(t *Test) { t.Traffic.MinRetransmitTimeout = 51 }, "min-retransmit-timeout"},
		{func(t *Test) { t.Dumpers.PerCoreGbps = math.NaN() }, "per-core-gbps"},
		{func(t *Test) { t.Dumpers.NodeGbps = math.Inf(1) }, "node-gbps"},
		{func(t *Test) { t.Fabric = &FabricTopo{UplinkGbps: math.Inf(-1)} }, "uplink-gbps"},
	}
	for i, c := range cases {
		tc := Default()
		c.mutate(&tc)
		err := tc.Validate()
		if err == nil {
			t.Errorf("case %d: no error, want %q", i, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	tc := Default()
	tc.Traffic.MTU = 0
	tc.Traffic.TxDepth = 0
	tc.Traffic.MinRetransmitTimeout = 0
	tc.Traffic.Verb = ""
	tc.Traffic.Events = []Event{{QPN: 1, PSN: 1, Type: "drop", Iter: 0}}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	if tc.Traffic.MTU != 1024 || tc.Traffic.TxDepth != 1 || tc.Traffic.MinRetransmitTimeout != 14 {
		t.Errorf("defaults not filled: %+v", tc.Traffic)
	}
	if tc.Traffic.Verb != "write" {
		t.Errorf("verb default = %q", tc.Traffic.Verb)
	}
	if tc.Traffic.Events[0].Iter != 1 {
		t.Errorf("iter default = %d", tc.Traffic.Events[0].Iter)
	}
}

func TestParseEveryField(t *testing.T) {
	src := `
traffic:
  num-connections: 1
  message-size: 1048576
  num-msgs-per-qp: 20
  data-pkt-events:
    - {qpn: 1, psn: 1, type: ecn, every: 50}
`
	tc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Traffic.Events[0].Every != 50 {
		t.Fatalf("every = %d", tc.Traffic.Events[0].Every)
	}
}

func TestParseETSQueues(t *testing.T) {
	src := `
requester:
  nic: {type: cx6, ip-list: [10.0.0.1]}
  ets-queues:
    - {weight: 50}
    - {weight: 50}
traffic:
  num-connections: 2
  message-size: 1048576
  qp-traffic-class: [0, 1]
`
	tc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Requester.ETS) != 2 || tc.Requester.ETS[0].Weight != 50 {
		t.Fatalf("ETS = %+v", tc.Requester.ETS)
	}
	if len(tc.Traffic.QPTrafficClass) != 2 || tc.Traffic.QPTrafficClass[1] != 1 {
		t.Fatalf("qp-traffic-class = %v", tc.Traffic.QPTrafficClass)
	}
}

func TestParseRejectsBadYAML(t *testing.T) {
	if _, err := Parse([]byte("traffic:\n  num-connections: [unclosed")); err == nil {
		t.Fatal("bad YAML accepted")
	}
	if _, err := Parse([]byte("traffic:\n  rdma-verb: 42\n  message-size: 10\n  num-connections: 1")); err == nil {
		t.Fatal("mistyped rdma-verb accepted")
	}
}

func TestLoadFromFile(t *testing.T) {
	path := t.TempDir() + "/test.yaml"
	if err := writeFile(path, fullConfig); err != nil {
		t.Fatal(err)
	}
	tc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Name != "retrans-probe" {
		t.Fatalf("name = %q", tc.Name)
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Fatal("Load on missing file succeeded")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestMarshalYAMLRoundTrip(t *testing.T) {
	orig, err := Parse([]byte(fullConfig))
	if err != nil {
		t.Fatal(err)
	}
	out, err := orig.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the config:\norig: %+v\nback: %+v\nyaml:\n%s", orig, back, out)
	}
}

func TestMarshalYAMLWithExtensions(t *testing.T) {
	orig := Default()
	orig.Requester.ETS = []ETSQueue{{Strict: true}, {Weight: 60}, {Weight: 40}}
	orig.Traffic.QPTrafficClass = []int{1}
	orig.Traffic.Events = []Event{
		{QPN: 1, PSN: 3, Iter: 1, Type: "delay", DelayUs: 100},
		{QPN: 1, PSN: 4, Iter: 1, Type: "reorder", Offset: 2},
		{QPN: 1, PSN: 1, Iter: 1, Type: "ecn", Every: 50},
	}
	orig.Dumpers.Weights = []int{2, 1, 1, 1}
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := orig.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the config:\nyaml:\n%s\norig: %+v\nback: %+v", out, orig, back)
	}
}
