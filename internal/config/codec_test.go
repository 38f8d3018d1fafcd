package config

import (
	"math/rand"
	"net/netip"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// scenarioFiles lists every checked-in scenario document.
func scenarioFiles(t testing.TB) []string {
	t.Helper()
	var files []string
	for _, g := range []string{"configs/*.yaml", "corpus/*/scenario.yaml", "bench/workloads/*.yaml", "examples/*/*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	return files
}

// TestContentHashesArePinned holds the content hash of every checked-in
// scenario and of Default(), as literals. A moved hash renames corpus
// entries, misses every result-cache entry and changes serve run IDs,
// so there is deliberately no flag that rewrites this table.
func TestContentHashesArePinned(t *testing.T) {
	pinned := map[string]string{
		"configs/ets-cx6.yaml":                  "3c214b1d22169463",
		"configs/interop.yaml":                  "6b355107525ab79e",
		"configs/listing2.yaml":                 "a982ccd565a57c48",
		"configs/noisy-neighbor.yaml":           "4808682c1977a35b",
		"configs/retrans-probe.yaml":            "c9d03d7220e60919",
		"corpus/131fb80582e7bfee/scenario.yaml": "131fb80582e7bfee",
		"corpus/19aed828727d4213/scenario.yaml": "19aed828727d4213",
		"corpus/3c214b1d22169463/scenario.yaml": "3c214b1d22169463",
		"corpus/52380f835dfdf2fd/scenario.yaml": "52380f835dfdf2fd",
		"corpus/6b355107525ab79e/scenario.yaml": "6b355107525ab79e",
		"corpus/a22ffd9ade27a8df/scenario.yaml": "a22ffd9ade27a8df",
		"corpus/a982ccd565a57c48/scenario.yaml": "a982ccd565a57c48",
		"corpus/c563496672a52ab8/scenario.yaml": "c563496672a52ab8",
		"corpus/c9d03d7220e60919/scenario.yaml": "c9d03d7220e60919",
		"bench/workloads/bulk.yaml":             "054067c3289abcf2",
		"bench/workloads/incast.yaml":           "4e05ed7e5e9ee49c",
		"bench/workloads/noisy_read.yaml":       "4808682c1977a35b",
		"examples/fabric_incast/incast.yaml":    "c563496672a52ab8",
	}
	files := scenarioFiles(t)
	if len(files) != len(pinned) {
		t.Errorf("%d scenario files, %d pinned hashes: pin every new file", len(files), len(pinned))
	}
	for _, path := range files {
		rel := filepath.ToSlash(strings.TrimPrefix(path, filepath.Join("..", "..")+string(filepath.Separator)))
		want, ok := pinned[rel]
		if !ok {
			t.Errorf("%s: no pinned hash", rel)
			continue
		}
		if dir, file := filepath.Split(rel); strings.HasPrefix(rel, "corpus/") && file == "scenario.yaml" {
			if id := filepath.Base(dir); id != want {
				t.Errorf("%s: pinned %s, but the entry is named %s", rel, want, id)
			}
		}
		c, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		if got, err := ContentHash(c); err != nil || got != want {
			t.Errorf("%s: ContentHash = %s, %v; pinned %s", rel, got, err, want)
		}
	}
	if got, err := ContentHash(Default()); err != nil || got != "d637d896c6278312" {
		t.Errorf("ContentHash(Default()) = %s, %v; pinned d637d896c6278312", got, err)
	}
}

// TestEveryConfigFieldHasAKey walks Test by reflection: every field is
// named by a non-empty json tag that no sibling shares, since that name
// is the field's YAML key.
func TestEveryConfigFieldHasAKey(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || typ == addrType || seen[typ] {
			return
		}
		seen[typ] = true
		keys := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case key == "" || key == "-":
				t.Errorf("%s.%s: json name %q is not a YAML key", path, f.Name, key)
			case keys[key]:
				t.Errorf("%s.%s: key %q used twice", path, f.Name, key)
			}
			keys[key] = true
			walk(path+"."+key, f.Type)
		}
	}
	walk("Test", reflect.TypeOf(Test{}))
	if len(seen) < 9 {
		t.Errorf("walked %d struct types, want every section", len(seen))
	}
}

// TestParseRejectsWhatItCannotRead: a key the schema does not have, or a
// value of the wrong type, is an error that names where it is — never a
// silently different scenario.
func TestParseRejectsWhatItCannotRead(t *testing.T) {
	cases := []struct{ src, want string }{
		{"traffic: {rdma_verb: read}", `config: traffic: unknown key "rdma_verb"`},
		{"trafic:\n  rdma-verb: read\n", `config: unknown key "trafic"`},
		{"traffic: {num-msgs-per-q: 9}", `config: traffic: unknown key "num-msgs-per-q"`},
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 2, typ: drop}\n",
			`config: traffic.data-pkt-events[0]: unknown key "typ"`},
		{"traffic: {qp-traffic-class: [x]}", `config: traffic.qp-traffic-class[0]: want integer, got string`},
		{"requester:\n  nic: {ip-list: [10.0.0.1, 10.0.0.999]}\n", `config: requester.nic.ip-list[1]: ParseAddr("10.0.0.999")`},
		{"fabric: {leaves: x}", `config: fabric.leaves: want integer, got string`},
		// The cases of the deleted yamlite accessor tests: each wrong
		// scalar type is an error of its own.
		{"name: 3", `config: name: want string, got int64`},
		{"seed: hello", `config: seed: want integer, got string`},
		{"switch: {mirror: [1]}", `config: switch.mirror: want boolean, got []interface {}`},
		{"dumper-pool: {node-gbps: fast}", `config: dumper-pool.node-gbps: want number, got string`},
		{"traffic: {mtu: 1.5}", `config: traffic.mtu: want integer, got float64`},
		{"dumper-pool: {weights: [1, '2', 1, 1]}", `config: dumper-pool.weights[1]: want integer, got string`},
		{"responder: 5", `config: responder: want mapping, got int64`},
		{"requester: {ets-queues: {weight: 1}}", `config: requester.ets-queues: want sequence, got map[string]interface {}`},
		{"requester: {ets-queues: [~]}", `config: requester.ets-queues[0]: want mapping, got <nil>`},
		{"requester:\n  nic: {ip-list: [10.0.0.1/33]}\n", `config: requester.nic.ip-list[0]: netip.ParsePrefix`},
		{"requester:\n  nic: {ip-list: [7]}\n", `config: requester.nic.ip-list[0]: want IP address, got int64`},
		// Settled edge case: an empty ip-list used to keep the default
		// address; a list replaces the default, and a host needs one.
		{"requester:\n  nic: {ip-list: []}\n", `needs at least one IP`},
		// Sizes orchestrator.Build could not hold. On a 32-bit int the
		// fabric's 4194305 × 1024 wraps to 1024 hosts if multiplied out.
		{"traffic: {num-connections: 4097}", `config: num-connections 4097 exceeds the limit of 4096`},
		{"fabric: {leaves: 1025, hosts-per-leaf: 1}", `config: fabric leaves × hosts-per-leaf (1025 × 1) exceeds the limit of 1024 hosts`},
		{"fabric: {leaves: 4194305, hosts-per-leaf: 1024}", `exceeds the limit of 1024 hosts`},
		{"fabric: {leaves: 16, hosts-per-leaf: 64}\ntraffic: {num-connections: 65}", `config: 1023 sending hosts × num-connections 65 exceeds the limit of 65536 QPs`},
		{"dumper-pool: {nodes: 1000000, cores-per-node: 1000000}", `config: dumper-pool nodes × cores-per-node (1000000 × 1000000) exceeds the limit of 4096 cores`},
		{"traffic: {message-size: 1048576, mtu: 1, num-msgs-per-qp: 17}", `exceeds the limit of 16777216 packets per connection`},
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: ecn, every: 16777217}\n", `config: event 0: every 16777217 exceeds the limit of 16777216 packets`},
		{"traffic:\n  message-size: 1048576\n  mtu: 8\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: ecn, every: 1}\n", `expand to more than the limit of 65536 injector rules`},
	}
	if strconv.IntSize == 32 {
		// An int field reads as it does on a 64-bit host, or not at all.
		cases = append(cases, struct{ src, want string }{"traffic: {mtu: 4294967297}", `config: traffic.mtu: 4294967297 overflows int`})
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", c.src, err, c.want)
		}
	}
}

// TestParseKeepsDefaults covers what a document may leave out: absent and
// null keys keep their defaults, an integer widens into a float field,
// and a bare `fabric:` turns on the default fabric, as it always has.
func TestParseKeepsDefaults(t *testing.T) {
	def := Default()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src    string
		mutate func(*Test)
	}{
		{"", func(*Test) {}},
		{"traffic:\nswitch: {}\nseed:\nrequester: {nic: {ip-list: }}\n", func(*Test) {}},
		{"dumper-pool: {node-gbps: 50}", func(c *Test) { c.Dumpers.NodeGbps = 50 }},
		{"fabric:", func(c *Test) { c.Fabric = &FabricTopo{Leaves: 2, HostsPerLeaf: 8, UplinkGbps: 400, Pattern: "incast"} }},
		{"requester: {nic: {ip-list: [10.0.0.7/24, 'fe80::1']}}", func(c *Test) {
			c.Requester.NIC.IPList = []netip.Addr{netip.MustParseAddr("10.0.0.7"), netip.MustParseAddr("fe80::1")}
		}},
	} {
		want := def
		c.mutate(&want)
		got, err := Parse([]byte(c.src))
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) =\n%+v\nwant\n%+v", c.src, got, want)
		}
	}
}

// randomTest draws a Test, nearly always a valid one, that may set any
// field: fabric, strict and weighted ETS queues, every event type,
// per-QP transports and dumper weights.
func randomTest(r *rand.Rand) Test {
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	host := func() Host {
		h := Host{
			NIC: NIC{Type: pick("cx4", "cx5", "cx6", "e810", "spec")},
			RoCE: RoCE{
				DCQCNRPEnable: r.Intn(2) == 0, DCQCNNPEnable: r.Intn(2) == 0,
				MinTimeBetweenCNPs: r.Intn(8) - 1,
				AdaptiveRetrans:    r.Intn(2) == 0, SlowRestart: r.Intn(2) == 0,
			},
		}
		if r.Intn(2) == 0 {
			h.Workspace, h.ControlIP = pick("/home/foo/bar/", "ws #1"), pick("host-a", "10.9.9.9")
			h.NIC.IfName, h.NIC.SwitchPort = pick("enp4s0", "eth0"), 1+r.Intn(200)
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			h.NIC.IPList = append(h.NIC.IPList, netip.MustParseAddr(pick("10.0.0.1", "10.0.0.12", "fe80::1", "2001:db8::7")))
		}
		for n := r.Intn(4); n > 0; n-- {
			if r.Intn(3) == 0 {
				h.ETS = append(h.ETS, ETSQueue{Strict: true})
			} else {
				h.ETS = append(h.ETS, ETSQueue{Weight: 1 + r.Intn(99)})
			}
		}
		return h
	}
	c := Test{
		Name: pick("", "probe", "it's #2", "yes"), Seed: r.Int63n(1000) + 1,
		Requester: host(), Responder: host(),
		Traffic: Traffic{
			NumConnections: 1 + r.Intn(4), Verb: pick("write", "send", "read"),
			NumMsgsPerQP: 1 + r.Intn(5), MTU: 1024 << r.Intn(3), MessageSize: 1024 * (1 + r.Intn(8)),
			MultiGID: r.Intn(2) == 0, BarrierSync: r.Intn(2) == 0, TxDepth: 1 + r.Intn(4),
			MinRetransmitTimeout: 1 + r.Intn(31), MaxRetransmitRetry: 1 + r.Intn(7),
		},
		Switch: Switch{PipelineLatencyNs: 1 + r.Intn(1000), Mirror: r.Intn(2) == 0, Inject: r.Intn(2) == 0, L2Only: r.Intn(4) == 0},
		Dumpers: DumperPool{
			Nodes: 1 + r.Intn(4), CoresPerNode: 1 + r.Intn(8), PerCoreGbps: float64(1+r.Intn(20)) / 4,
			NodeGbps: float64(25 * (1 + r.Intn(4))), TrimBytes: 64 + r.Intn(128),
			RSSPortRewrite: r.Intn(2) == 0, PerPacketLB: r.Intn(2) == 0,
		},
	}
	if r.Intn(2) == 0 {
		c.Dumpers.Weights = make([]int, c.Dumpers.Nodes)
		for i := range c.Dumpers.Weights {
			c.Dumpers.Weights[i] = 1 + r.Intn(5)
		}
	}
	if len(c.Requester.ETS) > 0 {
		for i := 0; i < c.Traffic.NumConnections; i++ {
			c.Traffic.QPTrafficClass = append(c.Traffic.QPTrafficClass, r.Intn(len(c.Requester.ETS)))
		}
	}
	tr := &c.Traffic
	switch r.Intn(4) {
	case 0:
		tr.Transport = "uc"
	case 1:
		tr.Verb, tr.MessageSize = "send", tr.MTU
		for i := 0; i < tr.NumConnections; i++ {
			tr.QPTransport = append(tr.QPTransport, pick("rc", "uc", "ud", ""))
		}
	}
	if tr.Transport == "uc" && tr.Verb == "read" {
		tr.Verb = "write"
	}
	if r.Intn(4) == 0 {
		c.Fabric = &FabricTopo{Leaves: 1 + r.Intn(3), HostsPerLeaf: 2 + r.Intn(6), UplinkGbps: float64(100 * (1 + r.Intn(4))), Pattern: "incast"}
	} else {
		for n := r.Intn(4); n > 0; n-- {
			ev := Event{QPN: 1 + r.Intn(tr.NumConnections), PSN: 1 + r.Intn(20), Iter: 1 + r.Intn(3), Type: pick("ecn", "drop", "corrupt", "set-migreq", "delay", "reorder")}
			switch ev.Type {
			case "delay":
				ev.DelayUs = 1 + r.Intn(100)
			case "reorder":
				ev.Offset = 1 + r.Intn(3)
			default:
				if r.Intn(3) == 0 {
					ev.Every = 1 + r.Intn(50)
				}
			}
			tr.Events = append(tr.Events, ev)
		}
	}
	return c
}

// TestRoundTripProperty: for seeded, generated configs that between them
// set every field, Parse(MarshalYAML(c)) deep-equals c and MarshalYAML
// is a fixed point.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	valid := 0
	set := map[string]bool{}
	for i := 0; i < 2000; i++ {
		c := randomTest(r)
		if c.Validate() != nil {
			continue
		}
		valid++
		markSet(set, "", reflect.ValueOf(c))
		y, err := c.MarshalYAML()
		if err != nil {
			t.Fatalf("MarshalYAML(%+v): %v", c, err)
		}
		back, err := Parse(y)
		if err != nil {
			t.Fatalf("Parse(MarshalYAML(c)): %v\n%s", err, y)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the config:\n%s\nwant %+v\ngot  %+v", y, c, back)
		}
		if y2, err := back.MarshalYAML(); err != nil || string(y2) != string(y) {
			t.Fatalf("MarshalYAML is not a fixed point (%v):\n%s\n---\n%s", err, y, y2)
		}
	}
	if valid < 500 {
		t.Errorf("only %d of 2000 generated configs are valid", valid)
	}
	var unset []string
	allLeaves("", reflect.TypeOf(Test{}), func(p string) {
		if !set[p] {
			unset = append(unset, p)
		}
	})
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("the generator never set %v", unset)
	}
}

// markSet records the key path of every non-zero leaf in v.
func markSet(set map[string]bool, path string, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Pointer:
		if !v.IsNil() {
			markSet(set, path, v.Elem())
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			markSet(set, path, v.Index(i))
		}
	case v.Kind() == reflect.Struct && v.Type() != addrType:
		for i, f := range fieldsOf(v.Type()) {
			markSet(set, path+"."+f.key, v.Field(i))
		}
	case !v.IsZero():
		set[path] = true
	}
}

// allLeaves calls fn with the key path of every leaf field of typ.
func allLeaves(path string, typ reflect.Type, fn func(string)) {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct || typ == addrType {
		fn(path)
		return
	}
	for i, f := range fieldsOf(typ) {
		allLeaves(path+"."+f.key, typ.Field(i).Type, fn)
	}
}
