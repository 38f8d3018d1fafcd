package config

import (
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		"corpus/05a5cca6c10fbf0e/scenario.yaml": "05a5cca6c10fbf0e",
		"corpus/131fb80582e7bfee/scenario.yaml": "131fb80582e7bfee",
		"corpus/16917aa2b4020769/scenario.yaml": "16917aa2b4020769",
		"corpus/19aed828727d4213/scenario.yaml": "19aed828727d4213",
		"corpus/3c214b1d22169463/scenario.yaml": "3c214b1d22169463",
		"corpus/52380f835dfdf2fd/scenario.yaml": "52380f835dfdf2fd",
		"corpus/60ffff148aa5f27b/scenario.yaml": "60ffff148aa5f27b",
		"corpus/6b355107525ab79e/scenario.yaml": "6b355107525ab79e",
		"corpus/8105d1241be1b4aa/scenario.yaml": "8105d1241be1b4aa",
		"corpus/9f83c105c7f7d54b/scenario.yaml": "9f83c105c7f7d54b",
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
	// Every profile override is part of the identity.
	c := Default()
	c.Requester.NIC.Profile = &Overrides{NoETSClamp: true, NoSlowPathWedge: true, NoStrictAPM: true, AckCoalesce: 16}
	if got, err := ContentHash(c); err != nil || got != "a7268adeaca767a0" {
		t.Errorf("ContentHash(Default() with every override) = %s, %v; pinned a7268adeaca767a0", got, err)
	}
	// An empty block sets none: it is the model as it is.
	if c, err := Parse([]byte("requester: {nic: {profile: {}}}")); err != nil || c.Requester.NIC.Profile != nil {
		t.Errorf("an empty profile block parses to %+v, %v; want none", c.Requester.NIC.Profile, err)
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
		{"requester:\n  nic: {ip-list: []}\n", `config: requester.nic.ip-list: 0 entries is below the minimum of 1`},
		// Sizes orchestrator.Build could not hold. On a 32-bit int the
		// fabric's 4194305 × 1024 wraps to 1024 hosts if multiplied out.
		{"traffic: {num-connections: 4097}", `config: traffic.num-connections: 4097 exceeds the maximum of 4096`},
		{"fabric: {leaves: 1025, hosts-per-leaf: 1}", `config: fabric leaves × hosts-per-leaf (1025 × 1) exceeds the limit of 1024 hosts`},
		{"fabric: {leaves: 4194305, hosts-per-leaf: 1024}", `exceeds the limit of 1024 hosts`},
		{"fabric: {leaves: 16, hosts-per-leaf: 64}\ntraffic: {num-connections: 65}", `config: 1023 sending hosts × num-connections 65 exceeds the limit of 65536 QPs`},
		{"dumper-pool: {nodes: 1000000, cores-per-node: 1000000}", `config: dumper-pool nodes × cores-per-node (1000000 × 1000000) exceeds the limit of 4096 cores`},
		{"traffic: {message-size: 1048576, mtu: 1, num-msgs-per-qp: 17}", `exceeds the limit of 4194304 packets per connection`},
		// 4096 connections each at the per-connection limit: 2^34 packets,
		// terabytes with every observer on.
		{"traffic: {num-connections: 4096, num-msgs-per-qp: 1024, message-size: 4194304}",
			`config: sending hosts × num-connections × packets per connection (1 × 4096 × 4194304) exceeds the limit of 4194304 packets per run`},
		{"fabric: {}\ntraffic: {num-connections: 16, message-size: 1024, num-msgs-per-qp: 17477}", `(15 × 16 × 17477) exceeds the limit of 4194304 packets per run`},
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: ecn, every: 16777217}\n", `config: traffic.data-pkt-events[0].every: 16777217 exceeds the maximum of 16777216`},
		{"traffic:\n  message-size: 1048576\n  mtu: 8\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: ecn, every: 1}\n", `expand to more than the limit of 65536 injector rules`},
		// Values a run could not survive, or applied to another packet:
		// the scheduler panicked on the first three, the fourth ran out
		// of memory, the trace of the fifth could not be decoded, the
		// next two matched iter 1 and packet 2, the next overflowed the
		// CNP interval to a negative one, and the last message spans
		// half the PSN space, so no packet of it was ever sent. (Where a
		// 32-bit int cannot hold the value, the error is that it
		// overflows; either way it names the key.)
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 2, type: delay, delay-us: 10000000000000000}\n",
			`config: traffic.data-pkt-events[0].delay-us: 10000000000000000 `},
		{"switch: {pipeline-latency-ns: 9000000000000000000}", `config: switch.pipeline-latency-ns: 9000000000000000000 `},
		{"dumper-pool: {per-core-gbps: 1e-19}", `config: dumper-pool.per-core-gbps: 1e-19 is below the minimum of 0.001`},
		{"traffic: {message-size: 1000000000000, mtu: 1000000000000}", `config: traffic.mtu: 1000000000000 `},
		{"dumper-pool: {trim-bytes: 60}", `config: dumper-pool.trim-bytes: 60 is shorter than the 70 header bytes of an rdma-verb write trace`},
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 1, type: drop, iter: 4294967297}\n", `config: traffic.data-pkt-events[0].iter: 4294967297 `},
		{"traffic:\n  data-pkt-events:\n    - {qpn: 1, psn: 16777218, type: drop}\n", `config: traffic.data-pkt-events[0].psn: 16777218 exceeds the maximum of 16777216`},
		{"requester:\n  roce-parameters: {min-time-between-cnps: 10000000000000000}\n", `config: requester.roce-parameters.min-time-between-cnps: 10000000000000000 `},
		{"traffic: {message-size: 2147483647, mtu: 256}", `(8388608 × 1 packets) exceeds the limit of 4194304 packets per connection`},
		// One byte short of the deepest header stack trace reconstruction
		// reads: a RETH for writes and reads, an AETH for sends.
		{"dumper-pool: {trim-bytes: 69}", `config: dumper-pool.trim-bytes: 69 is shorter than the 70 header bytes`},
		{"dumper-pool: {trim-bytes: 69}\ntraffic: {rdma-verb: read}", `of an rdma-verb read trace`},
		{"dumper-pool: {trim-bytes: 57}\ntraffic: {rdma-verb: send}", `config: dumper-pool.trim-bytes: 57 is shorter than the 58 header bytes of an rdma-verb send trace`},
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

// TestRunSizeBoundAdmitsItsEdge holds the per-run packet bound at its
// edge: one step past each of these is a row of
// TestParseRejectsWhatItCannotRead.
func TestRunSizeBoundAdmitsItsEdge(t *testing.T) {
	for _, src := range []string{
		"traffic: {num-connections: 4096, message-size: 1048576}",                                // 4096 × 1024 = 2^22
		"fabric: {}\ntraffic: {num-connections: 16, message-size: 1024, num-msgs-per-qp: 17476}", // 15 × 16 × 17476
	} {
		if _, err := Parse([]byte(src)); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
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
		// trim-bytes at the floor of each rdma-verb's header stack.
		{"dumper-pool: {trim-bytes: 70}", func(c *Test) { c.Dumpers.TrimBytes = 70 }},
		{"dumper-pool: {trim-bytes: 58}\ntraffic: {rdma-verb: send}", func(c *Test) { c.Dumpers.TrimBytes, c.Traffic.Verb = 58, "send" }},
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

// TestEveryBoundHoldsAtItsEdge walks the field table: for every key
// whose lumina tag has a min= or max=, a scenario holding the bound
// parses, and one a step past it is refused with an error naming the
// key's path. A list of numbers is bounded entry by entry (the first
// entry is moved), any other list by its length.
func TestEveryBoundHoldsAtItsEdge(t *testing.T) {
	type edge struct {
		path  string
		steps []int // field indices; -1 steps through a pointer or into a list's first entry
		f     field
		typ   reflect.Type
	}
	type try struct {
		x  float64 // the value, or a list's length
		ok bool    // whether Parse must accept it
	}
	var edges []edge
	var walk func(path string, steps []int, typ reflect.Type)
	walk = func(path string, steps []int, typ reflect.Type) {
		for i, f := range fieldsOf(typ) {
			p, s, ft := path+f.key, append(slices.Clip(steps), i), typ.Field(i).Type
			if !math.IsInf(f.min, -1) || !math.IsInf(f.max, 1) {
				edges = append(edges, edge{p, s, f, ft})
			}
			for ft.Kind() == reflect.Pointer || (ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct) {
				if ft.Kind() == reflect.Slice {
					p += "[0]"
				}
				ft, s = ft.Elem(), append(s, -1)
			}
			if ft.Kind() == reflect.Struct && ft != addrType {
				walk(p+".", s, ft)
			}
		}
	}
	walk("", nil, reflect.TypeOf(Test{}))
	if len(edges) < 15 {
		t.Fatalf("found %d bounded keys, want every one", len(edges))
	}
	base := func(fabric bool) Test {
		c := Default()
		if fabric {
			c.Fabric = &FabricTopo{}
		} else {
			c.Traffic.Events = []Event{{QPN: 1, PSN: 1, Type: "ecn"}}
			c.Dumpers.Weights = []int{1, 1, 1, 1}
		}
		return c
	}
	for _, e := range edges {
		isInt := e.typ.Kind() == reflect.Int || e.typ.Kind() == reflect.Slice && e.typ.Elem().Kind() == reflect.Int
		past := func(bound, dir float64) float64 {
			if isInt || e.typ.Kind() == reflect.Slice {
				return bound + dir
			}
			return bound * math.Pow(2, dir) // a float stays positive, or the default would fill it
		}
		var tries []try
		if !math.IsInf(e.f.min, -1) {
			tries = append(tries, try{e.f.min, true}, try{past(e.f.min, -1), false})
		}
		if !math.IsInf(e.f.max, 1) {
			tries = append(tries, try{e.f.max, true}, try{past(e.f.max, 1), false})
		}
		for _, try := range tries {
			c := base(strings.HasPrefix(e.path, "fabric"))
			v, path := reflect.ValueOf(&c).Elem(), e.path
			for _, s := range e.steps {
				switch {
				case s >= 0:
					v = v.Field(s)
				case v.Kind() == reflect.Pointer:
					if v.IsNil() {
						v.Set(reflect.New(v.Type().Elem())) // nic.profile
					}
					v = v.Elem()
				default:
					v = v.Index(0)
				}
			}
			switch {
			case v.Kind() == reflect.Slice && isInt:
				v, path = v.Index(0), path+"[0]"
			case v.Kind() == reflect.Slice:
				l := reflect.MakeSlice(v.Type(), int(try.x), int(try.x))
				for i := 0; i < l.Len(); i++ {
					l.Index(i).Set(v.Index(0))
				}
				v.Set(l)
			}
			switch v.Kind() {
			case reflect.Int:
				if v.OverflowInt(int64(try.x)) || (!try.ok && try.x <= 0 && e.f.def.IsValid()) {
					continue // a 32-bit int cannot hold it, or the default would fill it
				}
				v.SetInt(int64(try.x))
			case reflect.Float64:
				v.SetFloat(try.x)
			}
			if !try.ok {
				// Validate, since the YAML form cannot hold an empty list.
				if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "config: "+path+": ") {
					t.Errorf("%s = %v: got %v, want an error naming %s", e.path, try.x, err, path)
				}
				continue
			}
			y, err := c.MarshalYAML()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Parse(y); err != nil {
				t.Errorf("%s = %v: %v", e.path, try.x, err)
			}
		}
	}
}

// TestValidateAllocatesNothing: the tag walk and the cross-field rules
// allocate nothing on a checked-in scenario, and Parse no more than the
// 94 allocations it took on bench/workloads/bulk.yaml before the walk
// replaced Validate's hand-written checks.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		c, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { v := c; _ = v.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocates %v times", path, n)
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", "bulk.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = Parse(data) }); n > 94 {
		t.Errorf("Parse(bulk.yaml) allocates %v times, want at most 94", n)
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
		if r.Intn(2) == 0 {
			h.NIC.Profile = &Overrides{
				NoETSClamp: r.Intn(2) == 0, NoSlowPathWedge: r.Intn(2) == 0, NoStrictAPM: r.Intn(2) == 0,
				AckCoalesce: r.Intn(17),
			}
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
			NodeGbps: float64(25 * (1 + r.Intn(4))), TrimBytes: 70 + r.Intn(128),
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
