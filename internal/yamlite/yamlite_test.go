package yamlite

import (
	"reflect"
	"testing"
	"testing/quick"
)

// listing1 is the paper's host configuration snippet, verbatim.
const listing1 = `
requester:
  workspace: /home/foo/bar/
  control-ip: cx4-testing-traffic-requester
  nic:
    type: cx4
    if-name: enp4s0
    switch-port: 144
    ip-list: [10.0.0.2/24,10.0.0.12/24]
  roce-parameters:
    dcqcn-rp-enable: False
    dcqcn-np-enable: True
    min-time-between-cnps: 0
    adaptive-retrans: False
    slow-restart: True
`

// listing2 is the paper's traffic/event configuration snippet, verbatim.
const listing2 = `
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
    # Mark ECN on the 4th pkt of the 1st QP conn
    - {qpn: 1, psn: 4, type: ecn, iter: 1}
    # Drop the 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 1}
    # Drop the retransmitted 5th pkt of the 2nd QP conn
    - {qpn: 2, psn: 5, type: drop, iter: 2}
`

func TestParseListing1(t *testing.T) {
	root, err := ParseMap([]byte(listing1))
	if err != nil {
		t.Fatal(err)
	}
	req := root["requester"].(map[string]any)
	if got := req["workspace"]; got != "/home/foo/bar/" {
		t.Errorf("workspace = %v", got)
	}
	nic := req["nic"].(map[string]any)
	if got := nic["type"]; got != "cx4" {
		t.Errorf("nic.type = %v", got)
	}
	if got := nic["switch-port"]; got != int64(144) {
		t.Errorf("switch-port = %v", got)
	}
	if got := nic["ip-list"]; !reflect.DeepEqual(got, []any{"10.0.0.2/24", "10.0.0.12/24"}) {
		t.Errorf("ip-list = %v", got)
	}
	rp := req["roce-parameters"].(map[string]any)
	if rp["dcqcn-rp-enable"] != false {
		t.Error("dcqcn-rp-enable should parse False")
	}
	if rp["dcqcn-np-enable"] != true {
		t.Error("dcqcn-np-enable should parse True")
	}
	if got := rp["min-time-between-cnps"]; got != int64(0) {
		t.Errorf("min-time-between-cnps = %v", got)
	}
}

func TestParseListing2(t *testing.T) {
	root, err := ParseMap([]byte(listing2))
	if err != nil {
		t.Fatal(err)
	}
	tr := root["traffic"].(map[string]any)
	if got := tr["num-connections"]; got != int64(2) {
		t.Errorf("num-connections = %v", got)
	}
	if got := tr["rdma-verb"]; got != "write" {
		t.Errorf("rdma-verb = %v", got)
	}
	if tr["multi-gid"] != true || tr["barrier-sync"] != true {
		t.Error("lowercase booleans not parsed")
	}
	events := tr["data-pkt-events"].([]any)
	want := []any{
		map[string]any{"qpn": int64(1), "psn": int64(4), "type": "ecn", "iter": int64(1)},
		map[string]any{"qpn": int64(2), "psn": int64(5), "type": "drop", "iter": int64(1)},
		map[string]any{"qpn": int64(2), "psn": int64(5), "type": "drop", "iter": int64(2)},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("data-pkt-events = %v", events)
	}
}

func TestScalarTyping(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"0x1f", int64(31)},
		{"3.5", 3.5},
		{"true", true},
		{"False", false},
		{"null", nil},
		{"~", nil},
		{"hello", "hello"},
		{"10.0.0.2/24", "10.0.0.2/24"},
		{"'42'", "42"},
		{`"quoted # not comment"`, "quoted # not comment"},
		{"enp4s0", "enp4s0"},
		{"1e3", 1000.0},
	}
	for _, c := range cases {
		if got := Scalar(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Scalar(%q) = %v (%T), want %v (%T)", c.in, got, got, c.want, c.want)
		}
	}
}

func TestBlockSequenceOfScalars(t *testing.T) {
	v, err := Parse([]byte("items:\n  - 1\n  - two\n  - 3.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	items := v.(map[string]any)["items"].([]any)
	if !reflect.DeepEqual(items, []any{int64(1), "two", 3.0}) {
		t.Fatalf("items = %v", items)
	}
}

func TestSequenceAtSameIndentAsKey(t *testing.T) {
	// YAML permits a block sequence at the same indentation as its key.
	v, err := Parse([]byte("events:\n- a\n- b\n"))
	if err != nil {
		t.Fatal(err)
	}
	items := v.(map[string]any)["events"].([]any)
	if !reflect.DeepEqual(items, []any{"a", "b"}) {
		t.Fatalf("items = %v", items)
	}
}

func TestDashMappingMultiLine(t *testing.T) {
	src := `
events:
  - qpn: 1
    psn: 4
  - qpn: 2
    psn: 5
`
	v, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	items := v.(map[string]any)["events"].([]any)
	if len(items) != 2 {
		t.Fatalf("items = %v", items)
	}
	first := items[0].(map[string]any)
	if first["qpn"] != int64(1) || first["psn"] != int64(4) {
		t.Fatalf("first = %v", first)
	}
}

func TestNestedFlow(t *testing.T) {
	v, err := Parse([]byte(`x: {a: [1, 2], b: {c: true}}`))
	if err != nil {
		t.Fatal(err)
	}
	x := v.(map[string]any)["x"].(map[string]any)
	if !reflect.DeepEqual(x["a"], []any{int64(1), int64(2)}) {
		t.Fatalf("a = %v", x["a"])
	}
	if x["b"].(map[string]any)["c"] != true {
		t.Fatalf("b.c = %v", x["b"])
	}
}

func TestEmptyFlowCollections(t *testing.T) {
	v, err := Parse([]byte("a: {}\nb: []\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if len(m["a"].(map[string]any)) != 0 {
		t.Fatal("a not empty map")
	}
	if m["b"] != nil && len(m["b"].([]any)) != 0 {
		t.Fatal("b not empty list")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# header\n\na: 1 # trailing\n# between\nb: 2\n"
	v, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["a"] != int64(1) || m["b"] != int64(2) {
		t.Fatalf("m = %v", m)
	}
}

func TestHashInsideQuotesIsNotComment(t *testing.T) {
	v, err := Parse([]byte(`a: "x # y"`))
	if err != nil {
		t.Fatal(err)
	}
	if v.(map[string]any)["a"] != "x # y" {
		t.Fatalf("a = %v", v.(map[string]any)["a"])
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"a: 1\n  b: 2\n",       // bad indent
		"a: {x: 1",             // unterminated flow map
		"a: [1, 2",             // unterminated flow seq
		"a: 1\na: 2\n",         // duplicate key
		"\tb: 2\n",             // tab indentation
		"a: {1, 2}\n",          // flow map without colon
		"just a scalar line\n", // not key: value
		"a: [1] trailing\n",    // garbage after flow
		"items:\n  -x\n",       // missing space after dash
		"a: x\ry\n",            // a bare CR ends the line, too
	}
	for _, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseMapRejectsSequenceRoot(t *testing.T) {
	if _, err := ParseMap([]byte("- a\n- b\n")); err == nil {
		t.Fatal("ParseMap accepted a sequence root")
	}
}

func TestEmptyDocument(t *testing.T) {
	v, err := Parse([]byte("   \n# only comments\n"))
	if err != nil || v != nil {
		t.Fatalf("Parse(empty) = %v, %v", v, err)
	}
	m, err := ParseMap(nil)
	if err != nil || len(m) != 0 {
		t.Fatalf("ParseMap(nil) = %v, %v", m, err)
	}
}

func TestNullValues(t *testing.T) {
	v, err := Parse([]byte("a:\nb: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["a"] != nil {
		t.Fatalf("a = %v, want nil", m["a"])
	}
}

// Property: any tree built from scalars, flow lists, and nested maps that
// we can render as yamlite round-trips through Parse.
func TestPropertyScalarRoundTrip(t *testing.T) {
	f := func(n int64, b bool, s uint16) bool {
		src := []byte(
			"i: " + itoa(n) + "\n" +
				"b: " + boolStr(b) + "\n" +
				"s: '" + string(rune('a'+s%26)) + "'\n")
		v, err := Parse(src)
		if err != nil {
			return false
		}
		m := v.(map[string]any)
		return m["i"] == n && m["b"] == b && m["s"] == string(rune('a'+s%26))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	var digits []byte
	u := uint64(n)
	if neg {
		u = uint64(-n) // overflows for MinInt64 but still round-trips below
	}
	if n == -9223372036854775808 {
		return "-9223372036854775808"
	}
	for u > 0 {
		digits = append([]byte{byte('0' + u%10)}, digits...)
		u /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
