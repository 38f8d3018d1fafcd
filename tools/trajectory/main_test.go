package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/perfgate"
)

// fixedGates stands in for perfgate.Measure with fixed figures, so a
// row's perfgate object is a literal, until the test ends.
func fixedGates(t *testing.T) {
	t.Helper()
	figures := map[string]perfgate.Result{
		"bulk_pair_packet":    {AllocsPerOp: 0.0812345, BytesPerOp: 228.06789},
		"bulk_explain_packet": {AllocsPerOp: 0.43, BytesPerOp: 778},
	}
	measure = func(name string) (perfgate.Result, error) {
		r, ok := figures[name]
		if !ok {
			return perfgate.Result{}, fmt.Errorf("no fixed figures for %q", name)
		}
		r.Name = name
		return r, nil
	}
	t.Cleanup(func() { measure = perfgate.Measure })
}

// TestAppendsOneRowPerRun reads the fixture result twice into a fresh
// trajectory: two identical lines, each the literal row below, with the
// figures rounded, the workloads sorted, the observer ratios derived,
// the exact counts copied where the result traced them and the perfgate
// figures per packet.
func TestAppendsOneRowPerRun(t *testing.T) {
	fixedGates(t)
	out := filepath.Join(t.TempDir(), "PERF_TRAJECTORY.jsonl")
	args := []string{"-result", "testdata/result.json", "-out", out, "-commit", "0123456"}
	for range 2 {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"commit":"0123456","source":"quick","seed":1,"calibration_ns":37012.4,"workloads":{` +
		`"bulk_explain":{"op_ms_p50":20.988,"allocs_per_op":4700,"alloc_kb_per_op":10138.5,"sim_pkts_per_s":491800},` +
		`"bulk_write":{"op_ms_p50":12.346,"allocs_per_op":1041,"alloc_kb_per_op":5069.25,"sim_pkts_per_s":836123.457,"sim_pkts_per_op":10322,"sim_events_per_op":20645},` +
		`"serve_mix":{"op_ms_p50":0.29,"allocs_per_op":1457,"alloc_kb_per_op":173,"sim_pkts_per_s":0}},` +
		`"explain_over_write":{"op_ms_p50":1.7,"alloc_kb_per_op":2},` +
		`"perfgate":{"bulk_explain_packet":{"allocs_per_pkt":0.43,"bytes_per_pkt":778},` +
		`"bulk_pair_packet":{"allocs_per_pkt":0.081,"bytes_per_pkt":228.068}}}` + "\n"
	if got := string(data); got != want+want {
		t.Fatalf("trajectory:\n%s\nwant twice:\n%s", got, want)
	}
}

// TestGatesAreBudgetedWorkloads: every gate a row records is a workload
// the perfgate budgets hold.
func TestGatesAreBudgetedWorkloads(t *testing.T) {
	budgets, err := perfgate.Budgets()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range gateNames {
		if !slices.ContainsFunc(budgets, func(b perfgate.Budget) bool { return b.Name == name }) {
			t.Errorf("gate %q has no perfgate budget", name)
		}
	}
}

// TestSourceIsHowTheResultWasMeasured: a quick ladder's row and a full
// ladder's row say which they are.
func TestSourceIsHowTheResultWasMeasured(t *testing.T) {
	data, err := os.ReadFile("testdata/result.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := readResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if row := makeRow(r, "c"); row.Source != "quick" {
		t.Fatalf("a quick ladder's row has source %q", row.Source)
	}
	r.Quick = false
	if row := makeRow(r, "c"); row.Source != "ladder" {
		t.Fatalf("a full ladder's row has source %q", row.Source)
	}
}

func TestRefusesWhatIsNotAResult(t *testing.T) {
	for _, doc := range []string{
		``,
		`{"schema": "lumina-bench/2", "workloads": [{"name": "bulk_write"}]}`,
		`{"schema": "lumina-bench/1", "workloads": []}`,
		`{"schema": "lumina-bench/1", "workloads": {}}`,
	} {
		if _, err := readResult([]byte(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
	out := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run([]string{"-result", "testdata/missing.json", "-out", out, "-commit", "c"}); err == nil {
		t.Error("a missing result file appended a row")
	}
	if err := run([]string{"-result", "testdata/result.json", "-out", out}); err == nil || !strings.Contains(err.Error(), "-commit") {
		t.Errorf("no commit: %v", err)
	}
	if err := run([]string{"-out", out, "-commit", "c", "extra"}); err == nil || !strings.Contains(err.Error(), "extra") {
		t.Errorf("a stray argument: %v", err)
	}
	if err := run([]string{"-out", out, "-commit", "c", "-profile", "bulk_write=cpu.pprof"}); err == nil || !strings.Contains(err.Error(), "bulk_write") {
		t.Errorf("a profile of a workload no row records: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run created the trajectory: %v", err)
	}
}

// TestCheckedInTrajectoryIsWellFormed holds every line of the
// repository's trajectory to the row format: it decodes with no unknown
// field and nothing after the row, names its commit, says how it was
// measured, and names only workloads the benchmark declares.
func TestCheckedInTrajectoryIsWellFormed(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range bench.Workloads {
		declared[w.Name] = true
	}
	sources := map[string]bool{"reanchor-quick": true, "quick": true, "ladder": true}

	data, err = os.ReadFile("../../PERF_TRAJECTORY.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, line := range lines {
		var r row
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Errorf("line %d: %v", i+1, err)
			continue
		}
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			t.Errorf("line %d: more than one row: %v", i+1, err)
		}
		if r.Commit == "" {
			t.Errorf("line %d: no commit", i+1)
		}
		if !sources[r.Source] {
			t.Errorf("line %d: source %q", i+1, r.Source)
		}
		for name := range r.Workloads {
			if !declared[name] {
				t.Errorf("line %d: workload %q is not in BENCHMARK.json", i+1, name)
			}
		}
	}
}
