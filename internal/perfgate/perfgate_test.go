package perfgate

import (
	"os"
	"sort"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
)

// TestBudgetsParse validates the embedded budget file: it must parse,
// and its name set must exactly match the workload table — a budget
// without a workload can never be measured, and a workload without a
// budget is silently ungated.
func TestBudgetsParse(t *testing.T) {
	budgets, err := Budgets()
	if err != nil {
		t.Fatal(err)
	}
	var budgetNames []string
	for _, b := range budgets {
		budgetNames = append(budgetNames, b.Name)
		if b.AllocsPerOp < 0 || b.BytesPerOp < 0 {
			t.Errorf("budget %q has negative limits", b.Name)
		}
	}
	sort.Strings(budgetNames)
	workloadNames := WorkloadNames()
	if len(budgetNames) != len(workloadNames) {
		t.Fatalf("budget names %v != workload names %v", budgetNames, workloadNames)
	}
	for i := range budgetNames {
		if budgetNames[i] != workloadNames[i] {
			t.Fatalf("budget names %v != workload names %v", budgetNames, workloadNames)
		}
	}
}

// TestPerfBudgets is the deterministic perf gate: it measures every
// budgeted workload's allocs/op and bytes/op and fails on any budget
// exceeded by more than Slack. CI runs exactly this test in the
// perf-gate job.
func TestPerfBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate measures full workloads; skipped in -short")
	}
	budgets, err := Budgets()
	if err != nil {
		t.Fatal(err)
	}
	results, err := MeasureAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-22s %8.2f allocs/op %12.1f bytes/op", r.Name, r.AllocsPerOp, r.BytesPerOp)
	}
	for _, v := range Check(budgets, results) {
		t.Errorf("perf budget violated: %s", v)
	}
}

// TestZeroAllocWorkloads cross-checks the zero-budget entries with
// testing.AllocsPerRun, an independent harness from perfgate's own
// MemStats deltas: every workload whose budget is 0 allocs/op must
// measure 0 there too.
func TestZeroAllocWorkloads(t *testing.T) {
	budgets, err := Budgets()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range budgets {
		if b.AllocsPerOp != 0 {
			continue
		}
		wl := workloads[b.Name]
		_, _, op := wl()
		op() // warm
		if avg := testing.AllocsPerRun(100, op); avg != 0 {
			t.Errorf("%s: testing.AllocsPerRun reports %.2f allocs/op, budget is 0", b.Name, avg)
		}
	}
}

// TestCheckFlagsRegressions exercises the gate logic itself with
// synthetic measurements so a bug in Check can't silently wave
// regressions through.
func TestCheckFlagsRegressions(t *testing.T) {
	budgets := []Budget{
		{Name: "zero", AllocsPerOp: 0, BytesPerOp: 0},
		{Name: "roomy", AllocsPerOp: 100, BytesPerOp: 9000, BaselineBytesPerOp: 10000, MaxBaselineBytesRatio: 0.7},
		{Name: "skipped", AllocsPerOp: 1, BytesPerOp: 1},
	}
	results := []Result{
		{Name: "zero", AllocsPerOp: 1, BytesPerOp: 8},       // any alloc busts a zero budget
		{Name: "roomy", AllocsPerOp: 105, BytesPerOp: 8000}, // within budget+slack on both, busts baseline ratio
	}
	violations := Check(budgets, results)
	want := map[string]bool{
		"zero/allocs/op": true,
		"zero/bytes/op":  true,
		"roomy/bytes/op vs pre-optimization baseline": true,
		"skipped/missing measurement":                 true,
	}
	got := map[string]bool{}
	for _, v := range violations {
		got[v.Name+"/"+v.Metric] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected violation %s, not reported (got %v)", k, violations)
		}
	}
	if got["roomy/allocs/op"] {
		t.Errorf("105 allocs/op is within 10%% slack of 100, must not violate")
	}
	if len(got) != len(want) {
		t.Errorf("unexpected extra violations: got %v want %v", got, want)
	}
}

// TestBulkScenarioIsTheBenchWorkload pins bulkScenario to the repository
// benchmark's bulk workload, so the bulk_pair_packet and
// bulk_explain_packet budgets count the run that bulk_write and
// bulk_explain time.
func TestBulkScenarioIsTheBenchWorkload(t *testing.T) {
	inline, err := config.Parse([]byte(bulkScenario))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := config.Load("../../bench/workloads/bulk.yaml")
	if err != nil {
		t.Fatal(err)
	}
	got, err := config.ContentHash(inline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := config.ContentHash(bench)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("bulkScenario hashes to %s, bench/workloads/bulk.yaml to %s", got, want)
	}
}

// TestKeyScenarioIsTheCorpusEntry pins keyScenario to the corpus entry
// it copies, byte for byte and by content hash, so scenario_key measures
// a real entry's canonical form.
func TestKeyScenarioIsTheCorpusEntry(t *testing.T) {
	const id = "a982ccd565a57c48"
	file, err := os.ReadFile("../../corpus/" + id + "/scenario.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != keyScenario {
		t.Errorf("keyScenario differs from corpus/%s/scenario.yaml", id)
	}
	cfg, err := config.Parse([]byte(keyScenario))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := config.ContentHash(cfg); err != nil || got != id {
		t.Errorf("keyScenario hashes to %s (%v), want %s", got, err, id)
	}
}

// BenchmarkWorkloads times every perfgate workload. An op is one call of
// the workload's operation: a whole run for the macro workloads, whose
// budgets are per simulated packet.
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range WorkloadNames() {
		b.Run(name, func(b *testing.B) {
			_, _, op := workloads[name]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
