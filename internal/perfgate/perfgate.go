// Package perfgate enforces deterministic performance budgets for the
// hot paths of the simulator.
//
// Wall-clock benchmarks are useless as CI gates: they measure the
// runner's CPU, not the code. Allocation counts and allocated bytes per
// operation, by contrast, are deterministic properties of the compiled
// program — the same on a laptop and a loaded CI VM — so they can be
// budgeted, checked in, and gated without flakiness (see DESIGN.md
// §3.10). The budgets live in perf_budgets.json next to this file and
// are embedded into the binary; TestPerfBudgets measures the named
// workloads and fails when any measurement exceeds its budget by more
// than Slack (10%). Zero budgets gate hard: a path promised to be
// allocation-free fails on the first stray allocation.
// BenchmarkWorkloads times the same workloads.
package perfgate

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
)

//go:embed perf_budgets.json
var budgetsJSON []byte

// Slack is the tolerated fractional overshoot above a budget before the
// gate fails: measured ≤ budget × (1 + Slack). A zero budget tolerates
// nothing — 1.1 × 0 is still 0.
const Slack = 0.10

// Budget is one named workload's checked-in allocation budget.
type Budget struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// BaselineAllocsPerOp / BaselineBytesPerOp record the pre-optimization
	// measurements this budget was cut from. They are documentation plus
	// the denominator for MaxBaselineBytesRatio; the gate never compares
	// against them directly.
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  float64 `json:"baseline_bytes_per_op"`

	// AllocsPerOp / BytesPerOp are the budgets: measurements above
	// budget × (1 + Slack) fail the gate.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// MaxBaselineBytesRatio, when positive, additionally requires
	// measured bytes/op ≤ ratio × BaselineBytesPerOp — the "stay at least
	// 30% below the pre-optimization baseline" acceptance criterion is a
	// ratio of 0.7.
	MaxBaselineBytesRatio float64 `json:"max_baseline_bytes_ratio,omitempty"`
}

type budgetFile struct {
	Budgets []Budget `json:"budgets"`
}

// Budgets returns the embedded budget table.
func Budgets() ([]Budget, error) {
	var f budgetFile
	if err := json.Unmarshal(budgetsJSON, &f); err != nil {
		return nil, fmt.Errorf("perfgate: parsing embedded perf_budgets.json: %w", err)
	}
	if len(f.Budgets) == 0 {
		return nil, fmt.Errorf("perfgate: embedded perf_budgets.json has no budgets")
	}
	seen := map[string]bool{}
	for _, b := range f.Budgets {
		if b.Name == "" {
			return nil, fmt.Errorf("perfgate: budget with empty name")
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("perfgate: duplicate budget %q", b.Name)
		}
		seen[b.Name] = true
	}
	return f.Budgets, nil
}

// Result is one workload measurement. "Op" is the workload's unit: one
// operation for most, one simulated packet for the macro workloads (see
// workloadFn).
type Result struct {
	Name        string  `json:"name"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Violation is one budget the measurements broke.
type Violation struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"` // "allocs/op" or "bytes/op"
	Measured float64 `json:"measured"`
	Allowed  float64 `json:"allowed"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %.2f %s exceeds budget of %.2f", v.Name, v.Measured, v.Metric, v.Allowed)
}

// WorkloadNames lists the measurable workloads in sorted order.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// measurePasses is how many times each workload is sampled; the minimum
// across passes is reported, since noise (a GC finalizer, a lazily
// initialized table) only ever adds allocations.
const measurePasses = 3

// Measure runs the named workload and reports its per-operation
// allocation profile via runtime.MemStats deltas.
func Measure(name string) (Result, error) {
	wl, ok := workloads[name]
	if !ok {
		return Result{}, fmt.Errorf("perfgate: unknown workload %q (have %v)", name, WorkloadNames())
	}
	ops, units, op := wl()
	if ops <= 0 || units <= 0 {
		return Result{}, fmt.Errorf("perfgate: workload %q declared %d ops of %d units", name, ops, units)
	}
	op() // warm caches, lazy tables, pools
	res := Result{Name: name}
	for pass := 0; pass < measurePasses; pass++ {
		allocs, bytes := measureOnce(ops, units, op)
		if pass == 0 || allocs < res.AllocsPerOp {
			res.AllocsPerOp = allocs
		}
		if pass == 0 || bytes < res.BytesPerOp {
			res.BytesPerOp = bytes
		}
	}
	return res, nil
}

func measureOnce(ops, units int, op func()) (allocsPerUnit, bytesPerUnit float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := float64(ops) * float64(units)
	return float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// MeasureAll measures every budgeted workload.
func MeasureAll() ([]Result, error) {
	budgets, err := Budgets()
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(budgets))
	for _, b := range budgets {
		r, err := Measure(b.Name)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Check compares measurements against budgets and returns every
// violation (empty = gate passes). Budgets without a matching result are
// reported as violations too: a silently skipped workload must not pass.
func Check(budgets []Budget, results []Result) []Violation {
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	var out []Violation
	for _, b := range budgets {
		r, ok := byName[b.Name]
		if !ok {
			out = append(out, Violation{Name: b.Name, Metric: "missing measurement", Measured: -1, Allowed: 0})
			continue
		}
		if allowed := b.AllocsPerOp * (1 + Slack); r.AllocsPerOp > allowed {
			out = append(out, Violation{Name: b.Name, Metric: "allocs/op", Measured: r.AllocsPerOp, Allowed: allowed})
		}
		if allowed := b.BytesPerOp * (1 + Slack); r.BytesPerOp > allowed {
			out = append(out, Violation{Name: b.Name, Metric: "bytes/op", Measured: r.BytesPerOp, Allowed: allowed})
		}
		if b.MaxBaselineBytesRatio > 0 {
			if allowed := b.MaxBaselineBytesRatio * b.BaselineBytesPerOp; r.BytesPerOp > allowed {
				out = append(out, Violation{Name: b.Name, Metric: "bytes/op vs pre-optimization baseline", Measured: r.BytesPerOp, Allowed: allowed})
			}
		}
	}
	return out
}
