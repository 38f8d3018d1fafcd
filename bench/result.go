package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultSchema versions bench/out/result.json.
const resultSchema = "lumina-bench/1"

// hostInfo is the result header: what the numbers were measured on.
type hostInfo struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Go            string  `json:"go"`
	Version       string  `json:"version"` // version.Stamp() of the benchmarked build
	CalibrationNs float64 `json:"calibration_ns"`
}

// workloadResult is one workload's row of result.json.
type workloadResult struct {
	Name      string `json:"name"`
	TimedOps  int    `json:"timed_ops"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds every end-to-end metric plus fail_ratio.
	EndToEnd map[string]float64 `json:"end_to_end"`
	// Spread is the spread of the timing metrics between the rounds of
	// the timed child (see runTimed).
	Spread map[string]float64 `json:"spread"`
	// PerLayer holds the per-layer metrics this workload exercises.
	PerLayer map[string]float64 `json:"per_layer"`
	Failures []string           `json:"failures,omitempty"`
}

type resultFile struct {
	Schema    string           `json:"schema"`
	Quick     bool             `json:"quick"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *resultFile) write(path string) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func (r *resultFile) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// print writes every metric by name with its unit.
func (r *resultFile) print(w io.Writer) {
	fmt.Fprintf(w, "lumina bench  seed=%d seconds=%d quick=%t  nproc=%d GOMAXPROCS=%d %s version=%s calibration=%.0f ns\n",
		r.Seed, r.Seconds, r.Quick, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Version, r.Host.CalibrationNs)
	defs := map[string]metricDef{}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  (%d timed ops, %d attempted, %d failed)\n", wr.Name, wr.TimedOps, wr.Attempted, wr.Failed)
		if wl := findWorkload(wr.Name); wl != nil {
			fmt.Fprintf(w, "   why: %s\n", wl.why)
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-7s bound 0 (absolute)\n", failRatio, wr.EndToEnd[failRatio], "ratio")
		for _, d := range endToEnd {
			note := ""
			if d.Name == "op_ms_p50" || d.Name == "op_ms_p90" {
				note = fmt.Sprintf("  n=%d", wr.TimedOps)
			}
			fmt.Fprintf(w, "   %-34s %14.4f %-7s bound %.0f%% (%s is better)%s\n",
				d.Name, wr.EndToEnd[d.Name], d.Unit, d.Bound*100, d.Better, note)
		}
		names := make([]string, 0, len(wr.PerLayer))
		for n := range wr.PerLayer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			exact := ""
			if defs[n].Exact {
				exact = "  exact"
			}
			fmt.Fprintf(w, "   %-34s %14.4f %-7s%s\n", n, wr.PerLayer[n], defs[n].Unit, exact)
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
	}
}
