// Command trajectory appends one row to the performance trajectory: it
// reads a repository-benchmark result file (schema lumina-bench/1, as
// `go run ./bench` writes to bench/out/result.json) and appends one JSON
// line to PERF_TRAJECTORY.jsonl holding the commit, the host's
// calibration and, per workload, op p50, allocations and KiB per op,
// simulated packets per second and, where the result traced them, the
// exact simulated packets and events per op. When the result holds both
// bulk_explain and bulk_write it also records their ratios, the observer
// cost. It then measures the bulk_pair_packet and bulk_explain_packet
// allocation gates (internal/perfgate) in this process and records their
// allocations and bytes per simulated packet.
//
//	go run ./tools/trajectory -commit "$(git rev-parse --short HEAD)"
//
// A perf claim is then a diff between two lines of the file.
//
// -profile [WORKLOAD=]FILE (repeatable) folds a CPU profile, or a heap
// profile's alloc_space, onto the layers a packet crosses (see
// foldProfile), read through `go tool pprof -raw`; -packets N makes the
// figures per simulated packet. Without -commit the folds are printed;
// with it they go into the row's layers object, under the perfgate
// workload the profile measured: bulk_pair_packet unless WORKLOAD names
// bulk_explain_packet.
//
//	go test -run '^$' -bench 'Workloads/bulk_pair_packet$' -benchtime 200x \
//	    -cpuprofile cpu.pprof ./internal/perfgate
//	go test -run '^$' -bench 'Workloads/bulk_pair_packet$' -benchtime 200x \
//	    -memprofilerate 1 -memprofile mem.pprof ./internal/perfgate
//	go run ./tools/trajectory -profile cpu.pprof -profile mem.pprof -packets 2095366
//
// The two profiles come from two runs: under -memprofilerate 1 every
// allocation pays for a heap sample, which would inflate the CPU share
// of the layers that allocate most. With -benchtime Nx a profile holds
// N+3 runs of the bulk scenario's 10 322 packets: the N timed runs, the
// b.N=1 round's run, and one run per round that counts the packets. Both
// workloads run that scenario, so profiles of the two at one -benchtime
// share -packets.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"github.com/lumina-sim/lumina/internal/perfgate"
)

const resultSchema = "lumina-bench/1"

// result is the part of a benchmark result file a row reads.
type result struct {
	Schema string `json:"schema"`
	Quick  bool   `json:"quick"`
	Seed   int64  `json:"seed"`
	Host   struct {
		CalibrationNs float64 `json:"calibration_ns"`
	} `json:"host"`
	Workloads []struct {
		Name     string             `json:"name"`
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	} `json:"workloads"`
}

// point is one workload's figures in a row. The exact counts are
// absent when the result did not trace the workload.
type point struct {
	OpMsP50        float64 `json:"op_ms_p50"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	AllocKBPerOp   float64 `json:"alloc_kb_per_op"`
	SimPktsPerS    float64 `json:"sim_pkts_per_s"`
	SimPktsPerOp   float64 `json:"sim_pkts_per_op,omitempty"`
	SimEventsPerOp float64 `json:"sim_events_per_op,omitempty"`
}

// ratio is bulk_explain over bulk_write: what observing a run costs.
type ratio struct {
	OpMsP50      float64 `json:"op_ms_p50"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
}

// gate is one perfgate workload's allocation profile per simulated
// packet.
type gate struct {
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	BytesPerPkt  float64 `json:"bytes_per_pkt"`
}

// row is one line of the trajectory. Workloads and Perfgate are maps, so
// encoding sorts them by name. Rows written before the perfgate figures
// were recorded have none.
type row struct {
	Commit        string            `json:"commit"`
	Source        string            `json:"source"`
	Seed          int64             `json:"seed"`
	CalibrationNs float64           `json:"calibration_ns"`
	Workloads     map[string]point  `json:"workloads"`
	ExplainWrite  *ratio            `json:"explain_over_write,omitempty"`
	Perfgate      map[string]gate   `json:"perfgate,omitempty"`
	Layers        map[string]layers `json:"layers,omitempty"`
}

// layers is one workload's profile folds in a row, per simulated
// packet: CPU nanoseconds and allocated bytes by layer, each with the
// number of samples it sums.
type layers struct {
	CPUSamples       int                `json:"cpu_samples,omitempty"`
	CPUNsPerPkt      map[string]float64 `json:"cpu_ns_per_pkt,omitempty"`
	AllocSamples     int                `json:"alloc_samples,omitempty"`
	AllocBytesPerPkt map[string]float64 `json:"alloc_bytes_per_pkt,omitempty"`
}

// gateNames are the perfgate workloads a row records: the benchmark's
// bulk run per simulated packet, bare and with every observer on.
var gateNames = []string{"bulk_pair_packet", "bulk_explain_packet"}

// measure is perfgate.Measure; tests put a fixed measurement in its
// place.
var measure = perfgate.Measure

// measureGates measures every gate a row records.
func measureGates() (map[string]gate, error) {
	out := map[string]gate{}
	for _, name := range gateNames {
		m, err := measure(name)
		if err != nil {
			return nil, err
		}
		out[name] = gate{AllocsPerPkt: round(m.AllocsPerOp), BytesPerPkt: round(m.BytesPerOp)}
	}
	return out, nil
}

// round keeps three decimals: enough for a millisecond p50, and a row
// stays readable.
func round(v float64) float64 { return math.Round(v*1000) / 1000 }

// readResult decodes a result file, refusing any other schema.
func readResult(data []byte) (*result, error) {
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("schema %q, want %q", r.Schema, resultSchema)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New("no workloads")
	}
	return &r, nil
}

// makeRow condenses a result into a trajectory row. Its source is
// "quick" or "ladder", by how the result was measured.
func makeRow(r *result, commit string) row {
	source := "ladder"
	if r.Quick {
		source = "quick"
	}
	out := row{
		Commit: commit, Source: source, Seed: r.Seed,
		CalibrationNs: round(r.Host.CalibrationNs),
		Workloads:     map[string]point{},
	}
	for _, w := range r.Workloads {
		e := w.EndToEnd
		out.Workloads[w.Name] = point{
			OpMsP50:        round(e["op_ms_p50"]),
			AllocsPerOp:    round(e["allocs_per_op"]),
			AllocKBPerOp:   round(e["alloc_kb_per_op"]),
			SimPktsPerS:    round(e["sim_pkts_per_s"]),
			SimPktsPerOp:   w.PerLayer["sim.pkts_per_op"],
			SimEventsPerOp: w.PerLayer["sim.events_per_op"],
		}
	}
	explain, ok1 := out.Workloads["bulk_explain"]
	write, ok2 := out.Workloads["bulk_write"]
	if ok1 && ok2 && write.OpMsP50 > 0 && write.AllocKBPerOp > 0 {
		out.ExplainWrite = &ratio{
			OpMsP50:      round(explain.OpMsP50 / write.OpMsP50),
			AllocKBPerOp: round(explain.AllocKBPerOp / write.AllocKBPerOp),
		}
	}
	return out
}

// appendRow appends r to the file at path as one line, creating it.
func appendRow(path string, r row) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

func run(args []string) error {
	fs := flag.NewFlagSet("trajectory", flag.ContinueOnError)
	in := fs.String("result", "bench/out/result.json", "benchmark result file to read")
	out := fs.String("out", "PERF_TRAJECTORY.jsonl", "trajectory file to append to")
	commit := fs.String("commit", "", "commit the result measures (required unless only folding profiles)")
	var profiles, workloads []string
	fs.Func("profile", "CPU or heap profile `file` to fold onto layers, as WORKLOAD=FILE when it measured another perfgate workload than "+gateNames[0]+" (repeatable)", func(f string) error {
		w, file, ok := strings.Cut(f, "=")
		if !ok {
			w, file = gateNames[0], f
		}
		if !slices.Contains(gateNames, w) {
			return fmt.Errorf("%s is not a workload a row records (%s)", w, strings.Join(gateNames, ", "))
		}
		profiles, workloads = append(profiles, file), append(workloads, w)
		return nil
	})
	packets := fs.Int("packets", 0, "simulated packets the profiled run executed, for per-packet figures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *packets < 0 {
		return fmt.Errorf("-packets %d is negative", *packets)
	}
	folds := make([]*fold, len(profiles))
	for i, f := range profiles {
		var err error
		if folds[i], err = readProfile(f); err != nil {
			return err
		}
	}
	if *commit == "" {
		if len(profiles) == 0 {
			return errors.New("-commit is required")
		}
		for i, f := range folds {
			f.print(os.Stdout, workloads[i]+"="+profiles[i], *packets)
		}
		return nil
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	r, err := readResult(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	row := makeRow(r, *commit)
	if len(folds) > 0 {
		if row.Layers, err = layersOf(folds, workloads, *packets); err != nil {
			return err
		}
	}
	if row.Perfgate, err = measureGates(); err != nil {
		return err
	}
	return appendRow(*out, row)
}

// layersOf puts the folds into a row's layers object, per packet, each
// under the workload its profile measured.
func layersOf(folds []*fold, workloads []string, packets int) (map[string]layers, error) {
	if packets == 0 {
		return nil, errors.New("a row's layers need -packets")
	}
	out := map[string]layers{}
	for i, f := range folds {
		l := out[workloads[i]]
		switch f.kind {
		case "cpu/nanoseconds":
			l.CPUSamples, l.CPUNsPerPkt = f.samples, f.perPacket(packets)
		default:
			l.AllocSamples, l.AllocBytesPerPkt = f.samples, f.perPacket(packets)
		}
		out[workloads[i]] = l
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "trajectory:", err)
		}
		os.Exit(1)
	}
}
