// Command bench is the repository benchmark: a ladder of six workloads
// over Lumina's public packages, eight end-to-end metrics measured with
// tracing off, and a traced pass that times each layer from outside.
// See README.md in this directory.
//
//	go run ./bench                      every workload, timed then traced; writes bench/out/
//	go run ./bench -quick               smoke run, a few ops per workload
//	go run ./bench -compare A.json B.json
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is one child of the ladder and also what the benchmark
// driver invokes: it runs one workload in this process and prints the
// driver's result object as the last line of standard output.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"github.com/lumina-sim/lumina/internal/version"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process, and print the driver's result line")
		seed    = flag.Int64("seed", 1, "workload seed: feeds the benchmark's generators only")
		seconds = flag.Int("seconds", refSeconds, "scales every workload's fixed op count; the table counts are for "+strconv.Itoa(refSeconds))
		traced  = flag.Int("trace", 0, "with -workload: 0 measures end-to-end metrics with tracing off, 1 runs the traced pass")
		quick   = flag.Bool("quick", false, "smoke mode: a few ops per workload, result marked quick")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()

	if *cmp {
		return runCompare(flag.Args())
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	e, err := newEnv(*seed, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(e.work)
	if *name != "" {
		return runChild(e, *name, *seconds, *traced == 1)
	}
	return runLadder(e, *seconds)
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		var err error
		if files[i], err = readResult(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	regressed, err := compare(os.Stdout, files[0], files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// runChild runs one workload in this process, so heap state, caches and
// ru_maxrss never leak between workloads.
func runChild(e *env, name string, seconds int, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	pl := w.planFor(seconds, e.quick, traced)
	var res childResult
	var cd childDetail
	if traced {
		res, cd = runTraced(e, w, pl)
	} else {
		res, cd = runTimed(e, w, pl)
	}
	for _, f := range cd.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, f)
	}
	detail, _ := json.Marshal(cd)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, detail, line)
	return 0
}

// spawn re-executes this binary for one workload and parses the two
// lines it ends with.
func spawn(e *env, name string, seconds int, traced bool) (childResult, childDetail, error) {
	var res childResult
	var cd childDetail
	exe, err := os.Executable()
	if err != nil {
		return res, cd, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(e.seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if e.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, cd, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte(detailPrefix)); ok {
			if err := json.Unmarshal(rest, &cd); err != nil {
				return res, cd, err
			}
		}
		last = append(last[:0], sc.Bytes()...)
	}
	return res, cd, json.Unmarshal(last, &res)
}

// runLadder runs every workload timed, then traced, checks the results
// against each other, prints them and writes bench/out/result.json.
func runLadder(e *env, seconds int) int {
	out := resultFile{
		Schema: resultSchema, Quick: e.quick, Seed: e.seed, Seconds: seconds,
		Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Version: version.Stamp(), CalibrationNs: calibrate()},
	}
	failed := false
	for i := range workloads {
		w := &workloads[i]
		wr := workloadResult{Name: w.name, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for _, traced := range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "bench: %s (traced=%t)\n", w.name, traced)
			res, cd, err := spawn(e, w.name, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, cd.Failures...)
			if !traced {
				wr.TimedOps, wr.Spread = cd.TimedOps, cd.Spread
				for name, v := range res.Metrics {
					wr.EndToEnd[name] = v.Value
				}
				continue
			}
			for _, name := range cd.Measured {
				wr.PerLayer[name] = res.Metrics[name].Value
			}
		}
		wr.EndToEnd[failRatio] = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		if !e.quick && !supported(wr.TimedOps, 0.9) {
			wr.Failures = append(wr.Failures, fmt.Sprintf("op_ms_p90 has %d samples beyond it of %d ops; needs %d", samplesBeyond(wr.TimedOps, 0.9), wr.TimedOps, minBeyond))
		}
		failed = failed || wr.Failed > 0 || len(wr.Failures) > 0
		out.Workloads = append(out.Workloads, wr)
	}
	for _, msg := range crossCheck(&out) {
		fmt.Fprintln(os.Stderr, "bench: observe-only check:", msg)
		failed = true
	}
	out.print(os.Stdout)
	path := filepath.Join(e.out, "result.json")
	if err := out.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(e.out, "trace_<workload>.json"))
	if failed {
		fmt.Fprintln(os.Stderr, "bench: FAILED (see above)")
		return 1
	}
	return 0
}

// crossCheck is the cross-workload observe-only check: bulk_write and
// bulk_explain simulate the same scenario, so turning every observer on
// must leave the simulated history identical. (incast_shards2 checks
// itself against its Shards=1 probe inside its traced child.)
func crossCheck(r *resultFile) []string {
	a, b := r.workload(wBulkWrite), r.workload(wBulkExplain)
	if a == nil || b == nil {
		return nil
	}
	var msgs []string
	for _, name := range observeOnly {
		if a.PerLayer[name] != b.PerLayer[name] {
			msgs = append(msgs, fmt.Sprintf("%s: %s reports %v, %s reports %v", name, wBulkWrite, a.PerLayer[name], wBulkExplain, b.PerLayer[name]))
		}
	}
	return msgs
}
