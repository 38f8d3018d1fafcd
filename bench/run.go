package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// processStart anchors setup_s at child start, before flag parsing.
var processStart = time.Now()

const (
	// refSeconds is BENCHMARK.json's run_seconds: at -seconds refSeconds
	// every workload runs the op count in its table entry, sized so the
	// timed ops take at most about that long on a 2-vCPU box. Other
	// values scale the counts linearly. The count, not the clock, ends a
	// run, so two commits always do the same work.
	refSeconds = 20
	// rounds is how many times a timed child sets up, warms up and runs
	// a fifth of its timed ops. setup_s is the median of the five
	// set-ups, and the spread between the rounds is the within-run
	// spread -compare reports as unresolved.
	rounds = 5
	// minTimedOps keeps op_ms_p90 supported (ten samples beyond it)
	// however far -seconds scales a run down.
	minTimedOps = 100
	// tracedOps is how many ops the traced pass spans per workload.
	tracedOps = 20

	serveClients = 2
)

// phase says what an op is for, which decides whether it runs staged
// and spanned.
type phase int

const (
	phaseWarm     phase = iota // not measured
	phaseTimed                 // the end-to-end measurement, tracing off
	phaseUntraced              // traced pass's control: staged ops, spans off
	phaseTraced                // staged ops, spans on
)

// plan is how many ops each phase runs: warm and timed per round of a
// timed child, warm and traced (spans off, then again spans on) in a
// traced child.
type plan struct{ warm, timed, traced int }

// env is what every workload needs from its surroundings.
type env struct {
	root  string // repository root: holds corpus/ and bench/
	out   string // bench/out
	work  string // scratch directory under out, removed at exit
	seed  int64
	quick bool

	preconditioned bool // see precondition
}

// scenarioSeed draws the n-th scenario seed of a workload from the
// workload seed. Simulated scenarios get their seeds here and nowhere
// else.
func (e *env) scenarioSeed(workload string, n int) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(e.seed ^ int64(h.Sum64()>>1)))
	var s int64
	for i := 0; i <= n; i++ {
		s = rng.Int63n(1<<31) + 1
	}
	return s
}

// instance is a workload after set-up. op runs client c's i-th op of a
// phase as one closed-loop step and returns how long the op itself took
// (excluding the benchmark's own checks), the switch packets it
// simulated, and why it failed, if it did. layers turns a finished
// traced pass into the workload's per-layer metrics, running the
// workload's own probes.
type instance interface {
	op(ph phase, c, i int) (time.Duration, uint64, error)
	layers(r *tracedRun, m map[string]float64) error
	close()
}

// tracedRun is what the traced pass hands a workload.
type tracedRun struct {
	spans   []span
	plainMs []float64 // op latencies of the spans-off control phase
}

// settler lets a workload count simulated packets after the timed ops
// instead of inside each op.
type settler interface{ settle() (uint64, error) }

type workload struct {
	name string
	why  string
	// ops is the timed op count of one round at refSeconds; granule the
	// multiple op counts are rounded to; clients the closed-loop client
	// count.
	ops, granule, clients int
	traced                int
	quick                 plan
	setup                 func(e *env, name string, pl plan, tr *tracer) (instance, error)
}

var workloads = []workload{
	{name: wBulkWrite, ops: 40, granule: 1, clients: 1, traced: tracedOps, quick: plan{1, 1, 3}, setup: setupSim,
		why: "per-packet data path only (rnic, sim.Port, injector, mirror, dumper, reconstruct); observers off, so data-path gains show here"},
	{name: wBulkExplain, ops: 20, granule: 1, clients: 1, traced: tracedOps, quick: plan{1, 1, 3}, setup: setupSim,
		why: "same simulated history with telemetry, lineage, INT, coverage and artifact writing on: observer-side costs show here, not in bulk_write"},
	{name: wNoisyRead, ops: 24, granule: 1, clients: 1, traced: tracedOps, quick: plan{1, 1, 3}, setup: setupSim,
		why: "36 Read QPs with drops, NAK/RTO recovery and timer churn: catches a Write-path gain that taxes Reads, timers or per-QP state"},
	{name: wIncastShards, ops: 20, granule: 1, clients: 1, traced: tracedOps, quick: plan{1, 1, 3}, setup: setupSim,
		why: "the only workload on sim.Fabric (16-host incast, Shards=2): pair-path changes leave it flat and it answers whether sharding pays"},
	{name: wCorpusCold, ops: 150, granule: 1, clients: 1, traced: tracedOps, quick: plan{1, 1, 3}, setup: setupCorpus,
		why: "30 small uncached cells per op on 2 engine workers: parse, build, validate, fan-out, digest and judge dominate, the data path does little"},
	{name: wServeMix, ops: 10 * serveOpsPerSeed, granule: serveOpsPerSeed, clients: serveClients, traced: 2 * serveOpsPerSeed, quick: plan{2 * requestsPerKey, 2 * requestsPerKey, 4 * requestsPerKey}, setup: setupServe,
		why: "real loopback HTTP, 2 closed-loop clients, every key requested 4 times (1 miss, 3 cache hits): serve, resultcache and engine do the work"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// planFor sizes a child. Each round of a timed child warms up with a
// tenth of its timed ops; a traced child has no timed phase.
func (w *workload) planFor(seconds int, quick, traced bool) plan {
	if quick {
		pl := w.quick
		if traced {
			pl.timed = 0
		} else {
			pl.traced = 0
		}
		return pl
	}
	round := func(n int) int { return max(w.granule, (n+w.granule/2)/w.granule*w.granule) }
	if traced {
		return plan{warm: round(w.traced / 4), traced: w.traced}
	}
	timed := round(max(minTimedOps/rounds, w.ops*seconds/refSeconds))
	return plan{warm: round((timed + 9) / 10), timed: timed}
}

// phaseResult is one closed-loop phase: every op's latency in
// completion order per client, clients concatenated.
type phaseResult struct {
	latMs    []float64
	pkts     uint64
	failed   int
	failures []string
}

func (r *phaseResult) add(o phaseResult) {
	r.latMs = append(r.latMs, o.latMs...)
	r.pkts += o.pkts
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

// runPhases runs n ops of each given phase as a closed loop: each
// client sends its next op only when the previous one has completed.
// Given several phases, a client alternates between them op by op, so
// host drift hits all of them alike. Results are in phase order.
func runPhases(inst instance, clients, n int, phases ...phase) []phaseResult {
	per := make([][]phaseResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		per[c] = make([]phaseResult, len(phases))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n/clients; i++ {
				for p, ph := range phases {
					r := &per[c][p]
					d, pkts, err := inst.op(ph, c, i)
					r.latMs = append(r.latMs, float64(d)/1e6)
					r.pkts += pkts
					if err != nil {
						r.failed++
						r.failures = append(r.failures, fmt.Sprintf("client %d op %d: %v", c, i, err))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	all := make([]phaseResult, len(phases))
	for c := range per {
		for p := range phases {
			all[p].add(per[c][p])
		}
	}
	return all
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is the last line a child prints: the driver's contract.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childDetail is what the ladder needs beyond the contract line; the
// child prints it on the line before, prefixed detailPrefix.
type childDetail struct {
	TimedOps int                `json:"timed_ops,omitempty"`
	Spread   map[string]float64 `json:"spread,omitempty"`
	// Measured names the per-layer metrics this workload exercises; the
	// contract line carries all of them, the rest as 0.
	Measured []string `json:"measured,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

const detailPrefix = "detail: "

func (cd *childDetail) fail(msgs ...string) {
	for _, m := range msgs {
		if len(cd.Failures) < 10 {
			cd.Failures = append(cd.Failures, m)
		}
	}
}

// pack renders values under defs into the contract's metric map.
func pack(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// newEnv prepares bench/out and a scratch directory inside it. The
// working directory must be the repository root.
func newEnv(seed int64, quick bool) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "workloads")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out"), seed: seed, quick: quick}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(e.out, "work-"); err != nil {
		return nil, err
	}
	return e, nil
}

// runTimed is a child with tracing off. Each of its rounds sets the
// workload up afresh, warms it up and runs a share of the timed ops;
// the rounds' ops are pooled into the end-to-end metrics.
func runTimed(e *env, w *workload, pl plan) (childResult, childDetail) {
	var cd childDetail
	var res childResult
	var timed phaseResult
	var setups, roundP50, roundP90, roundRate []float64
	var mallocs, allocBytes uint64
	t0 := processStart
	for k := 0; k < rounds; k++ {
		inst, err := w.setup(e, w.name, pl, nil)
		if err != nil {
			cd.fail("set-up: " + err.Error())
			res.Attempted, res.Failed = res.Attempted+1, res.Failed+1
			res.Metrics = pack(endToEnd, nil)
			return res, cd
		}
		warm := runPhases(inst, w.clients, pl.warm, phaseWarm)[0]
		setups = append(setups, time.Since(t0).Seconds())

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := runPhases(inst, w.clients, pl.timed, phaseTimed)[0]
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		if s, ok := inst.(settler); ok {
			pkts, err := s.settle()
			if err != nil {
				r.failed++
				r.failures = append(r.failures, "settle: "+err.Error())
			}
			r.pkts += pkts
		}
		inst.close()

		res.Attempted += len(warm.latMs) + len(r.latMs)
		res.Failed += warm.failed
		cd.fail(warm.failures...)
		lat := sorted(r.latMs)
		roundP50 = append(roundP50, percentile(lat, 0.5))
		roundP90 = append(roundP90, percentile(lat, 0.9))
		roundRate = append(roundRate, float64(len(lat))/sum(lat))
		timed.add(r)
		t0 = time.Now()
	}
	res.Failed += timed.failed
	cd.fail(timed.failures...)
	res.Correct = res.Failed == 0

	n := float64(len(timed.latMs))
	// The clients run side by side, so the timed wall-clock is their mean
	// busy time; time the benchmark spends between ops is not in it.
	busyS := sum(timed.latMs) / 1e3 / float64(w.clients)
	lat := sorted(timed.latMs)
	res.Metrics = pack(endToEnd, map[string]float64{
		"op_ms_p50":       percentile(lat, 0.5),
		"op_ms_p90":       percentile(lat, 0.9),
		"ops_per_s":       n / busyS,
		"sim_pkts_per_s":  float64(timed.pkts) / busyS,
		"allocs_per_op":   float64(mallocs) / n,
		"alloc_kb_per_op": float64(allocBytes) / 1024 / n,
		"setup_s":         p50(setups),
	})
	cd.TimedOps = len(timed.latMs)
	cd.Spread = map[string]float64{
		"op_ms_p50":      iqrShare(roundP50),
		"op_ms_p90":      iqrShare(roundP90),
		"ops_per_s":      iqrShare(roundRate),
		"sim_pkts_per_s": iqrShare(roundRate),
	}
	return res, cd
}

// runTraced is a child with tracing on: the same staged ops with spans
// off and on, alternating, then the workload's own probes, the
// unit-cost probes, and bench/out/trace_<workload>.json.
func runTraced(e *env, w *workload, pl plan) (childResult, childDetail) {
	var cd childDetail
	var res childResult
	tr := newTracer()
	inst, err := w.setup(e, w.name, pl, tr)
	if err != nil {
		cd.fail("set-up: " + err.Error())
		res.Attempted, res.Failed = 1, 1
		res.Metrics = pack(perLayer, nil)
		return res, cd
	}
	defer inst.close()

	var m0, m1 runtime.MemStats
	warm := runPhases(inst, w.clients, pl.warm, phaseWarm)[0]
	runtime.ReadMemStats(&m0)
	both := runPhases(inst, w.clients, pl.traced, phaseUntraced, phaseTraced)
	runtime.ReadMemStats(&m1)
	plain, traced := both[0], both[1]
	for _, r := range []phaseResult{warm, plain, traced} {
		res.Attempted += len(r.latMs)
		res.Failed += r.failed
		cd.fail(r.failures...)
	}

	m := map[string]float64{}
	n := float64(len(plain.latMs) + len(traced.latMs))
	m["host.trace_overhead_ratio"] = p50(traced.latMs) / p50(plain.latMs)
	m["host.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	m["host.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n
	if res.Failed == 0 {
		// Probes that re-run the scenario compare against the passes above,
		// so they only make sense once those passed.
		if err := inst.layers(&tracedRun{spans: tr.spans, plainMs: plain.latMs}, m); err != nil {
			res.Failed++
			cd.fail("per-layer probes: " + err.Error())
		}
	}
	if err := runProbes(m); err != nil {
		res.Failed++
		cd.fail("unit-cost probes: " + err.Error())
	}
	m["host.calibration_ns"] = calibrate()
	m["host.peak_rss_mb"] = peakRSSMiB()

	if err := tr.write(filepath.Join(e.out, "trace_"+w.name+".json"), w.name, e.seed); err != nil {
		res.Failed++
		cd.fail("writing trace: " + err.Error())
	}
	res.Correct = res.Failed == 0
	res.Metrics = pack(perLayer, m)
	for name := range m {
		cd.Measured = append(cd.Measured, name)
	}
	sort.Strings(cd.Measured)
	return res, cd
}
