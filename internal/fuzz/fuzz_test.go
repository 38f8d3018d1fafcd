package fuzz

import (
	"fmt"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/traffic"
)

// toyTarget is a cheap target whose score peaks when the genome's first
// dimension equals 7 — used to exercise the search mechanics without
// expensive simulations.
func toyTarget() Target {
	return Target{
		Name:   "toy",
		Params: []Param{{Name: "x", Min: 0, Max: 15}, {Name: "y", Min: 0, Max: 3}},
		Build: func(g Genome) config.Test {
			c := config.Default()
			c.Traffic.MessageSize = 1024
			c.Traffic.NumMsgsPerQP = 1
			c.Switch.Mirror = false // keep evaluations fast
			return c
		},
		Score: func(g Genome, rep *orchestrator.Report) float64 {
			d := g[0] - 7
			if d < 0 {
				d = -d
			}
			return float64(10 - d)
		},
		Threshold: 10,
	}
}

func TestFuzzerFindsToyOptimum(t *testing.T) {
	f, err := New(toyTarget(), Options{Seed: 3, PoolSize: 4, AcceptProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != 10 {
		t.Fatalf("best score = %v, optimum never found; best genome %v", res.BestScore, res.BestGenome)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings despite reachable threshold")
	}
	if res.Findings[0].Genome[0] != 7 {
		t.Fatalf("top finding genome = %v, want x=7", res.Findings[0].Genome)
	}
	if res.Evaluations < 10 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
}

func TestFuzzerDeterministic(t *testing.T) {
	run := func() *Result {
		f, err := New(toyTarget(), Options{Seed: 42, PoolSize: 4, AcceptProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Evaluations != b.Evaluations || a.BestScore != b.BestScore {
		t.Fatalf("nondeterministic search: %v vs %v", a, b)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
}

func TestFuzzerIdenticalAcrossWorkerCounts(t *testing.T) {
	// The worker count is an execution detail: all search randomness is
	// drawn before a generation fans out, and every evaluation's seed is
	// a pure function of its genome, so the full search trajectory must
	// be identical for any pool size.
	run := func(workers int) string {
		f, err := New(toyTarget(), Options{Seed: 9, PoolSize: 4, AcceptProb: 0.3,
			Generation: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprintf("evals=%d best=%v@%v pool=%d findings=",
			res.Evaluations, res.BestScore, res.BestGenome, f.PoolSize())
		for _, fd := range res.Findings {
			s += fmt.Sprintf("%v:%v;", fd.Genome, fd.Score)
		}
		return s
	}
	serial := run(1)
	for _, workers := range []int{8, 0} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d diverged:\nserial:   %s\nparallel: %s", workers, serial, got)
		}
	}
}

func TestFuzzerStopAtFirstAnomaly(t *testing.T) {
	f, err := New(toyTarget(), Options{Seed: 3, PoolSize: 4, AcceptProb: 0.2, StopAtFirstAnomaly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d, want exactly 1 with early stop", len(res.Findings))
	}
}

func TestMutationStaysInBounds(t *testing.T) {
	f, err := New(toyTarget(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := f.randomGenome()
	for i := 0; i < 500; i++ {
		g = f.mutate(g)
		for d, v := range g {
			p := f.target.Params[d]
			if v < p.Min || v > p.Max {
				t.Fatalf("dimension %q out of bounds: %d", p.Name, v)
			}
		}
	}
}

func TestTargetValidation(t *testing.T) {
	if _, err := New(Target{}, DefaultOptions()); err == nil {
		t.Error("empty target accepted")
	}
	bad := toyTarget()
	bad.Params = []Param{{Name: "x", Min: 5, Max: 2}}
	if _, err := New(bad, DefaultOptions()); err == nil {
		t.Error("empty range accepted")
	}
	noBuild := toyTarget()
	noBuild.Build = nil
	if _, err := New(noBuild, DefaultOptions()); err == nil {
		t.Error("missing Build accepted")
	}
}

func TestCounterBugTargetFindsE810CnpBug(t *testing.T) {
	// The fuzzer rediscovers the §6.2.4 E810 counter bug: some ECN
	// pattern makes np_cnp_sent disagree with the wire.
	target := CounterBugTarget(rnic.ModelE810)
	f, err := New(target, Options{Seed: 5, PoolSize: 4, AcceptProb: 0.25,
		Deadline: 200 * sim.Second, StopAtFirstAnomaly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("fuzzer did not rediscover the E810 cnpSent bug in %d evaluations", res.Evaluations)
	}
	// The triggering config must involve ECN marking.
	g := res.Findings[0].Genome
	if g[2] == 0 {
		t.Fatalf("finding genome %v has no ECN marking, score suspicious", g)
	}
}

func TestCounterBugTargetCleanOnSpecNIC(t *testing.T) {
	target := CounterBugTarget(rnic.ModelSpec)
	f, err := New(target, Options{Seed: 5, PoolSize: 3, AcceptProb: 0.25, Deadline: 200 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("spec NIC produced counter anomalies: %+v", res.Findings[0].Genome)
	}
}

func TestNoisyNeighborTargetScoring(t *testing.T) {
	// The scorer must separate a healthy run (fast innocent flows) from
	// a wedged one (slow innocent flows + discards) by a wide margin.
	target := NoisyNeighborTarget(rnic.ModelCX4)
	genome := Genome{12, 24, 20} // 12 drop conns, 24 innocent, 20 KB

	healthy := &orchestrator.Report{
		Traffic:           &trafficResults(36, 160*sim.Microsecond).Results,
		RequesterCounters: map[string]uint64{},
	}
	wedged := &orchestrator.Report{
		Traffic:           &trafficResults(36, 33*sim.Millisecond).Results,
		RequesterCounters: map[string]uint64{rnic.CtrRxDiscardsPhy: 3000},
	}
	hs := target.Score(genome, healthy)
	ws := target.Score(genome, wedged)
	if hs >= target.Threshold {
		t.Fatalf("healthy run scored %v, above threshold %v", hs, target.Threshold)
	}
	if ws < target.Threshold {
		t.Fatalf("wedged run scored %v, below threshold %v", ws, target.Threshold)
	}
	if ws < hs*10 {
		t.Fatalf("scores not separated: healthy %v vs wedged %v", hs, ws)
	}
}

func TestNoisyNeighborTargetEvaluatesEndToEnd(t *testing.T) {
	// A single direct evaluation at the known-bad genome detects the
	// anomaly on CX4 but not on the spec NIC.
	for _, tc := range []struct {
		model   string
		anomaly bool
	}{{rnic.ModelCX4, true}, {rnic.ModelSpec, false}} {
		target := NoisyNeighborTarget(tc.model)
		cfg := target.Build(Genome{12, 24, 20})
		cfg.Seed = 1
		rep, err := orchestrator.Run(cfg, orchestrator.Options{Deadline: 300 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		score := target.Score(Genome{12, 24, 20}, rep)
		if tc.anomaly && score < target.Threshold {
			t.Errorf("%s: score %v below threshold %v", tc.model, score, target.Threshold)
		}
		if !tc.anomaly && score >= target.Threshold {
			t.Errorf("%s: score %v crossed threshold %v", tc.model, score, target.Threshold)
		}
	}
}

func TestGenomeAndPoolHelpers(t *testing.T) {
	g := Genome{1, 2, 3}
	if g.String() != "[1 2 3]" {
		t.Fatalf("Genome.String = %q", g.String())
	}
	f, _ := New(toyTarget(), Options{Seed: 1, PoolSize: 3})
	if f.PoolSize() != 0 {
		t.Fatal("pool not empty before Run")
	}
	if _, err := f.Run(2); err != nil {
		t.Fatal(err)
	}
	if f.PoolSize() < 3 {
		t.Fatalf("pool = %d after Run, want ≥ 3", f.PoolSize())
	}
}

// trafficResults builds synthetic per-connection stats with uniform MCTs.
type resultsWrap struct{ Results traffic.Results }

func trafficResults(conns int, mct sim.Duration) *resultsWrap {
	w := &resultsWrap{}
	for i := 0; i < conns; i++ {
		w.Results.Conns = append(w.Results.Conns, traffic.ConnStats{
			Index: i, MCTs: []sim.Duration{mct}, Statuses: map[string]int{"OK": 1},
		})
	}
	return w
}
