package minimize

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/fuzz"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// retryExhaustedConfig builds a config whose anomaly is an unrecovered
// drop: every transmission of conn 1's second packet is dropped until
// the requester QP exhausts its retry budget, so the retrans verdict
// fails. The event list carries deliberate junk the minimizer should
// strip: drop rules past the exhaustion point that never fire, an ECN
// mark, and a recovered drop on a second connection.
func retryExhaustedConfig() config.Test {
	c := config.Default()
	c.Traffic.NumConnections = 2
	c.Traffic.NumMsgsPerQP = 1
	c.Traffic.MessageSize = 4096
	for it := 1; it <= 12; it++ {
		c.Traffic.Events = append(c.Traffic.Events,
			config.Event{QPN: 1, PSN: 2, Type: "drop", Iter: it})
	}
	c.Traffic.Events = append(c.Traffic.Events,
		config.Event{QPN: 1, PSN: 1, Type: "ecn", Iter: 1},
		config.Event{QPN: 2, PSN: 2, Type: "drop", Iter: 1})
	return c
}

func TestMinimizeShrinksAndPreservesAnomaly(t *testing.T) {
	cfg := retryExhaustedConfig()
	res, err := Minimize(cfg, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomaly.String() != "retrans" {
		t.Fatalf("preserved anomaly = %s, want retrans", res.Anomaly)
	}
	if res.FinalEvents >= res.InitialEvents {
		t.Fatalf("events %d → %d: not strictly smaller", res.InitialEvents, res.FinalEvents)
	}
	// The junk must be gone: every surviving event is a drop on conn 1's
	// second packet.
	for _, ev := range res.Config.Traffic.Events {
		if ev.QPN != 1 || ev.PSN != 2 || ev.Type != "drop" {
			t.Fatalf("minimized config kept junk event %+v", ev)
		}
	}
	// The second connection existed only to host junk; the simplifier
	// rounds should have removed it.
	if res.Config.Traffic.NumConnections != 1 {
		t.Errorf("num-connections = %d, want 1", res.Config.Traffic.NumConnections)
	}
	// Replaying the minimized config must reproduce the original verdict
	// signature.
	rep, err := orchestrator.Run(res.Config, orchestrator.Options{
		Deadline: orchestrator.DefaultOptions().Deadline, Lineage: true})
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, v := range rep.Verdicts {
		if !v.Pass {
			failed = append(failed, v.Analyzer)
		}
	}
	if len(failed) != 1 || failed[0] != "retrans" {
		t.Fatalf("minimized replay failed verdicts = %v, want [retrans]", failed)
	}
	// 1-minimality of the event list: removing any single remaining
	// event must dissolve the anomaly.
	for i := range res.Config.Traffic.Events {
		c := res.Config
		c.Traffic.Events = append(append([]config.Event(nil),
			res.Config.Traffic.Events[:i]...), res.Config.Traffic.Events[i+1:]...)
		rep, err := orchestrator.Run(c, orchestrator.Options{
			Deadline: orchestrator.DefaultOptions().Deadline, Lineage: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Verdicts {
			if !v.Pass {
				t.Fatalf("dropping event %d still fails %s: not 1-minimal", i, v.Analyzer)
			}
		}
	}
}

func TestMinimizeDeterministicAcrossWorkers(t *testing.T) {
	// The minimized scenario and the step log must be byte-identical
	// for every worker count: candidate batches fan out over the engine
	// but all accept decisions consume results in submission order.
	type outcome struct {
		yaml  []byte
		steps []Step
		evals int
	}
	run := func(workers int) outcome {
		res, err := Minimize(retryExhaustedConfig(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		y, err := res.Config.MarshalYAML()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{yaml: y, steps: res.Steps, evals: res.Evaluations}
	}
	serial := run(1)
	for _, workers := range []int{8} {
		got := run(workers)
		if !bytes.Equal(got.yaml, serial.yaml) {
			t.Errorf("workers=%d minimized YAML diverged:\n%s\nvs serial:\n%s",
				workers, got.yaml, serial.yaml)
		}
		if !reflect.DeepEqual(got.steps, serial.steps) {
			t.Errorf("workers=%d step log diverged (%d vs %d steps)",
				workers, len(got.steps), len(serial.steps))
		}
		if got.evals != serial.evals {
			t.Errorf("workers=%d evaluations = %d, serial = %d", workers, got.evals, serial.evals)
		}
	}
}

func TestMinimizeCleanConfigIsNoAnomaly(t *testing.T) {
	c := config.Default()
	if _, err := Minimize(c, Options{}); err != ErrNoAnomaly {
		t.Fatalf("err = %v, want ErrNoAnomaly", err)
	}
}

// exhaustionTarget wraps retryExhaustedConfig as a fuzz target: the
// genome adds extra junk ECN marks, and the score is the number of
// failed messages, so any genome is an anomaly.
func exhaustionTarget() fuzz.Target {
	return fuzz.Target{
		Name:   "retry-exhaustion",
		Params: []fuzz.Param{{Name: "junk-ecn", Min: 1, Max: 4}},
		Build: func(g fuzz.Genome) config.Test {
			c := retryExhaustedConfig()
			for i := 0; i < g[0]; i++ {
				c.Traffic.Events = append(c.Traffic.Events,
					config.Event{QPN: 2, PSN: 1 + i, Type: "ecn", Iter: 1})
			}
			return c
		},
		Score: func(g fuzz.Genome, rep *orchestrator.Report) float64 {
			failed := 0
			for i := range rep.Traffic.Conns {
				for st, n := range rep.Traffic.Conns[i].Statuses {
					if st != "OK" {
						failed += n
					}
				}
			}
			return float64(failed)
		},
		Threshold: 1,
	}
}

func TestMinimizeFuzzFindingFromFixedSeed(t *testing.T) {
	// The acceptance path: a finding discovered by the fuzzer from a
	// fixed seed minimizes to a strictly smaller event set whose replay
	// still yields the original anomaly verdict.
	f, err := fuzz.New(exhaustionTarget(), fuzz.Options{
		Seed: 11, PoolSize: 2, AcceptProb: 0.2,
		Deadline: 600 * sim.Second, StopAtFirstAnomaly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := f.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Findings) == 0 {
		t.Fatal("fixed-seed fuzz run produced no finding")
	}
	fd := fres.Findings[0]
	res, err := Minimize(fd.Report.Config, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalEvents >= len(fd.Report.Config.Traffic.Events) {
		t.Fatalf("finding events %d → %d: not strictly smaller",
			len(fd.Report.Config.Traffic.Events), res.FinalEvents)
	}
	if !strings.Contains(res.Anomaly.String(), "retrans") {
		t.Fatalf("anomaly = %s, want retrans preserved", res.Anomaly)
	}
}
