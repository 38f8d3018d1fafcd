package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// tinyCfg is a fast-to-simulate configuration for end-to-end tests.
func tinyCfg(name string, seed int64) config.Test {
	c := config.Default()
	c.Name = name
	c.Seed = seed
	c.Traffic.MessageSize = 2048
	c.Traffic.NumMsgsPerQP = 1
	return c
}

// fakeRun builds a RunFunc whose behaviour is scripted per label.
func fakeRun(fn func(cfg config.Test) error) RunFunc {
	return func(cfg config.Test, _ orchestrator.Options) (*orchestrator.Report, error) {
		if err := fn(cfg); err != nil {
			return nil, err
		}
		return &orchestrator.Report{Config: cfg}, nil
	}
}

func TestRunOrdersResultsBySubmissionIndex(t *testing.T) {
	// Jobs complete in reverse submission order (earlier jobs sleep
	// longer); results must still come back by submission index.
	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("j%d", i), Cfg: config.Test{Name: fmt.Sprintf("j%d", i)}}
	}
	run := fakeRun(func(cfg config.Test) error {
		var d time.Duration
		for i := 0; i < n; i++ {
			if cfg.Name == fmt.Sprintf("j%d", i) {
				d = time.Duration(n-i) * 5 * time.Millisecond
			}
		}
		time.Sleep(d)
		return nil
	})
	results := Run(context.Background(), jobs, Options{Workers: n, Run: run})
	for i, r := range results {
		if r.Index != i || r.Label != fmt.Sprintf("j%d", i) {
			t.Fatalf("result %d = index %d label %q", i, r.Index, r.Label)
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Label: "ok", Cfg: config.Test{Name: "ok"}},
		{Label: "boom", Cfg: config.Test{Name: "boom"}},
		{Label: "ok2", Cfg: config.Test{Name: "ok2"}},
	}
	run := fakeRun(func(cfg config.Test) error {
		if cfg.Name == "boom" {
			panic("simulated bug")
		}
		return nil
	})
	for _, workers := range []int{1, 3} {
		results := Run(context.Background(), jobs, Options{Workers: workers, Run: run})
		if results[0].Err != nil || results[2].Err != nil {
			t.Fatalf("workers=%d: healthy jobs failed: %v / %v", workers, results[0].Err, results[2].Err)
		}
		var pe *PanicError
		if !errors.As(results[1].Err, &pe) {
			t.Fatalf("workers=%d: panic not captured: %v", workers, results[1].Err)
		}
		if pe.Value != "simulated bug" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error = %+v", workers, pe)
		}
	}
}

func TestRunTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job{{Label: "slow", Cfg: config.Test{Name: "slow"}}}
	run := fakeRun(func(config.Test) error { <-release; return nil })
	results := Run(context.Background(), jobs, Options{Workers: 1, Timeout: 20 * time.Millisecond, Run: run})
	var te *TimeoutError
	if !errors.As(results[0].Err, &te) {
		t.Fatalf("want TimeoutError, got %v", results[0].Err)
	}
	if te.Label != "slow" {
		t.Fatalf("timeout label = %q", te.Label)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Label: fmt.Sprintf("j%d", i), Cfg: config.Test{Name: fmt.Sprintf("j%d", i)}})
	}
	run := fakeRun(func(cfg config.Test) error {
		if cfg.Name == "j0" {
			started <- struct{}{}
			<-release
		}
		return nil
	})
	go func() {
		<-started
		cancel()
	}()
	results := Run(ctx, jobs, Options{Workers: 1, Run: run, Timeout: time.Second})
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job observed the cancellation")
	}
}

func TestRunTelemetryProbesDeterministicOrder(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprintf("j%d", i), Cfg: config.Test{Name: fmt.Sprintf("j%d", i)}}
	}
	run := fakeRun(func(cfg config.Test) error {
		if cfg.Name == "j2" {
			return errors.New("scripted failure")
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		hub := telemetry.NewHub()
		Run(context.Background(), jobs, Options{Workers: workers, Run: run, Hub: hub})
		events := hub.Events()
		if len(events) != len(jobs) {
			t.Fatalf("workers=%d: %d probe events, want %d", workers, len(events), len(jobs))
		}
		for i, ev := range events {
			if ev.Kind() != telemetry.KindEngineJob {
				t.Fatalf("event %d kind = %s", i, ev.Kind())
			}
			if ev.Name() != fmt.Sprintf("j%d", i) {
				t.Fatalf("workers=%d: event %d is %q; probes must follow submission order", workers, i, ev.Name())
			}
			wantStatus := "ok"
			if i == 2 {
				wantStatus = "error"
			}
			var status string
			for j := range ev.NumArgs() {
				if f := ev.Arg(j); f.Key == "status" {
					status = f.Str
				}
			}
			if status != wantStatus {
				t.Fatalf("event %d status = %q, want %q", i, status, wantStatus)
			}
		}
	}
}

func TestRunSerialParallelArtifactsIdentical(t *testing.T) {
	// Real end-to-end determinism: the same job matrix through 1 and 8
	// workers must produce byte-identical reports.
	mk := func() []Job {
		var jobs []Job
		for i := int64(1); i <= 4; i++ {
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("tiny-%d", i),
				Cfg:   tinyCfg(fmt.Sprintf("tiny-%d", i), i),
				Opts:  orchestrator.DefaultOptions(),
			})
		}
		return jobs
	}
	serial := Run(context.Background(), mk(), Options{Workers: 1})
	parallel := Run(context.Background(), mk(), Options{Workers: 8})
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d: serial err %v, parallel err %v", i, s.Err, p.Err)
		}
		sj, err := json.Marshal(s.Report)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(p.Report)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(pj) {
			t.Fatalf("job %d: serial and parallel reports differ", i)
		}
	}
}

func TestRunConfigsReturnsFirstFailure(t *testing.T) {
	cfgs := []config.Test{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	run := fakeRun(func(cfg config.Test) error {
		if cfg.Name != "a" {
			return fmt.Errorf("%s exploded", cfg.Name)
		}
		return nil
	})
	_, err := RunConfigs(context.Background(), cfgs, orchestrator.Options{}, Options{Workers: 3, Run: run})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	if want := `job 1 (b)`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the first failing job (%s)", err, want)
	}
}
