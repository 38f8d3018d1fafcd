// Package engine is Lumina's deterministic parallel run scheduler.
// Every simulation is an independent deterministic state machine — a
// (config, seed) pair fully determines its artifacts — so a batch of
// runs can fan out over a worker pool without any risk to
// reproducibility: the engine executes jobs concurrently but returns
// results strictly in submission order, and each job's artifacts are
// byte-identical to what a serial loop would have produced.
//
// The scheduler provides the execution guarantees the call layers
// (internal/experiments, internal/fuzz, the CLIs) previously lacked:
//
//   - panic isolation: a panicking job becomes a structured
//     *PanicError in its JobResult instead of tearing down the batch;
//   - cancellation: a context cancels jobs that have not started;
//   - per-job wall-clock timeouts, reported as *TimeoutError;
//   - deterministic result ordering by submission index, never by
//     completion order;
//   - progress/failure probes on the telemetry hub, emitted in
//     submission order so the probe stream is also deterministic.
//
// Workers=1 degenerates to an inline serial loop on the caller's
// goroutine — byte-identical in artifacts AND execution shape to the
// pre-engine serial path.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/telemetry"
)

// Job is one simulation to execute: a test configuration, orchestrator
// options, and a label for probes and error messages.
type Job struct {
	Label string
	Cfg   config.Test
	Opts  orchestrator.Options
}

// JobResult is the outcome of one job. Exactly one of Report/Err is
// meaningful: Err == nil means Report carries the run's artifacts.
type JobResult struct {
	// Index is the job's submission index; Run returns results sorted
	// by it regardless of completion order.
	Index int
	Label string

	Report *orchestrator.Report
	Err    error

	// Attempts is 1 once the job was executed, 0 when it was cancelled
	// before starting.
	Attempts int
	// Wall is the wall-clock time the job took.
	Wall time.Duration
}

// RunFunc executes one configuration; the default is orchestrator.Run.
// Tests substitute failing/panicking/slow implementations.
type RunFunc func(config.Test, orchestrator.Options) (*orchestrator.Report, error)

// Options tune the scheduler.
type Options struct {
	// Workers is the pool size; 0 means runtime.NumCPU(). Workers=1
	// runs every job inline on the calling goroutine in submission
	// order (the serial path).
	Workers int

	// Timeout bounds each job's wall-clock time; 0 disables it. A
	// timed-out job yields a *TimeoutError. The underlying simulation
	// goroutine cannot be preempted — it is left to finish in the
	// background and its result is discarded — so Timeout also forces
	// monitored (goroutine-per-job) execution even at Workers=1.
	Timeout time.Duration

	// Hub receives engine.job progress/failure probes, emitted in
	// submission order from the coordinating goroutine so the probe
	// stream is deterministic. Nil disables probes.
	Hub *telemetry.Hub

	// Run substitutes the execution function (tests); nil means
	// orchestrator.Run.
	Run RunFunc
}

// PanicError wraps a panic recovered from a job.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v", e.Value)
}

// TimeoutError reports a job exceeding Options.Timeout.
type TimeoutError struct {
	Label   string
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("job %q exceeded wall-clock timeout %v", e.Label, e.Timeout)
}

// Run executes jobs on a worker pool and returns one JobResult per job
// in submission order. It never returns an error itself — per-job
// failures (including recovered panics) land in JobResult.Err. A
// cancelled context marks not-yet-started jobs with ctx.Err().
func Run(ctx context.Context, jobs []Job, opts Options) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]JobResult, len(jobs))

	if workers <= 1 {
		// Serial path: inline, submission order, no goroutines unless a
		// timeout demands monitored execution.
		for i := range jobs {
			results[i] = execJob(ctx, i, jobs[i], opts)
			publish(opts.Hub, &results[i])
		}
		return results
	}

	next := make(chan int)
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = execJob(ctx, i, jobs[i], opts)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range jobs {
			next <- i
		}
		close(next)
	}()
	// Publish probes in submission order as each job lands, so the
	// telemetry stream is deterministic and progress is still live.
	for i := range jobs {
		<-done[i]
		publish(opts.Hub, &results[i])
	}
	wg.Wait()
	return results
}

// RunConfigs is the common matrix case: execute cfgs with shared
// orchestrator options and return reports in submission order, or the
// first (lowest-index) failure annotated with its job label.
func RunConfigs(ctx context.Context, cfgs []config.Test, orch orchestrator.Options, opts Options) ([]*orchestrator.Report, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Label: cfg.Name, Cfg: cfg, Opts: orch}
	}
	results := Run(ctx, jobs, opts)
	reps := make([]*orchestrator.Report, len(results))
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", r.Index, r.Label, r.Err)
		}
		reps[i] = r.Report
	}
	return reps, nil
}

func publish(hub *telemetry.Hub, r *JobResult) {
	if hub == nil {
		return
	}
	status := "ok"
	errStr := ""
	if r.Err != nil {
		status = "error"
		errStr = r.Err.Error()
	}
	hub.EmitArgs(telemetry.KindEngineJob, "engine", r.Label,
		telemetry.I("index", int64(r.Index)),
		telemetry.I("attempts", int64(r.Attempts)),
		telemetry.I("wall_us", r.Wall.Microseconds()),
		telemetry.S("status", status),
		telemetry.S("error", errStr))
}

// execJob runs one job once, unless ctx is already cancelled.
func execJob(ctx context.Context, index int, job Job, opts Options) JobResult {
	res := JobResult{Index: index, Label: job.Label}
	if res.Err = ctx.Err(); res.Err != nil {
		return res
	}
	run := opts.Run
	if run == nil {
		run = orchestrator.Run
	}
	start := time.Now()
	res.Attempts = 1
	res.Report, res.Err = attempt(ctx, job, run, opts.Timeout)
	res.Wall = time.Since(start)
	return res
}

// attempt executes job once with panic recovery; with a timeout it
// runs monitored in a child goroutine so the worker can move on.
func attempt(ctx context.Context, job Job, run RunFunc, timeout time.Duration) (*orchestrator.Report, error) {
	if timeout <= 0 {
		return guarded(job, run)
	}
	type outcome struct {
		rep *orchestrator.Report
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, err := guarded(job, run)
		ch <- outcome{rep, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-timer.C:
		return nil, &TimeoutError{Label: job.Label, Timeout: timeout}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// guarded invokes run with panic recovery.
func guarded(job Job, run RunFunc) (rep *orchestrator.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return run(job.Cfg, job.Opts)
}
