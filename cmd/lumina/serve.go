package main

// The serve subcommands are Lumina as a service: a daemon that accepts
// scenario submissions over HTTP, executes them on the deterministic
// engine, and answers repeat submissions byte-identically from a
// content-addressed result cache — plus a small client for driving a
// running daemon from scripts and CI.

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/serve"
	"github.com/lumina-sim/lumina/internal/version"
)

func bindDaemon(fs *flag.FlagSet) func([]string) error {
	addr := addrFlag(fs)
	cacheDir, openCache := cacheFlag(fs)
	workers := workersFlag(fs)
	queue := fs.Int("queue", 0, "pending-run queue depth; a full queue rejects with 503 (0 = 64)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "wall-clock bound per run (0 = none)")
	return func([]string) error {
		c, err := openCache()
		if err != nil {
			return err
		}
		if c != nil {
			st := c.Stats()
			fmt.Printf("cache %s: %d entr%s, %d bytes\n", *cacheDir, st.Entries, plural(st.Entries), st.Bytes)
		}
		srv := serve.New(serve.Config{Cache: c, Workers: *workers, QueueDepth: *queue, JobTimeout: *jobTimeout})
		httpSrv := &http.Server{Addr: *addr, Handler: srv}

		// SIGINT/SIGTERM drain in-flight runs before exiting.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		errCh := make(chan error, 1)
		go func() { errCh <- httpSrv.ListenAndServe() }()
		fmt.Printf("lumina serve %s listening on %s\n", version.Stamp(), *addr)

		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
		}
		fmt.Println("draining...")
		drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("draining runs: %w", err)
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("closing listener: %w", err)
		}
		return nil
	}
}

// bindServeRun submits one scenario, waits for the terminal state,
// prints the outcome (including whether it was a cache hit), optionally
// downloads every artifact, and fails if the run failed.
func bindServeRun(fs *flag.FlagSet) func([]string) error {
	addr := addrFlag(fs)
	profile := fs.String("profile", "", "retarget both hosts' NIC `model` ("+strings.Join(rnic.ModelNames(), ", ")+")")
	deadline := deadlineFlag(fs)
	telemetry := fs.Bool("telemetry", false, "enable telemetry (metrics.json, timeline.json)")
	intFlag, covFlag := observeFlags(fs)
	out := fs.String("out", "", "download every artifact into this `dir`")
	wait := fs.Duration("wait", 10*time.Minute, "how long to wait for the run to finish")
	return func(args []string) error {
		yml, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		// Parse locally first: a malformed scenario should fail with a good
		// error before it ever crosses the wire.
		if _, err := config.Parse(yml); err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), *wait)
		defer cancel()
		c := &serve.Client{Base: "http://" + *addr}
		st, err := c.Submit(ctx, serve.SubmitRequest{
			Scenario:   string(yml),
			Profile:    *profile,
			DeadlineNs: int64(*deadline),
			Telemetry:  *telemetry,
			INT:        *intFlag,
			Coverage:   *covFlag,
		})
		if err != nil {
			return err
		}
		fmt.Printf("run %s: %s\n", st.ID, st.State)
		if st.State != serve.StateDone && st.State != serve.StateFailed {
			if st, err = c.WaitDone(ctx, st.ID, 0); err != nil {
				return err
			}
		}
		printStatus(st)
		if *out != "" && st.State == serve.StateDone {
			if err := downloadArtifacts(ctx, c, st, *out); err != nil {
				return err
			}
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("run %s %s: %s", st.ID, st.State, st.Error)
		}
		return nil
	}
}

func printStatus(st *serve.RunStatus) {
	source := "simulated"
	if st.CacheHit {
		source = "cache hit"
	}
	fmt.Printf("run %s: %s (%s)\n", st.ID, st.State, source)
	if st.Error != "" {
		fmt.Printf("  error: %s\n", st.Error)
	}
	if st.Result != nil {
		fmt.Printf("  summary_sha256: %s\n", st.Result.SummarySHA256)
		fmt.Printf("  duration_ns: %d  timed_out: %t  integrity_ok: %t\n",
			int64(st.Result.DurationNs), st.Result.TimedOut, st.Result.IntegrityOK)
		names := make([]string, 0, len(st.Result.Verdicts))
		for name := range st.Result.Verdicts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  verdict %-28s pass=%t\n", name, st.Result.Verdicts[name])
		}
	}
	if len(st.Artifacts) > 0 {
		fmt.Printf("  artifacts: %v\n", st.Artifacts)
	}
}

// downloadArtifacts writes every artifact st lists into dir. The names
// come from the daemon, so all are checked before anything is written.
func downloadArtifacts(ctx context.Context, c *serve.Client, st *serve.RunStatus, dir string) error {
	for _, name := range st.Artifacts {
		if err := resultcache.CheckArtifactName(name); err != nil {
			return fmt.Errorf("run %s: %w", st.ID, err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range st.Artifacts {
		data, err := c.Artifact(ctx, st.ID, name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("  wrote %d artifact(s) to %s\n", len(st.Artifacts), dir)
	return nil
}

func bindStatus(fs *flag.FlagSet) func([]string) error {
	addr := addrFlag(fs)
	return func(args []string) error {
		st, err := (&serve.Client{Base: "http://" + *addr}).Status(context.Background(), args[0])
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	}
}

func bindArtifacts(fs *flag.FlagSet) func([]string) error {
	addr := addrFlag(fs)
	out := fs.String("out", ".", "`dir` to download into")
	return func(args []string) error {
		ctx := context.Background()
		c := &serve.Client{Base: "http://" + *addr}
		st, err := c.Status(ctx, args[0])
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("run %s is %s: artifacts exist only once done", st.ID, st.State)
		}
		return downloadArtifacts(ctx, c, st, *out)
	}
}

func bindStats(fs *flag.FlagSet) func([]string) error {
	addr := addrFlag(fs)
	return func([]string) error {
		ctx := context.Background()
		c := &serve.Client{Base: "http://" + *addr}
		h, err := c.Healthz(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("daemon %s: %s, %d run(s)\n", *addr, h.Version, h.Runs)
		st, err := c.CacheStats(ctx)
		if err != nil {
			return err
		}
		if !st.Enabled {
			fmt.Println("cache: disabled")
			return nil
		}
		fmt.Printf("cache: %d entr%s, %d/%d bytes, %d hit(s), %d miss(es), %d put(s), %d eviction(s)\n",
			st.Entries, plural(st.Entries), st.Bytes, st.MaxBytes, st.Hits, st.Misses, st.Puts, st.Evictions)
		return nil
	}
}
