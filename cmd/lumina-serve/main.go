// Command lumina-serve is Lumina as a service: a daemon that accepts
// scenario submissions over HTTP, executes them on the deterministic
// engine, and answers repeat submissions byte-identically from a
// content-addressed result cache — plus a small client for driving a
// running daemon from scripts and CI.
//
// Usage:
//
//	lumina-serve daemon    [-addr :8642] [-cache dir] [-cache-max-mb N]
//	                       [-workers N] [-queue N] [-job-timeout 5m]
//	lumina-serve run       [-addr host:port] [-profile cx5] [-int] [-coverage]
//	                       [-telemetry] [-deadline 600] [-out dir] cfg.yaml
//	lumina-serve status    [-addr host:port] runID
//	lumina-serve artifacts [-addr host:port] [-out dir] runID
//	lumina-serve stats     [-addr host:port]
//
// run submits one scenario, waits for the terminal state, prints the
// outcome (including whether it was a cache hit), optionally downloads
// every artifact, and exits non-zero if the run failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/serve"
	"github.com/lumina-sim/lumina/internal/version"
)

const defaultAddr = "127.0.0.1:8642"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "daemon":
		err = cmdDaemon(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "artifacts":
		err = cmdArtifacts(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println("lumina-serve", version.String())
		return
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lumina-serve: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lumina-serve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lumina-serve daemon    [-addr :8642] [-cache dir] [-cache-max-mb N] [-workers N] [-queue N] [-job-timeout 5m]
  lumina-serve run       [-addr host:port] [-profile cx5] [-int] [-coverage] [-telemetry] [-deadline 600] [-out dir] cfg.yaml
  lumina-serve status    [-addr host:port] runID
  lumina-serve artifacts [-addr host:port] [-out dir] runID
  lumina-serve stats     [-addr host:port]`)
}

func cmdDaemon(args []string) error {
	fs := flag.NewFlagSet("daemon", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "listen address")
	cacheDir := fs.String("cache", "", "result-cache directory (empty disables caching)")
	cacheMaxMB := fs.Int64("cache-max-mb", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
	queue := fs.Int("queue", 0, "pending-run queue depth; a full queue rejects with 503 (0 = 64)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "wall-clock bound per run (0 = none)")
	fs.Parse(args)

	cfg := serve.Config{Workers: *workers, QueueDepth: *queue, JobTimeout: *jobTimeout}
	if *cacheDir != "" {
		cache, err := resultcache.Open(*cacheDir, *cacheMaxMB<<20)
		if err != nil {
			return err
		}
		cfg.Cache = cache
		st := cache.Stats()
		fmt.Printf("cache %s: %d entr%s, %d bytes\n", *cacheDir, st.Entries, pluralY(st.Entries), st.Bytes)
	}
	srv := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// SIGINT/SIGTERM drain in-flight runs before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("lumina-serve %s listening on %s\n", version.Stamp(), *addr)

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

func client(addr string) *serve.Client {
	return &serve.Client{Base: "http://" + addr}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "daemon address")
	profile := fs.String("profile", "", "retarget both hosts' NIC model (cx4, cx5, e810, xl170b, spec)")
	deadline := fs.Int("deadline", 0, "virtual-time deadline in seconds (0 = server default)")
	telemetry := fs.Bool("telemetry", false, "enable telemetry (metrics.json, timeline.json)")
	intFlag := fs.Bool("int", false, "enable in-band telemetry (int.json)")
	covFlag := fs.Bool("coverage", false, "enable behavioral coverage (coverage.json)")
	out := fs.String("out", "", "download every artifact into this directory")
	wait := fs.Duration("wait", 10*time.Minute, "how long to wait for the run to finish")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("run: exactly one scenario file required")
	}
	yml, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	// Parse locally first: a malformed scenario should fail with a good
	// error before it ever crosses the wire.
	if _, err := config.Parse(yml); err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()
	c := client(*addr)
	st, err := c.Submit(ctx, serve.SubmitRequest{
		Scenario:   string(yml),
		Profile:    *profile,
		DeadlineNs: int64(*deadline) * int64(time.Second),
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

func downloadArtifacts(ctx context.Context, c *serve.Client, st *serve.RunStatus, dir string) error {
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

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "daemon address")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("status: exactly one run ID required")
	}
	st, err := client(*addr).Status(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func cmdArtifacts(args []string) error {
	fs := flag.NewFlagSet("artifacts", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "daemon address")
	out := fs.String("out", ".", "directory to download into")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("artifacts: exactly one run ID required")
	}
	ctx := context.Background()
	c := client(*addr)
	st, err := c.Status(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("run %s is %s: artifacts exist only once done", st.ID, st.State)
	}
	return downloadArtifacts(ctx, c, st, *out)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "daemon address")
	fs.Parse(args)
	ctx := context.Background()
	c := client(*addr)
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
		st.Entries, pluralY(st.Entries), st.Bytes, st.MaxBytes, st.Hits, st.Misses, st.Puts, st.Evictions)
	return nil
}

func pluralY(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
