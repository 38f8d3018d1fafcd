package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
)

// scenarioYAML renders a small drop scenario as submission YAML.
func scenarioYAML(t *testing.T, mutate func(*config.Test)) string {
	t.Helper()
	cfg := config.Default()
	cfg.Name = "serve-test"
	cfg.Traffic.NumMsgsPerQP = 3
	cfg.Traffic.Events = []config.Event{{QPN: 1, PSN: 1, Type: "drop", Iter: 1}}
	if mutate != nil {
		mutate(&cfg)
	}
	y, err := cfg.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	return string(y)
}

func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, &Client{Base: ts.URL}
}

func TestServeSubmitRunArtifacts(t *testing.T) {
	_, c := startServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, nil), Profile: "cx5"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.CacheHit {
		t.Fatalf("fresh submit status = %+v", st)
	}
	final, err := c.WaitDone(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}
	if final.Result == nil || final.Result.SummarySHA256 == "" {
		t.Fatalf("done run has no result: %+v", final)
	}
	if len(final.Artifacts) == 0 {
		t.Fatal("done run lists no artifacts")
	}
	summary, err := c.Artifact(ctx, st.ID, "summary.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(summary, &doc); err != nil || doc.Schema != orchestrator.SummarySchema {
		t.Fatalf("served summary.json schema %q err %v", doc.Schema, err)
	}
	if _, err := c.Artifact(ctx, st.ID, "no-such-artifact"); err == nil {
		t.Fatal("missing artifact did not error")
	}
}

// TestServeCacheHitIsByteIdentical is the tentpole guarantee: a
// resubmission answered from the cache returns exactly the bytes a
// fresh simulation produced — for every artifact — and says so.
func TestServeCacheHitIsByteIdentical(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, Config{Workers: 2, Cache: cache})
	ctx := context.Background()
	req := SubmitRequest{Scenario: scenarioYAML(t, nil), Profile: "cx5", INT: true, Coverage: true}

	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c.WaitDone(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.State != StateDone || fresh.CacheHit {
		t.Fatalf("first run status = %+v (%s)", fresh, fresh.Error)
	}
	freshArts := map[string][]byte{}
	for _, name := range fresh.Artifacts {
		if freshArts[name], err = c.Artifact(ctx, st.ID, name); err != nil {
			t.Fatal(err)
		}
	}

	again, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Fatalf("resubmission got run %s, want %s", again.ID, st.ID)
	}
	if again.State != StateDone || !again.CacheHit {
		t.Fatalf("resubmission not a done cache hit: %+v", again)
	}
	if len(again.Artifacts) != len(fresh.Artifacts) {
		t.Fatalf("cache hit lists %v, fresh run listed %v", again.Artifacts, fresh.Artifacts)
	}
	for _, name := range fresh.Artifacts {
		served, err := c.Artifact(ctx, st.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, freshArts[name]) {
			t.Fatalf("artifact %s differs between fresh run and cache hit", name)
		}
	}
	stats, err := c.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || stats.Hits == 0 || stats.Puts == 0 {
		t.Fatalf("cache stats = %+v", stats)
	}

	// A restarted daemon on the same cache answers without running.
	_, c2 := startServer(t, Config{Workers: 2, Cache: cache})
	warm, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.State != StateDone || !warm.CacheHit || warm.ID != st.ID {
		t.Fatalf("warm restart submit = %+v", warm)
	}
}

// TestServeInFlightDedup pins the single-flight property: concurrent
// submissions of the same work share one run ID and one execution.
func TestServeInFlightDedup(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int32
	slow := func(cfg config.Test, opts orchestrator.Options) (*orchestrator.Report, error) {
		executions.Add(1)
		<-release
		return orchestrator.Run(cfg, opts)
	}
	_, c := startServer(t, Config{Workers: 2, Run: slow})
	ctx := context.Background()
	req := SubmitRequest{Scenario: scenarioYAML(t, nil)}

	first, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(ctx, req)
			if err == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id != first.ID {
			t.Fatalf("submission %d got run %q, want %q", i, id, first.ID)
		}
	}
	close(release)
	if _, err := c.WaitDone(ctx, first.ID, 0); err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for one run ID", n)
	}
}

// TestServePanickingRunFailsAndReruns pins the daemon's side of panic
// isolation: a run whose execution panics reads failed with the panic
// value, leaves no cache entry behind, does not take the daemon down,
// and executes again when the same scenario is resubmitted.
func TestServePanickingRunFailsAndReruns(t *testing.T) {
	var calls atomic.Int32
	boom := func(config.Test, orchestrator.Options) (*orchestrator.Report, error) {
		calls.Add(1)
		panic("injected run fault")
	}
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, Config{Workers: 1, Cache: cache, Run: boom})
	ctx := context.Background()
	req := SubmitRequest{Scenario: scenarioYAML(t, nil)}
	cfg, err := config.Parse([]byte(req.Scenario))
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.KeyFor(cfg, "", orchestrator.Options{Deadline: orchestrator.DefaultOptions().Deadline, Lineage: true})
	if err != nil {
		t.Fatal(err)
	}

	for round := int32(1); round <= 2; round++ {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != key.ID() {
			t.Fatalf("run ID %s, want the cache key %s", st.ID, key.ID())
		}
		final, err := c.WaitDone(ctx, st.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateFailed || !strings.Contains(final.Error, "injected run fault") {
			t.Fatalf("round %d: state %s, error %q; want failed with the panic value", round, final.State, final.Error)
		}
		if n := calls.Load(); n != round {
			t.Fatalf("round %d: Run called %d time(s)", round, n)
		}
		if _, ok := cache.Get(key); ok {
			t.Fatalf("round %d: the cache holds an entry for the panicked run", round)
		}
		if h, err := c.Healthz(ctx); err != nil || h.Status != "ok" {
			t.Fatalf("round %d: healthz = %+v, %v", round, h, err)
		}
	}
	if st := cache.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("cache stats after two panicked runs: %+v", st)
	}
}

func TestServeQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := func(cfg config.Test, opts orchestrator.Options) (*orchestrator.Report, error) {
		<-release
		return orchestrator.Run(cfg, opts)
	}
	_, c := startServer(t, Config{Workers: 1, QueueDepth: 1, Run: slow})
	ctx := context.Background()

	// Distinct scenarios: the first occupies the worker, the second the
	// queue slot; the third must bounce with 503, not block.
	submit := func(size int) (*RunStatus, error) {
		return c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, func(cfg *config.Test) {
			cfg.Traffic.MessageSize = size
		})})
	}
	first, err := submit(1024)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued the first run, so the queue
	// slot is free for the second.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first run never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := submit(2048); err != nil {
		t.Fatalf("second submission should occupy the queue slot: %v", err)
	}
	if _, err := submit(4096); err == nil {
		t.Fatal("third submission was accepted with a full queue")
	}
}

func TestServeEventsStreamNDJSON(t *testing.T) {
	release := make(chan struct{})
	slow := func(cfg config.Test, opts orchestrator.Options) (*orchestrator.Report, error) {
		<-release
		return orchestrator.Run(cfg, opts)
	}
	s, _ := startServer(t, Config{Workers: 1, Run: slow})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	close(release)
	var states []State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Seq != len(states) {
			t.Fatalf("event seq %d at position %d", e.Seq, len(states))
		}
		states = append(states, e.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[0] != StateQueued {
		t.Fatalf("event states %v: want queued first", states)
	}
	if last := states[len(states)-1]; last != StateDone {
		t.Fatalf("event states %v: want done last", states)
	}
}

func TestServeShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := func(cfg config.Test, opts orchestrator.Options) (*orchestrator.Report, error) {
		started <- struct{}{}
		<-release
		return orchestrator.Run(cfg, opts)
	}
	s := New(Config{Workers: 1, Run: slow})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining: new work is refused while the in-flight run completes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, func(cfg *config.Test) {
			cfg.Traffic.MessageSize = 8192
		})})
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server still accepts submissions")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight run finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("drained run state %s: %s", final.State, final.Error)
	}
}

func TestServeHealthzAndBadRequests(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" {
		t.Fatalf("healthz = %+v", h)
	}
	stats, err := c.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Enabled {
		t.Fatalf("cache-less daemon reports enabled stats: %+v", stats)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Scenario: "not: [valid"}); err == nil {
		t.Fatal("malformed scenario accepted")
	}
	if _, err := c.Submit(ctx, SubmitRequest{Scenario: scenarioYAML(t, nil), Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	// A misspelled key is refused, not run (and cached) as the default
	// scenario it would otherwise decode to.
	_, err = c.Submit(ctx, SubmitRequest{Scenario: "traffic: {rdma_verb: read}"})
	if err == nil || !strings.Contains(err.Error(), `unknown key "rdma_verb"`) || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("misspelled key: %v, want HTTP 400 naming rdma_verb", err)
	}
	// A scenario Build could not hold is refused before it is queued,
	// not run until the daemon runs out of memory.
	_, err = c.Submit(ctx, SubmitRequest{Scenario: "traffic: {num-connections: 1000000000000000}"})
	if err == nil || !strings.Contains(err.Error(), "num-connections") || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("10^15 connections: %v, want HTTP 400 naming num-connections", err)
	}
	if _, err := c.Status(ctx, "deadbeef"); err == nil {
		t.Fatal("unknown run id did not 404")
	}
}
