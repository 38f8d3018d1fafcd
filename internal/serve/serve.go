// Package serve turns Lumina into a long-lived service: an HTTP daemon
// that accepts scenario submissions, executes them on the deterministic
// engine, and answers repeat submissions from the content-addressed
// result cache (internal/resultcache) without re-simulating.
//
// Because every run is a pure function of (scenario, profile, options,
// code version), the service can be aggressively idempotent: the run ID
// *is* the cache key ID, so resubmitting the same work — concurrently,
// sequentially, or after a daemon restart with a warm cache — always
// converges on one execution and byte-identical artifacts.
//
// API surface (Go 1.22 ServeMux patterns):
//
//	POST /v1/runs                          submit a scenario; dedups in-flight and cached work
//	GET  /v1/runs/{id}                     run status (state, verdicts, artifact names)
//	GET  /v1/runs/{id}/artifacts/{name}    one artifact's bytes (summary.json, report.json, ...)
//	GET  /v1/runs/{id}/events              NDJSON stream of state transitions
//	GET  /v1/cache/stats                   result-cache counters
//	GET  /healthz                          liveness + build stamp
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/rnic"
	"github.com/lumina-sim/lumina/internal/sim"
	"github.com/lumina-sim/lumina/internal/telemetry"
	"github.com/lumina-sim/lumina/internal/version"
)

// maxScenarioBytes bounds a submission body: scenarios are small YAML
// documents, so anything past this is a client error, not a run.
const maxScenarioBytes = 1 << 20

// Config tunes a Server.
type Config struct {
	// Cache, when non-nil, answers repeat submissions without running
	// and persists fresh results. Nil disables caching (every submit
	// simulates; dedup still covers concurrent in-flight duplicates).
	Cache *resultcache.Cache
	// Workers is the number of concurrent simulations (0 = NumCPU).
	Workers int
	// QueueDepth bounds the pending-run queue; a full queue rejects
	// submissions with 503 rather than buffering without limit
	// (0 = 64).
	QueueDepth int
	// JobTimeout bounds each run's wall-clock time (0 = no bound); a
	// timed-out run fails with the engine's TimeoutError.
	JobTimeout time.Duration
	// Hub receives engine probes for served runs.
	Hub *telemetry.Hub
	// Run substitutes the execution function (tests); nil means
	// orchestrator.Run.
	Run engine.RunFunc
}

// State is a run's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// SubmitRequest is the POST /v1/runs body.
type SubmitRequest struct {
	// Scenario is the test configuration YAML (same format `lumina run`
	// reads).
	Scenario string `json:"scenario"`
	// Profile optionally retargets both hosts' NIC model (cx4, cx5,
	// e810, xl170b, spec). It is a separate cache-key dimension, like a
	// corpus matrix column; empty runs the scenario's own NIC types.
	Profile string `json:"profile,omitempty"`
	// DeadlineNs overrides the simulated-time deadline (0 = default).
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// Telemetry, INT and Coverage enable the corresponding observe-only
	// instruments; each changes the options cache-key dimension.
	Telemetry bool `json:"telemetry,omitempty"`
	INT       bool `json:"int,omitempty"`
	Coverage  bool `json:"coverage,omitempty"`
}

// RunStatus is the GET /v1/runs/{id} document (and the submit
// response).
type RunStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	// Result is the judged outcome, present once the run is done.
	Result *resultcache.Result `json:"result,omitempty"`
	// Artifacts lists the downloadable artifact names, sorted.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Event is one NDJSON record on the /events stream.
type Event struct {
	Seq      int    `json:"seq"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Health is the GET /healthz document.
type Health struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	Runs    int    `json:"runs"`
}

// CacheStats is the GET /v1/cache/stats document.
type CacheStats struct {
	Enabled bool `json:"enabled"`
	resultcache.Stats
}

// run is one submitted scenario's lifecycle.
type run struct {
	id        string
	key       resultcache.Key
	cfg       config.Test // profile-retargeted, ready to execute
	opts      orchestrator.Options
	state     State
	cacheHit  bool
	errMsg    string
	result    *resultcache.Result
	artifacts map[string][]byte
	events    []Event
	notify    chan struct{} // closed on every event append, then replaced
}

// Server is the `lumina serve` HTTP handler plus its worker pool. Create
// with New, serve with net/http, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	runs     map[string]*run
	queue    chan *run
	draining bool

	workers sync.WaitGroup
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		runs:  map[string]*run{},
		queue: make(chan *run, cfg.QueueDepth),
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops accepting submissions and drains every queued and
// in-flight run, or gives up when ctx expires. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.workers.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.workers.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

// execute runs one queued submission on the engine (panic isolation,
// wall-clock timeout) and lands the result in the run and the cache.
func (s *Server) execute(r *run) {
	s.transition(r, StateRunning, nil)
	res := engine.Run(context.Background(),
		[]engine.Job{{Label: r.id, Cfg: r.cfg, Opts: r.opts}},
		engine.Options{Workers: 1, Timeout: s.cfg.JobTimeout, Hub: s.cfg.Hub, Run: s.cfg.Run})[0]
	if res.Err != nil {
		s.transition(r, StateFailed, res.Err)
		return
	}
	arts, err := resultcache.Render(res.Report)
	if err != nil {
		s.transition(r, StateFailed, err)
		return
	}
	parsed, err := resultcache.ParseResult(arts[resultcache.ResultName])
	if err != nil {
		s.transition(r, StateFailed, err)
		return
	}
	if s.cfg.Cache != nil {
		// Best-effort: an unwritable cache degrades to cold submissions,
		// it never fails a run that has already produced its artifacts.
		_ = s.cfg.Cache.Put(r.key, arts)
	}
	s.mu.Lock()
	r.result, r.artifacts = parsed, arts
	s.mu.Unlock()
	s.transition(r, StateDone, nil)
}

// transition moves a run to state, records the event and wakes every
// /events stream.
func (s *Server) transition(r *run, state State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.state = state
	if err != nil {
		r.errMsg = err.Error()
	}
	s.appendEventLocked(r)
}

func (s *Server) appendEventLocked(r *run) {
	r.events = append(r.events, Event{
		Seq:      len(r.events),
		State:    r.state,
		CacheHit: r.cacheHit,
		Error:    r.errMsg,
	})
	close(r.notify)
	r.notify = make(chan struct{})
}

func (s *Server) statusLocked(r *run) *RunStatus {
	st := &RunStatus{ID: r.id, State: r.state, CacheHit: r.cacheHit, Error: r.errMsg, Result: r.result}
	for name := range r.artifacts {
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var sr SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxScenarioBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	cfg, err := config.Parse([]byte(sr.Scenario))
	if err != nil {
		httpError(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}
	if err := cfg.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}
	if sr.Profile != "" {
		if _, err := rnic.ProfileByName(sr.Profile); err != nil {
			httpError(w, http.StatusBadRequest, "profile: %v", err)
			return
		}
	}
	opts := orchestrator.Options{
		Deadline:  sim.Duration(sr.DeadlineNs),
		Lineage:   true,
		Telemetry: sr.Telemetry,
		INT:       sr.INT,
		Coverage:  sr.Coverage,
	}
	if opts.Deadline <= 0 {
		opts.Deadline = orchestrator.DefaultOptions().Deadline
	}
	// The scenario dimension hashes the document as submitted; the
	// profile is its own dimension, exactly like a corpus matrix column,
	// so served runs and corpus replays of the same scenario share cache
	// entries.
	key, err := resultcache.KeyFor(cfg, sr.Profile, opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}
	runCfg := cfg
	if sr.Profile != "" {
		runCfg.Requester.NIC.Type = sr.Profile
		runCfg.Responder.NIC.Type = sr.Profile
	}
	id := key.ID()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Idempotent resubmission: the same work (same run ID) still in
	// flight is returned as-is — one execution serves every concurrent
	// duplicate.
	existing, have := s.runs[id]
	if have && (existing.state == StateQueued || existing.state == StateRunning) {
		st := s.statusLocked(existing)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	// Terminal (or unknown) work goes back through the cache so a
	// resubmission is an observable, counted hit — the same answer the
	// daemon would give after a restart with a warm cache.
	r := &run{id: id, key: key, cfg: runCfg, opts: opts, state: StateQueued, notify: make(chan struct{})}
	if s.cfg.Cache != nil {
		if arts, ok := s.cfg.Cache.Get(key); ok {
			if parsed, err := resultcache.ParseResult(arts[resultcache.ResultName]); err == nil {
				r.state, r.cacheHit = StateDone, true
				r.result, r.artifacts = parsed, arts
				s.runs[id] = r
				s.appendEventLocked(r)
				st := s.statusLocked(r)
				s.mu.Unlock()
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}
	// Cache-less (or evicted) but already done in memory: reuse it;
	// only failed runs are re-executed.
	if have && existing.state == StateDone {
		st := s.statusLocked(existing)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	select {
	case s.queue <- r:
	default:
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "run queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.runs[id] = r
	s.appendEventLocked(r)
	st := s.statusLocked(r)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// lookup resolves the {id} path value, or writes 404.
func (s *Server) lookup(w http.ResponseWriter, req *http.Request) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[req.PathValue("id")]
	if !ok {
		httpError(w, http.StatusNotFound, "no such run %q", req.PathValue("id"))
		return nil
	}
	return r
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	s.mu.Lock()
	st := s.statusLocked(r)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleArtifact(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	name := req.PathValue("name")
	s.mu.Lock()
	state := r.state
	data, ok := r.artifacts[name]
	s.mu.Unlock()
	if state != StateDone {
		httpError(w, http.StatusConflict, "run %s is %s, artifacts exist only once done", r.id, state)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "run %s has no artifact %q", r.id, name)
		return
	}
	// Every served artifact is JSON: resultcache.Render leaves the pcap out.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	next := 0
	for {
		s.mu.Lock()
		pending := append([]Event(nil), r.events[next:]...)
		terminal := r.state == StateDone || r.state == StateFailed
		notify := r.notify
		s.mu.Unlock()
		for _, e := range pending {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(pending)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-req.Context().Done():
			return
		}
	}
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	st := CacheStats{Enabled: s.cfg.Cache != nil}
	if s.cfg.Cache != nil {
		st.Stats = s.cfg.Cache.Stats()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{Status: "ok", Version: version.Stamp(), Runs: n})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
