package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/corpus"
	"github.com/lumina-sim/lumina/internal/resultcache"
	"github.com/lumina-sim/lumina/internal/serve"
)

const (
	// requestsPerKey is how often each key is requested: once to miss
	// and simulate, then from the cache.
	requestsPerKey = 4
	// repeatDistance is the least number of ops between two requests of
	// one key on its client.
	repeatDistance = 8
)

// request is one submission: a scenario document under a NIC profile.
// Key identifies the (scenario, profile) pair; Repeat marks the key's
// second request, which must be served from the cache.
type request struct {
	Key      int
	Repeat   bool
	Scenario string
	Profile  string
}

// genRequests builds each client's closed-loop request list from the
// seed. Every key goes to exactly one client and is requested exactly
// requestsPerKey times there, each repeat at least dist ops after the
// previous request — so a key's first request has finished (and been
// Put) before any repeat is sent, and every repeat is a cache hit by
// construction. The seed decides which client gets a key and in what
// order; it never reaches the program under test.
func genRequests(seed int64, keys []request, clients, dist int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(keys))
	lists := make([][]request, clients)
	for c := range lists {
		var mine []request
		for j := c; j < len(order); j += clients {
			mine = append(mine, keys[order[j]])
		}
		// First requests go out in order; a key's k-th repeat trails its
		// first by k*dist steps, so at least dist other requests separate
		// any two requests of one key.
		for step := 0; step < len(mine)+(requestsPerKey-1)*dist; step++ {
			for k := 0; k < requestsPerKey; k++ {
				if j := step - k*dist; j >= 0 && j < len(mine) {
					r := mine[j]
					r.Repeat = k > 0
					lists[c] = append(lists[c], r)
				}
			}
		}
	}
	return lists
}

// serveKeys is the cross product entries x profiles x scenario seeds,
// numbered from firstKey. Changing a scenario's seed changes its
// content hash, so every product term is a distinct cache key.
func serveKeys(cfgs []config.Test, seeds []int64, firstKey int) ([]request, error) {
	var keys []request
	for _, base := range cfgs {
		for _, p := range corpus.AllProfiles() {
			for _, s := range seeds {
				cfg := base
				cfg.Seed = s
				yaml, err := cfg.MarshalYAML()
				if err != nil {
					return nil, err
				}
				keys = append(keys, request{Key: firstKey + len(keys), Scenario: string(yaml), Profile: p})
			}
		}
	}
	return keys, nil
}

// serveOpsPerSeed is how many ops one scenario seed adds to a phase:
// six entries x five NIC profiles, each requested requestsPerKey times.
const serveOpsPerSeed = 6 * 5 * requestsPerKey

type serveInst struct {
	e     *env
	tr    *tracer
	cfgs  []config.Test
	dir   string
	cache *resultcache.Cache
	srv   *serve.Server
	ts    *httptest.Server
	https []*http.Client // one connection per client

	lists map[phase][][]request

	mu       sync.Mutex
	firstSum map[int][]byte // key -> summary.json of its first request
	runIDs   []string       // measured runs that missed, for the packet census
	hitMs    []float64      // measured op latencies, by cache outcome
	missMs   []float64
	rejected int
	warmGets uint64 // cache lookups and hits of the warm-up ops
	warmHits uint64
}

// churnFiles is how many files precondition creates and deletes: more
// than the 8192 inodes of an ext4 block group.
const churnFiles = 10000

// precondition puts the scratch filesystem, once per process, in the
// state that back-to-back runs of this workload leave it in anyway.
// Every miss Puts a cache entry, which creates seven files and
// directories, and every round and run ends by deleting some ten
// thousand of them. On ext4 without a journal (the sandbox's root
// filesystem) an inode allocation walks past every inode of its block
// group freed in the last 5 to 35 seconds, one by one: creating a file
// costs 20 us after a quiet minute, 50 ns more for every recently
// freed inode, and 430 us once a whole group is recent. A run that
// follows a quiet minute would see a Put of 0.5 ms, the run after it
// 1 ms, the fifth 2.5 ms (ops_per_s 1760, 1530, 1240, 1050, 1010, 940
// measured). Freeing more than a group's worth of inodes first makes
// every run the fifth run, in a fresh checkout too. On other
// filesystems this costs a fraction of a second and changes nothing.
func (e *env) precondition() error {
	if e.preconditioned || e.quick { // a smoke run's numbers are not compared
		return nil
	}
	e.preconditioned = true
	dir, err := os.MkdirTemp(e.work, "precondition-")
	if err != nil {
		return err
	}
	for i := 0; i < churnFiles; i++ {
		// Files in one directory fill one block group; a directory for
		// every five files, as Put lays entries out, reaches the groups
		// directories go to.
		if i%5 == 0 {
			if err := os.Mkdir(filepath.Join(dir, "d"+strconv.Itoa(i)), 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return err
		}
		f.Close()
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// An inode counts as recently freed from the next clock second on.
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second)))
	return nil
}

func setupServe(e *env, _ string, pl plan, tr *tracer) (instance, error) {
	cfgs, err := loadPinned(e, smallPins)
	if err != nil {
		return nil, err
	}
	if err := e.precondition(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	s := &serveInst{e: e, tr: tr, cfgs: cfgs, dir: dir, cache: cache,
		lists: map[phase][][]request{}, firstSum: map[int][]byte{}}
	s.srv = serve.New(serve.Config{Cache: cache, Workers: 2})
	s.ts = httptest.NewServer(s.srv)
	for c := 0; c < serveClients; c++ {
		s.https = append(s.https, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}

	// Each phase draws its keys from its own scenario seeds, so no phase
	// warms the cache for another.
	nextSeed, nextKey := 0, 0
	for _, ph := range []struct {
		ph  phase
		ops int
	}{{phaseWarm, pl.warm}, {phaseTimed, pl.timed}, {phaseUntraced, pl.traced}, {phaseTraced, pl.traced}} {
		if ph.ops == 0 {
			continue
		}
		var seeds []int64
		for n := 0; n < (ph.ops+serveOpsPerSeed-1)/serveOpsPerSeed; n++ {
			seeds = append(seeds, e.scenarioSeed(wServeMix, nextSeed))
			nextSeed++
		}
		keys, err := serveKeys(cfgs, seeds, nextKey)
		if err != nil {
			return nil, err
		}
		keys = keys[:ph.ops/requestsPerKey] // only -quick asks for less than a whole seed
		nextKey += len(keys)
		dist := min(repeatDistance, len(keys)/serveClients-1)
		s.lists[ph.ph] = genRequests(e.seed+int64(ph.ph), keys, serveClients, dist)
	}
	return s, nil
}

func (s *serveInst) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	for _, h := range s.https {
		h.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// do issues one HTTP request under a span and returns the body.
func (s *serveInst) do(c int, tr *tracer, parent, opID int, name, method, path string, body []byte) (int, []byte, error) {
	sp := tr.begin(name, parent, opID)
	defer tr.end(sp)
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.https[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// op is one served run as a client sees it: submit, block on the event
// stream until the run is terminal, fetch summary.json.
func (s *serveInst) op(ph phase, c, i int) (time.Duration, uint64, error) {
	var tr *tracer
	if ph == phaseTraced {
		tr = s.tr
	}
	r := s.lists[ph][c][i]
	opID := i*serveClients + c
	body, err := json.Marshal(serve.SubmitRequest{Scenario: r.Scenario, Profile: r.Profile})
	if err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	op := tr.begin("op", 0, opID)
	code, data, err := s.do(c, tr, op, opID, "POST /v1/runs", http.MethodPost, "/v1/runs", body)
	if err != nil {
		return 0, 0, err
	}
	if code == http.StatusServiceUnavailable {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
	}
	if code/100 != 2 {
		return 0, 0, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var st serve.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, 0, err
	}
	code, data, err = s.do(c, tr, op, opID, "GET events", http.MethodGet, "/v1/runs/"+st.ID+"/events", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("events: HTTP %d: %v", code, err)
	}
	var last serve.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return 0, 0, fmt.Errorf("events: %w", err)
		}
	}
	code, sum, err := s.do(c, tr, op, opID, "GET summary.json", http.MethodGet, "/v1/runs/"+st.ID+"/artifacts/summary.json", nil)
	tr.end(op)
	d := time.Since(t0)
	if err != nil || code != http.StatusOK {
		return d, 0, fmt.Errorf("summary.json: HTTP %d: %v", code, err)
	}

	if last.State != serve.StateDone {
		return d, 0, fmt.Errorf("run %s ended %q: %s", st.ID, last.State, last.Error)
	}
	if last.CacheHit != r.Repeat {
		return d, 0, fmt.Errorf("run %s: cache_hit=%t on a key's request with repeat=%t", st.ID, last.CacheHit, r.Repeat)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ph == phaseWarm:
		s.warmGets++
		if r.Repeat {
			s.warmHits++
		}
	case r.Repeat:
		s.hitMs = append(s.hitMs, float64(d)/1e6)
	default:
		s.missMs = append(s.missMs, float64(d)/1e6)
		s.runIDs = append(s.runIDs, st.ID)
	}
	if !r.Repeat {
		s.firstSum[r.Key] = sum
	} else if !bytes.Equal(sum, s.firstSum[r.Key]) {
		return d, 0, fmt.Errorf("run %s: summary.json differs from the key's first request", st.ID)
	}
	return d, 0, nil
}

// settle counts, after the timed ops, the switch packets they
// simulated: one report.json fetch per run that missed.
func (s *serveInst) settle() (uint64, error) {
	var pkts uint64
	for _, id := range s.runIDs {
		code, data, err := s.do(0, nil, 0, 0, "", http.MethodGet, "/v1/runs/"+id+"/artifacts/report.json", nil)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("report.json of run %s: HTTP %d: %v", id, code, err)
		}
		var rep struct {
			SwitchTotals struct {
				RxRoCE uint64 `json:"rx_roce"`
			} `json:"switch_totals"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return 0, err
		}
		pkts += rep.SwitchTotals.RxRoCE
	}
	return pkts, nil
}

func (s *serveInst) layers(r *tracedRun, m map[string]float64) error {
	m["serve.submit_ms_p50"] = p50(durationsMs(r.spans, "POST /v1/runs"))
	m["serve.artifact_fetch_ms_p50"] = p50(durationsMs(r.spans, "GET summary.json"))
	m["serve.hit_ms_p50"] = p50(s.hitMs)
	m["serve.miss_ms_p50"] = p50(s.missMs)
	m["serve.rejected"] = float64(s.rejected)
	// The cache's own counters, less what the warm-up ops added to them.
	st := s.cache.Stats()
	m["resultcache.hit_ratio"] = float64(st.Hits-s.warmHits) / float64(st.Hits+st.Misses-s.warmGets)
	return cellProbe(s.e, s.tr, s.cfgs, m)
}
