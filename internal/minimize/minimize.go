// Package minimize shrinks an anomalous test configuration — typically a
// fuzzer finding — down to a minimal reproducer while preserving its
// anomaly, closing the fuzz → minimize → regress loop: the paper reruns
// fuzzer-discovered configurations to confirm bugs (§4), and a minimized
// configuration is the form worth keeping in a regression corpus.
//
// The anomaly is identified by its verdict signature: the set of
// analyzer verdicts (orchestrator.Report.Verdicts) that fail on the original run,
// plus whether the run timed out. Minimization is delta debugging over
// the injected event list (ddmin: drop ever-finer complements) followed
// by rounds of single-field simplifications (fewer connections, smaller
// messages, canonical seed, …); a candidate is kept only if its verdict
// signature is identical to the original's.
//
// Every candidate batch is evaluated in parallel on the deterministic
// run engine, but all accept/reject decisions consume results in
// submission order, so the minimized configuration and the step log are
// byte-identical for every worker count.
package minimize

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// ErrNoAnomaly reports that the configuration's baseline run produced no
// failing verdict and no timeout — there is nothing to preserve, so
// minimization would trivially delete everything.
var ErrNoAnomaly = errors.New("minimize: baseline run shows no anomaly (all verdicts pass, no timeout)")

// Anomaly is the signature minimization preserves.
type Anomaly struct {
	// Failed lists the analyzers whose verdicts fail, sorted.
	Failed []string `json:"failed_verdicts"`
	// TimedOut records whether the run exceeded its virtual deadline.
	TimedOut bool `json:"timed_out"`
}

// Empty reports whether the signature describes a clean run.
func (a Anomaly) Empty() bool { return len(a.Failed) == 0 && !a.TimedOut }

// Equal compares two signatures.
func (a Anomaly) Equal(b Anomaly) bool {
	if a.TimedOut != b.TimedOut || len(a.Failed) != len(b.Failed) {
		return false
	}
	for i := range a.Failed {
		if a.Failed[i] != b.Failed[i] {
			return false
		}
	}
	return true
}

func (a Anomaly) String() string {
	parts := append([]string(nil), a.Failed...)
	if a.TimedOut {
		parts = append(parts, "timeout")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// anomalyOf extracts the signature from a finished run.
func anomalyOf(rep *orchestrator.Report) Anomaly {
	var a Anomaly
	for _, v := range rep.Verdicts {
		if !v.Pass {
			a.Failed = append(a.Failed, v.Analyzer)
		}
	}
	sort.Strings(a.Failed)
	a.TimedOut = rep.TimedOut
	return a
}

// Options tune a minimization.
type Options struct {
	// Deadline bounds each evaluation's virtual time (default 600 s,
	// matching orchestrator.DefaultOptions). It must match the deadline
	// under which the anomaly was found: timeout anomalies are
	// deadline-relative.
	Deadline sim.Duration
	// Workers is the engine pool size used to evaluate a candidate
	// batch (0 = one per CPU, 1 = serial). The result is byte-identical
	// for every value.
	Workers int
}

// Step records one candidate the minimizer tried, in decision order.
type Step struct {
	Round  int    `json:"round"`
	Action string `json:"action"` // "drop-events" | "simplify"
	Detail string `json:"detail"`
	Events int    `json:"events"` // candidate's event count
	Kept   bool   `json:"kept"`   // candidate accepted as the new base
}

// Result is a finished minimization.
type Result struct {
	// Config is the minimized configuration (validated).
	Config config.Test
	// Anomaly is the preserved verdict signature.
	Anomaly Anomaly
	// Steps logs every candidate tried, in decision order.
	Steps []Step
	// Evaluations counts simulation runs, including the baseline.
	Evaluations   int
	InitialEvents int
	FinalEvents   int
}

type minimizer struct {
	opts   Options
	target Anomaly
	res    *Result
	round  int
}

// Minimize shrinks cfg to a 1-minimal reproducer of its own anomaly: no
// single injected event can be removed, and no single simplification
// pass applies, without changing the verdict signature. It returns
// ErrNoAnomaly if the baseline run is clean.
func Minimize(cfg config.Test, opts Options) (*Result, error) {
	if opts.Deadline <= 0 {
		opts.Deadline = orchestrator.DefaultOptions().Deadline
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("minimize: %w", err)
	}
	m := &minimizer{opts: opts, res: &Result{InitialEvents: len(cfg.Traffic.Events)}}

	base := m.evaluate([]config.Test{cfg})[0]
	if base.Err != nil {
		return nil, fmt.Errorf("minimize: baseline run: %w", base.Err)
	}
	m.target = anomalyOf(base.Report)
	if m.target.Empty() {
		return nil, ErrNoAnomaly
	}

	// Alternate event delta-debugging and field simplification until a
	// joint fixpoint: a simplification (smaller message, fewer
	// connections) can make further events redundant, and vice versa.
	cur := cfg
	for {
		before := len(cur.Traffic.Events)
		cur = m.ddminEvents(cur)
		next, changed := m.simplifyFields(cur)
		cur = next
		if len(cur.Traffic.Events) == before && !changed {
			break
		}
	}

	m.res.Config = cur
	m.res.Anomaly = m.target
	m.res.FinalEvents = len(cur.Traffic.Events)
	return m.res, nil
}

// evaluate fans candidates out over the run engine and returns results
// in submission order. Invalid candidates surface as errored results.
func (m *minimizer) evaluate(cfgs []config.Test) []engine.JobResult {
	jobs := make([]engine.Job, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = engine.Job{
			Label: fmt.Sprintf("minimize-cand-%d", i),
			Cfg:   c,
			Opts:  orchestrator.Options{Deadline: m.opts.Deadline, Lineage: true},
		}
	}
	m.res.Evaluations += len(jobs)
	return engine.Run(context.Background(), jobs, engine.Options{Workers: m.opts.Workers})
}

// candidate is one proposed shrink of the current configuration.
type candidate struct {
	cfg    config.Test
	detail string
}

// acceptFirst evaluates candidates in parallel, logs every candidate in
// submission order, and returns the index of the first one preserving
// the target anomaly (-1 if none). Errored candidates (for example a
// simplification that invalidates the config) are simply not kept.
func (m *minimizer) acceptFirst(action string, cands []candidate) int {
	results := m.evaluate(configsOf(cands))
	accepted := -1
	for i := range cands {
		keep := false
		if accepted < 0 && results[i].Err == nil {
			keep = anomalyOf(results[i].Report).Equal(m.target)
		}
		if keep {
			accepted = i
		}
		m.res.Steps = append(m.res.Steps, Step{
			Round:  m.round,
			Action: action,
			Detail: cands[i].detail,
			Events: len(cands[i].cfg.Traffic.Events),
			Kept:   keep,
		})
	}
	return accepted
}

func configsOf(cands []candidate) []config.Test {
	cfgs := make([]config.Test, len(cands))
	for i, c := range cands {
		cfgs[i] = c.cfg
	}
	return cfgs
}

// withEvents returns cfg with the given event subset.
func withEvents(cfg config.Test, events []config.Event) config.Test {
	out := cfg
	out.Traffic.Events = append([]config.Event(nil), events...)
	return out
}

// ddminEvents is delta debugging over the injected event list: remove
// ever-finer complements, accepting the first (lowest-index) removal
// that preserves the anomaly, until no single event is removable.
func (m *minimizer) ddminEvents(cfg config.Test) config.Test {
	events := append([]config.Event(nil), cfg.Traffic.Events...)
	gran := 2
	for len(events) > 0 {
		m.round++
		if gran > len(events) {
			gran = len(events)
		}
		var cands []candidate
		bounds := chunkBounds(len(events), gran)
		for ci := 0; ci+1 < len(bounds); ci++ {
			lo, hi := bounds[ci], bounds[ci+1]
			rest := make([]config.Event, 0, len(events)-(hi-lo))
			rest = append(rest, events[:lo]...)
			rest = append(rest, events[hi:]...)
			cands = append(cands, candidate{
				cfg:    withEvents(cfg, rest),
				detail: fmt.Sprintf("remove events %d..%d of %d", lo, hi-1, len(events)),
			})
		}
		i := m.acceptFirst("drop-events", cands)
		switch {
		case i >= 0:
			events = cands[i].cfg.Traffic.Events
			if gran > 2 {
				gran--
			}
		case gran < len(events):
			gran = min(len(events), 2*gran)
		default:
			return withEvents(cfg, events)
		}
	}
	return withEvents(cfg, events)
}

// chunkBounds splits n items into gran contiguous chunks, returning
// gran+1 boundary indices.
func chunkBounds(n, gran int) []int {
	bounds := make([]int, gran+1)
	for i := 0; i <= gran; i++ {
		bounds[i] = i * n / gran
	}
	return bounds
}

// simplifiers is the fixed simplification ladder, tried in this order
// each round. Each proposes one canonical field simplification and its
// detail, or ok=false when it no longer applies. Candidates that fail
// validation (for example shrinking a message below an event's packet
// index) are rejected by their failing run, so each pass can propose
// aggressively.
var simplifiers = []func(config.Test) (config.Test, string, bool){
	func(c config.Test) (config.Test, string, bool) {
		maxQPN := 1
		for _, ev := range c.Traffic.Events {
			if ev.QPN > maxQPN {
				maxQPN = ev.QPN
			}
		}
		if c.Traffic.NumConnections <= maxQPN {
			return c, "", false
		}
		out := c
		out.Traffic.NumConnections = maxQPN
		if len(out.Traffic.QPTrafficClass) > maxQPN {
			out.Traffic.QPTrafficClass = out.Traffic.QPTrafficClass[:maxQPN]
		}
		return out, fmt.Sprintf("num-connections %d→%d", c.Traffic.NumConnections, maxQPN), true
	},
	func(c config.Test) (config.Test, string, bool) {
		if c.Traffic.NumMsgsPerQP <= 1 {
			return c, "", false
		}
		out := c
		out.Traffic.NumMsgsPerQP = 1
		return out, fmt.Sprintf("num-msgs-per-qp %d→1", c.Traffic.NumMsgsPerQP), true
	},
	func(c config.Test) (config.Test, string, bool) {
		if c.Traffic.MessageSize <= c.Traffic.MTU {
			return c, "", false
		}
		half := c.Traffic.MessageSize / 2
		if half < c.Traffic.MTU {
			half = c.Traffic.MTU
		}
		out := c
		out.Traffic.MessageSize = half
		return out, fmt.Sprintf("message-size %d→%d", c.Traffic.MessageSize, half), true
	},
	func(c config.Test) (config.Test, string, bool) {
		if c.Traffic.TxDepth <= 1 {
			return c, "", false
		}
		out := c
		out.Traffic.TxDepth = 1
		return out, fmt.Sprintf("tx-depth %d→1", c.Traffic.TxDepth), true
	},
	func(c config.Test) (config.Test, string, bool) {
		if len(c.Requester.ETS) == 0 && len(c.Responder.ETS) == 0 && len(c.Traffic.QPTrafficClass) == 0 {
			return c, "", false
		}
		out := c
		out.Requester.ETS = nil
		out.Responder.ETS = nil
		out.Traffic.QPTrafficClass = nil
		return out, "drop ets-queues + qp-traffic-class", true
	},
	func(c config.Test) (config.Test, string, bool) {
		if c.Seed == 1 {
			return c, "", false
		}
		out := c
		out.Seed = 1
		return out, fmt.Sprintf("seed %d→1", c.Seed), true
	},
}

// simplifyFields runs simplification rounds until a fixpoint: each
// round proposes every applicable pass against the current base and
// accepts the first that preserves the anomaly. It reports whether any
// round accepted a candidate.
func (m *minimizer) simplifyFields(cfg config.Test) (config.Test, bool) {
	changed := false
	for {
		m.round++
		var cands []candidate
		for _, s := range simplifiers {
			if out, detail, ok := s(cfg); ok {
				cands = append(cands, candidate{cfg: out, detail: detail})
			}
		}
		if len(cands) == 0 {
			return cfg, changed
		}
		i := m.acceptFirst("simplify", cands)
		if i < 0 {
			return cfg, changed
		}
		cfg = cands[i].cfg
		changed = true
	}
}
