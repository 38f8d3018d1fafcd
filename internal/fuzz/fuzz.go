// Package fuzz implements Lumina's genetic test-case generation module
// (§4, Algorithm 1). A target defines a bounded parameter space, a
// mapping from parameter vectors (genomes) to test configurations, and a
// multi-objective scoring function over run results; the fuzzer
// maintains a pool of configurations, mutates random members, keeps
// high-quality mutants (score at or above the pool median), keeps
// low-quality ones with a small probability to preserve diversity, and
// reports configurations whose score crosses the anomaly threshold.
package fuzz

import (
	"context"
	"fmt"
	"sort"

	"github.com/lumina-sim/lumina/internal/config"
	"github.com/lumina-sim/lumina/internal/coverage"
	"github.com/lumina-sim/lumina/internal/engine"
	"github.com/lumina-sim/lumina/internal/orchestrator"
	"github.com/lumina-sim/lumina/internal/sim"
)

// Param bounds one genome dimension.
type Param struct {
	Name string
	Min  int
	Max  int // inclusive
}

// Genome is one point in the target's parameter space.
type Genome []int

// Clone copies the genome.
func (g Genome) Clone() Genome { return append(Genome(nil), g...) }

func (g Genome) String() string {
	return fmt.Sprintf("%v", []int(g))
}

// Target describes what the fuzzer searches for: the space, the mapping
// to runnable configurations, and the anomaly scoring.
type Target struct {
	Name   string
	Params []Param
	// Build maps a genome to a runnable test configuration.
	Build func(Genome) config.Test
	// Score rates a completed run's "quality" at triggering anomalies —
	// the multi-objective Σ wᵢ·s(i) of Algorithm 1. Higher is more
	// anomalous.
	Score func(Genome, *orchestrator.Report) float64
	// Threshold above which a configuration counts as an anomaly.
	Threshold float64
}

// Options tune the search.
type Options struct {
	Seed       int64
	PoolSize   int     // initial pool of valid configurations
	AcceptProb float64 // probability of keeping a below-median mutant
	// Deadline bounds each evaluation's virtual time.
	Deadline sim.Duration
	// StopAtFirstAnomaly ends the search as soon as one anomaly is found
	// (Algorithm 1's "until anomaly found or timeout").
	StopAtFirstAnomaly bool
	// Generation is the number of candidates drawn and evaluated per
	// round (default 8). It is an algorithm property: changing it
	// changes the search trajectory; changing Workers never does.
	Generation int
	// Workers is the engine worker-pool size used to evaluate a
	// generation (0 = one per CPU, 1 = serial). Because every
	// evaluation is an independent deterministic simulation and all
	// search randomness is drawn before a generation fans out, the
	// result is byte-identical for every worker count.
	Workers int
	// Coverage makes the search coverage-guided: every evaluation runs
	// with the behavioral coverage map attached, and a mutant that
	// lights up (site, transition) pairs new to its NIC profile's
	// frontier is admitted to the pool even when its score falls below
	// the median — novelty keeps a lineage alive the score alone would
	// discard. New-coverage mutants below the anomaly threshold are
	// reported as Result.CoverageSeeds. Frontier bookkeeping happens in
	// submission order during the merge phase and consumes no search
	// RNG, so guided searches stay byte-identical across worker counts.
	Coverage bool
	// CoverageObserve collects the same coverage and frontier
	// bookkeeping as Coverage but never lets novelty influence pool
	// admission — the blind-search baseline with measurement attached,
	// for quantifying what guidance buys.
	CoverageObserve bool
}

// Finding is one anomalous (or, in Result.CoverageSeeds, one
// frontier-advancing) configuration.
type Finding struct {
	Genome Genome
	Score  float64
	Report *orchestrator.Report
	// NewPairs are the (site, transition) coverage keys this evaluation
	// added to its NIC profile's frontier, in canonical registry order;
	// empty unless coverage collection was on.
	NewPairs []string
}

// Result summarizes a search.
type Result struct {
	Findings    []Finding // sorted by score, descending
	Evaluations int
	BestScore   float64
	BestGenome  Genome

	// CoverageSeeds are below-threshold configurations that advanced the
	// coverage frontier, in discovery order; nil unless coverage
	// collection was on.
	CoverageSeeds []Finding
	// Frontier maps NIC profile name → covered (site, transition) pairs
	// accumulated across the whole search; nil unless coverage
	// collection was on.
	Frontier map[string]int
	// FrontierGrowth records, per merged generation (pool
	// initialization first), how many pairs that generation added
	// across all profiles; nil unless coverage collection was on.
	FrontierGrowth []int
}

type member struct {
	genome Genome
	score  float64
}

// Fuzzer runs Algorithm 1 over a target.
type Fuzzer struct {
	target Target
	opts   Options
	rng    *sim.RNG
	pool   []member
	res    Result

	// frontier accumulates covered (site, transition) pairs per NIC
	// profile; nil unless coverage collection is on.
	frontier map[string]*coverage.Set
}

// collecting reports whether evaluations run with coverage attached.
func (f *Fuzzer) collecting() bool { return f.opts.Coverage || f.opts.CoverageObserve }

// New validates the target and prepares a fuzzer.
func New(target Target, opts Options) (*Fuzzer, error) {
	if len(target.Params) == 0 {
		return nil, fmt.Errorf("fuzz: target needs parameters")
	}
	for _, p := range target.Params {
		if p.Min > p.Max {
			return nil, fmt.Errorf("fuzz: param %q has empty range", p.Name)
		}
	}
	if target.Build == nil || target.Score == nil {
		return nil, fmt.Errorf("fuzz: target needs Build and Score")
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 6
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 120 * sim.Second
	}
	if opts.Generation <= 0 {
		opts.Generation = 8
	}
	if opts.Workers < 0 {
		opts.Workers = 0
	}
	f := &Fuzzer{target: target, opts: opts, rng: sim.NewRNG(opts.Seed)}
	if f.collecting() {
		f.frontier = map[string]*coverage.Set{}
		f.res.Frontier = map[string]int{}
	}
	return f, nil
}

// randomGenome samples uniformly within bounds.
func (f *Fuzzer) randomGenome() Genome {
	g := make(Genome, len(f.target.Params))
	for i, p := range f.target.Params {
		g[i] = p.Min + f.rng.Intn(p.Max-p.Min+1)
	}
	return g
}

// mutate perturbs one or two dimensions: a small step or a fresh sample.
func (f *Fuzzer) mutate(g Genome) Genome {
	out := g.Clone()
	n := 1 + f.rng.Intn(2)
	for k := 0; k < n; k++ {
		i := f.rng.Intn(len(out))
		p := f.target.Params[i]
		span := p.Max - p.Min
		switch f.rng.Intn(3) {
		case 0: // re-sample
			out[i] = p.Min + f.rng.Intn(span+1)
		case 1: // step up
			step := 1 + f.rng.Intn(max(1, span/4))
			out[i] = min(p.Max, out[i]+step)
		default: // step down
			step := 1 + f.rng.Intn(max(1, span/4))
			out[i] = max(p.Min, out[i]-step)
		}
	}
	return out
}

// evalSeed derives a per-evaluation seed from the genome so identical
// genomes reproduce identical runs regardless of search order.
func evalSeed(g Genome) int64 {
	seed := int64(1)
	for _, v := range g {
		seed = seed*1000003 + int64(v) + 7
	}
	return seed
}

// evaluateAll fans one generation of genomes out over the run engine
// and returns the per-genome results in submission order. Evaluations
// consume no search RNG — each run's seed is a pure function of its
// genome — so the pool trajectory is independent of how (or in what
// order) the generation actually executed.
func (f *Fuzzer) evaluateAll(gs []Genome) []engine.JobResult {
	jobs := make([]engine.Job, len(gs))
	for i, g := range gs {
		cfg := f.target.Build(g)
		cfg.Seed = evalSeed(g)
		jobs[i] = engine.Job{
			Label: fmt.Sprintf("%s %v", f.target.Name, g),
			Cfg:   cfg,
			// Lineage judges the run, so scores can read its analysis.
			Opts: orchestrator.Options{Deadline: f.opts.Deadline, Lineage: true, Coverage: f.collecting()},
		}
	}
	return engine.Run(context.Background(), jobs, engine.Options{Workers: f.opts.Workers})
}

func (f *Fuzzer) medianScore() float64 {
	scores := make([]float64, len(f.pool))
	for i, m := range f.pool {
		scores[i] = m.score
	}
	sort.Float64s(scores)
	n := len(scores)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return scores[n/2]
	}
	return (scores[n/2-1] + scores[n/2]) / 2
}

func (f *Fuzzer) record(g Genome, score float64, rep *orchestrator.Report, fresh []string) {
	if score > f.res.BestScore || f.res.BestGenome == nil {
		f.res.BestScore = score
		f.res.BestGenome = g.Clone()
	}
	if score >= f.target.Threshold {
		f.res.Findings = append(f.res.Findings, Finding{Genome: g.Clone(), Score: score, Report: rep, NewPairs: fresh})
	} else if len(fresh) > 0 {
		f.res.CoverageSeeds = append(f.res.CoverageSeeds, Finding{Genome: g.Clone(), Score: score, Report: rep, NewPairs: fresh})
	}
}

// advanceFrontier merges one evaluation's coverage into its NIC
// profile's frontier and returns the freshly covered pair keys in
// canonical registry order. The profile key is the requester NIC model:
// targets drive both endpoints with the model under test, and a pair
// that is new for one model may be long-covered for another.
func (f *Fuzzer) advanceFrontier(rep *orchestrator.Report) []string {
	if rep.Coverage == nil {
		return nil
	}
	prof := rep.Config.Requester.NIC.Type
	set := f.frontier[prof]
	if set == nil {
		set = coverage.NewSet()
		f.frontier[prof] = set
	}
	fresh := set.AddReport(rep.Coverage)
	f.res.Frontier[prof] = set.Size()
	return fresh
}

// candidate is one drawn-but-not-yet-merged genome. The accept coin is
// drawn unconditionally in the draw phase — before any evaluation — so
// the search RNG stream never depends on scores and a generation can
// fan out over the worker pool without perturbing the trajectory.
type candidate struct {
	genome Genome
	coin   float64
}

// mergeGeneration consumes one generation's results in submission
// order: score, pool admission against the current (growing) median,
// recording, and the early-stop check. init admits unconditionally
// (pool initialization). It reports whether the search should stop;
// results past the stopping point are discarded unseen and uncounted,
// exactly as a serial loop would never have evaluated them.
func (f *Fuzzer) mergeGeneration(cands []candidate, results []engine.JobResult, init bool) (stop bool, err error) {
	grew := 0
	if f.collecting() {
		// One growth entry per merged generation, even when the merge
		// stops early — the entry then counts only the consumed results.
		defer func() {
			if err == nil {
				f.res.FrontierGrowth = append(f.res.FrontierGrowth, grew)
			}
		}()
	}
	for i, c := range cands {
		r := &results[i]
		if r.Err != nil {
			return true, fmt.Errorf("fuzz %s: evaluating %v: %w", f.target.Name, c.genome, r.Err)
		}
		score := f.target.Score(c.genome, r.Report)
		f.res.Evaluations++
		fresh := f.advanceFrontier(r.Report)
		grew += len(fresh)
		// Coverage guidance: frontier-advancing mutants join the pool
		// regardless of score (observe mode measures but never admits).
		if init || score >= f.medianScore() || c.coin < f.opts.AcceptProb ||
			(f.opts.Coverage && len(fresh) > 0) {
			f.pool = append(f.pool, member{c.genome, score})
		}
		f.record(c.genome, score, r.Report, fresh)
		if f.opts.StopAtFirstAnomaly && len(f.res.Findings) > 0 {
			return true, nil
		}
	}
	return false, nil
}

// Run executes up to iters mutation evaluations (after seeding the
// pool) and returns the accumulated result. It follows Algorithm 1:
//
//	Γ ← initialize a pool of configs
//	repeat: γ ← random pick; γ* ← mutate(γ); run; Δ ← score
//	        if Δ ≥ median(Γ): Γ += γ*  else: Γ += γ* with probability p
//	until anomaly found or timeout
//
// generationally: each round draws up to Options.Generation candidates
// (parent picks, mutations, and accept coins — all of the round's
// randomness) against the pool as it stood at the round's start, fans
// the evaluations out over the run engine, and merges the results in
// draw order. Evaluations consume no search RNG, so the result is
// identical for every worker count.
func (f *Fuzzer) Run(iters int) (*Result, error) {
	// Initialization: one generation of uniform samples, admitted
	// unconditionally.
	var seeds []candidate
	for len(seeds)+len(f.pool) < f.opts.PoolSize {
		seeds = append(seeds, candidate{genome: f.randomGenome()})
	}
	gs := make([]Genome, len(seeds))
	for i, c := range seeds {
		gs[i] = c.genome
	}
	stop, err := f.mergeGeneration(seeds, f.evaluateAll(gs), true)
	if err != nil {
		return nil, err
	}
	// Mutation generations.
	for done := 0; done < iters && !stop; {
		n := min(f.opts.Generation, iters-done)
		cands := make([]candidate, n)
		gs := make([]Genome, n)
		for i := range cands {
			parent := f.pool[f.rng.Intn(len(f.pool))]
			cands[i] = candidate{genome: f.mutate(parent.genome), coin: f.rng.Float64()}
			gs[i] = cands[i].genome
		}
		stop, err = f.mergeGeneration(cands, f.evaluateAll(gs), false)
		if err != nil {
			return nil, err
		}
		done += n
	}
	f.finish()
	return &f.res, nil
}

func (f *Fuzzer) finish() {
	sort.SliceStable(f.res.Findings, func(i, j int) bool {
		return f.res.Findings[i].Score > f.res.Findings[j].Score
	})
}
