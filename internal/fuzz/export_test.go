package fuzz

import "github.com/lumina-sim/lumina/internal/sim"

// DefaultOptions mirror the paper's usage: small pool, mild diversity.
func DefaultOptions() Options {
	return Options{Seed: 1, PoolSize: 6, AcceptProb: 0.2, Deadline: 120 * sim.Second, Generation: 8}
}

// PoolSize reports the current pool population.
func (f *Fuzzer) PoolSize() int { return len(f.pool) }
