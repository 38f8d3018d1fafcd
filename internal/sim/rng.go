package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64 core feeding an xoshiro256** state). We implement it by hand
// instead of using math/rand so that the simulation's random streams are
// stable across Go releases: math/rand's output for a given seed is
// guaranteed, but math/rand/v2 is not, and test goldens should not depend
// on which one a future maintainer reaches for.
type RNG struct {
	s [4]uint64
}

// NewRNG creates a generator seeded from seed via SplitMix64, following
// the reference initialization for xoshiro256**.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		// invariant: every bound is a positive constant, a non-empty slice's length, or a profile span plus one; none comes from a scenario.
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		// invariant: the one caller, LatencyCurve.At, draws only when its profile's Jitter is positive.
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent generator from this one. Useful for giving
// each component its own stream so that adding random draws in one
// component does not perturb another's sequence.
func (r *RNG) Fork() *RNG {
	return NewRNG(int64(r.Uint64()))
}
