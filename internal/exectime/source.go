// Package exectime provides the deterministic random number source and the
// actual-execution-time model used by the simulations.
//
// The paper's evaluation (§5) draws each task's actual execution time from
// a normal distribution around its average-case execution time and averages
// 1000 runs per data point. Reproducibility of every figure requires a
// seeded, stable generator, so this package implements its own small PRNG
// (SplitMix64) rather than depending on math/rand's unspecified stream
// evolution across Go releases.
package exectime

import "math"

// gamma is SplitMix64's Weyl-sequence increment. The generator's state
// after n steps is exactly seed + n·gamma (the output mixing is stateless),
// which is what lets SeedAt reach any point of a stream in O(1), without
// generating the prefix.
const gamma = 0x9e3779b97f4a7c15

// Source is a deterministic pseudo-random number generator (SplitMix64).
// It implements the subset of math/rand.Rand used by this repository —
// Float64, Intn, NormFloat64. A Source is not safe for concurrent use;
// seed one per goroutine (see SeedAt).
type Source struct {
	state uint64

	// Box–Muller generates normal variates in pairs; the spare is cached.
	haveSpare bool
	spare     float64
}

// NewSource returns a Source seeded with the given value. Distinct seeds
// yield statistically independent streams.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("exectime: Intn with non-positive n")
	}
	// Modulo bias is negligible for the small n used here (branch and
	// iteration counts), and determinism matters more than perfection.
	return int(s.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u, v float64
	for {
		u = s.Float64()
		if u > 0 { // log(0) guard
			break
		}
	}
	v = s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	s.spare = r * sin
	s.haveSpare = true
	return r * cos
}

// Reseed resets the receiver to the exact state of NewSource(seed),
// discarding any cached Box–Muller spare. It lets hot loops (one source per
// worker, reseeded per run) reproduce the stream a fresh source would
// produce without allocating.
func (s *Source) Reseed(seed uint64) {
	s.state = seed
	s.haveSpare = false
	s.spare = 0
}

// SeedAt returns the i-th value (0-based) of NewSource(seed)'s Uint64
// stream in O(1) — the per-run seed a master source hands to run i. It
// exists so independent chunks (and batch items deriving per-item seeds)
// can agree on per-run seeds without sharing a generator.
func SeedAt(seed, i uint64) uint64 {
	s := Source{state: seed + i*gamma}
	return s.Uint64()
}

// Pick samples an index from the discrete distribution probs (which should
// sum to 1). Rounding residue goes to the last index, so Pick always
// returns a valid index for a non-empty distribution.
func (s *Source) Pick(probs []float64) int {
	if len(probs) == 0 {
		panic("exectime: Pick from empty distribution")
	}
	u := s.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}
