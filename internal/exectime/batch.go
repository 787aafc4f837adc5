package exectime

import "math"

// This file implements batched sampling: drawing a whole program section's
// actual execution times in one call. The serving layer's steady-state run
// path samples every task of a section back to back, so hoisting the
// Box–Muller spare-handling branch and the per-call indirection out of the
// loop amortizes the generator over the section. The batched entry points
// consume exactly the same random stream as their one-at-a-time
// counterparts — sequences are bit-identical, which the property tests in
// batch_test.go assert — so results never depend on which path a caller
// took.

// FillNorm fills dst with standard normal variates (mean 0, stddev 1). The
// values and the generator's final state are bit-identical to len(dst)
// successive NormFloat64 calls: a cached Box–Muller spare is consumed
// first, pairs are generated with the same draws and operations, and an
// odd trailing element leaves its partner cached as the next spare.
func (s *Source) FillNorm(dst []float64) {
	i := 0
	if s.haveSpare && len(dst) > 0 {
		s.haveSpare = false
		dst[0] = s.spare
		i = 1
	}
	for i < len(dst) {
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
		dst[i] = r * cos
		if i+1 < len(dst) {
			dst[i+1] = r * sin
		} else {
			s.spare = r * sin
			s.haveSpare = true
		}
		i += 2
	}
}

// SampleBatch sets dst[i] to one actual execution time for a task with
// worst case wcet[i] and average case acet[i], bit-identically to
// element-wise Sample calls in index order but with the normal variates
// generated in one FillNorm pass. Tasks without variability (biased mean ≥
// WCET) consume no randomness, exactly as in Sample. The three slices must
// have equal length. The scratch buffer is retained on the sampler, so
// steady-state calls allocate nothing once warmed.
func (sm *Sampler) SampleBatch(wcet, acet, dst []float64) {
	if len(wcet) != len(dst) || len(acet) != len(dst) {
		panic("exectime: SampleBatch slice length mismatch")
	}
	need := 0
	for i := range dst {
		if sm.mean(wcet[i], acet[i]) < wcet[i] {
			need++
		}
	}
	if cap(sm.norms) < need {
		sm.norms = make([]float64, need)
	}
	norms := sm.norms[:need]
	sm.src.FillNorm(norms)
	j := 0
	for i := range dst {
		w := wcet[i]
		a := sm.mean(w, acet[i])
		if a >= w {
			dst[i] = w // no run-time variability (α = 1)
			continue
		}
		sigma := DefaultSigmaFactor * (w - a)
		if sigma == 0 {
			dst[i] = a
			continue
		}
		dst[i] = truncate(w, a, a+sigma*norms[j])
		j++
	}
}
