package exectime

// Sampler draws actual execution times for tasks. Per the paper (§5), "the
// actual execution time of a task follows a normal distribution around"
// its average-case execution time; the distribution's width is not given in
// the paper, so it is a documented parameter here. Its Source also drives
// OR branch selection, so one seed determines a whole run.
type Sampler struct {
	src *Source
	// bias scales every task's mean before drawing: draws center on
	// min(bias·ACET, WCET). 1 (every constructor but NewBiasedSampler)
	// leaves the ACET unchanged.
	bias float64
	// norms is SampleBatch's retained scratch for normal variates.
	norms []float64
}

// DefaultSigmaFactor is the ratio of σ to (WCET − ACET): σ =
// DefaultSigmaFactor·(WCET−ACET). It puts the WCET at 3σ above the mean,
// so nearly all of the untruncated mass lies below the worst case.
const DefaultSigmaFactor = 1.0 / 3.0

// NewSampler returns a Sampler drawing from src with the default width.
func NewSampler(src *Source) *Sampler {
	return &Sampler{src: src, bias: 1}
}

// NewBiasedSampler returns a default-width Sampler whose draws center on
// factor·ACET, clamped so the mean never exceeds the WCET. It models a
// system whose off-line profile is wrong: the plan was compiled with one α
// while the actual runs center elsewhere. A factor below 1 makes runs
// lighter than assumed (the situation online slack reclamation exploits);
// a factor above 1 makes them heavier. It panics on a non-positive factor
// (a zero mean has no sampling interpretation).
func NewBiasedSampler(src *Source, factor float64) *Sampler {
	if factor <= 0 {
		panic("exectime: bias factor must be positive")
	}
	return &Sampler{src: src, bias: factor}
}

// mean is the center of a task's draws: its ACET scaled by the bias,
// clamped to the WCET. With bias 1 it is the ACET bit for bit.
func (sm *Sampler) mean(wcet, acet float64) float64 {
	if a := sm.bias * acet; a < wcet {
		return a
	}
	return wcet
}

// Sample draws one actual execution time for a task with the given WCET and
// ACET (seconds at maximum speed): a normal variate with mean a (the ACET,
// or its biased form), truncated symmetrically to [a − (WCET−a), WCET] so
// the mean is preserved, and floored at a small positive fraction of a
// when the symmetric lower bound would be non-positive (tasks always
// execute some work).
func (sm *Sampler) Sample(wcet, acet float64) float64 {
	a := sm.mean(wcet, acet)
	if a >= wcet {
		return wcet // no run-time variability (α = 1)
	}
	sigma := DefaultSigmaFactor * (wcet - a)
	if sigma == 0 {
		return a
	}
	return truncate(wcet, a, a+sigma*sm.src.NormFloat64())
}

// truncate clamps the draw x around mean a to [max(a − (wcet−a), 0.01·a),
// wcet].
func truncate(wcet, a, x float64) float64 {
	lo := a - (wcet - a)
	if floor := 0.01 * a; lo < floor {
		lo = floor
	}
	return min(wcet, max(lo, x))
}

// Source exposes the underlying random source, used by the simulator for
// Or-branch selection so that one seed drives an entire run.
func (sm *Sampler) Source() *Source { return sm.src }
