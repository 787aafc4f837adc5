package core

import "andorsched/internal/sim"

// Arena owns the per-run scratch state of the on-line phase: the engine's
// sim.Arena plus this layer's resolved script, the run's initial levels,
// branch-probability scratch, the reusable policy, the clairvoyant probe
// result, the engine configuration, the run's observer and the Monte-Carlo
// loops' result holder. One Arena per worker goroutine, reused across
// runs, makes steady-state Plan.RunInto calls allocation-free (with
// RunConfig.Tracer, Metrics, CollectTrace and Validate unset).
//
// An Arena is not safe for concurrent use. Results are bit-identical to the
// arena-free entry points for any reuse pattern and worker count: the arena
// recycles memory, never state.
type Arena struct {
	sim sim.Arena

	sc script // resolved script, slices reused across runs

	simCfg sim.Config // the engine configuration of the run in progress
	obs    observer   // the run's observer, used when it is traced or metered

	levels    []int     // the run's initial levels, handed to the engine
	clvLevels []int     // clairvoyant initial levels
	probs     []float64 // chooseBranch scratch
	batch     []float64 // one section's sampled times (SampleBatch output)
	pol       policy    // the run's policy, re-initialized per run
	probe     RunResult // clairvoyant probe output
	mcRes     RunResult // MonteCarlo / CompareFrames result holder
}

// NewArena returns an empty Arena. Buffers grow on first use and are
// retained across runs.
func NewArena() *Arena { return &Arena{} }

// ensureInts returns buf resized to n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite.
func ensureInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// ensureFloats is ensureInts for float64 slices.
func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
