package core

import "andorsched/internal/sim"

// Arena owns the per-run scratch state of the on-line phase: the engine's
// sim.Arena plus this layer's resolved script, task instantiation buffers,
// the run's initial levels, branch-probability scratch, the reusable policy,
// the clairvoyant probe result, the engine configuration, the run's
// observer and the Monte-Carlo loops' result holder. One Arena per worker goroutine, reused
// across runs, makes steady-state Plan.RunInto calls allocation-free (with
// RunConfig.Tracer, Metrics, CollectTrace and Validate unset).
//
// An Arena is not safe for concurrent use. Results are bit-identical to the
// arena-free entry points for any reuse pattern and worker count: the arena
// recycles memory, never state.
type Arena struct {
	sim sim.Arena

	sc script // resolved script, slices reused across runs

	// runtimeTasks' engine tasks for the plan taskPlan, each section's at
	// its taskOff; filled marks (by section ID) the sections whose
	// templates have been copied in since the arena switched plans.
	taskPlan *Plan
	tasks    []sim.Task
	taskPtrs []*sim.Task
	filled   []bool
	lftD     []float64 // by section ID: the deadline its tasks' LFTs were resolved against

	simCfg sim.Config // the engine configuration of the run in progress
	obs    observer   // the run's observer, used when it is traced or metered

	levels    []int     // the run's initial levels, handed to the engine
	clvLevels []int     // clairvoyant initial levels
	probs     []float64 // chooseBranch scratch
	busyP     []float64 // per-processor busy seconds (per-class idle energy)
	ovhP      []float64 // per-processor overhead seconds (per-class idle energy)
	batch     []float64 // one section's sampled times (SampleBatch output)
	pol       policy    // the run's policy, re-initialized per run
	probePol  policy    // clairvoyant probe policy
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

// ensureBools returns buf resized to n with every element false.
func ensureBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}
