package sim

// Arena owns every piece of the engine's scratch state: the processor
// tables (levels, freeAt), the dependence counters and ready times, the
// section totals and the Result's buffers. Acquiring one Arena per worker
// and reusing it across runs makes steady-state engine runs
// allocation-free: once warmed up on the largest script, Run performs zero
// heap allocations.
//
// An Arena is not safe for concurrent use; use one per goroutine. It never
// writes into a Program, so one program may serve many arenas at once.
// Results are bit-identical for any reuse pattern: the arena only recycles
// memory, never state.
type Arena struct {
	rs runState
}

// NewArena returns an empty Arena. Buffers grow on first use and are
// retained across runs.
func NewArena() *Arena { return &Arena{} }

// Run executes the script steps on cfg's machine, one section per step:
// the first from time 0 with each processor at its initial level, and
// each later one when the previous one finishes, with the levels the
// previous one left. Every program must have been compiled for a machine
// of cfg's class count. Run reports bad initial levels, a structural fault
// the order gate meets (a deadlock or a task released more often than it
// has predecessors) and a computation task whose actual work exceeds its
// worst case. The Result and every slice it references are owned by the
// arena and valid only until its next Run; cfg must stay unchanged during
// the call.
func (a *Arena) Run(cfg *Config, steps []Step) (*Result, error) {
	return a.runFrom(cfg, 0, steps)
}

// runFrom is Run with the first section starting at start.
func (a *Arena) runFrom(cfg *Config, start float64, steps []Step) (*Result, error) {
	if err := a.rs.begin(cfg, len(steps)); err != nil {
		return nil, err
	}
	return a.rs.run(start, steps)
}

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
