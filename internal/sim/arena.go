package sim

// Arena owns every piece of the engine's scratch state: the processor
// tables (levels, freeAt), the dependence counters and ready times, and
// the Result's record buffers. Acquiring one Arena per worker and reusing
// it across runs makes steady-state engine runs allocation-free: once
// warmed up on the largest section, Begin and Section perform zero heap
// allocations.
//
// A run of several sections has two steps. Begin, once per run, checks and
// stores the configuration and sets the processors' levels; Section, once
// per section, runs a compiled Program from a start time, carrying the
// levels over from the previous section.
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

// Begin starts a run of one or more sections on cfg: it checks
// cfg.InitialLevels, sizes the arena's buffers, stores cfg (read by every
// Section until the next Begin, so it must stay unchanged until then) and
// sets each processor's level; each Section brings its start. levelTime,
// if non-nil, is an output buffer with an entry per level of the machine's
// largest DVS table: every execution of the run adds its finish − start to
// the entry of its level, in dispatch order.
func (a *Arena) Begin(cfg *Config, levelTime []float64) error {
	return a.rs.begin(cfg, levelTime)
}

// Section runs the next section of the run begun: the tasks of prog,
// dispatched from start in their order, with each processor at
// the level the previous section left it (Begin's levels for the first).
// tasks must be the section prog was compiled from, with only the per-run
// fields (WorkA, LFT, SpecRemain) rewritten; Section checks each
// computation task's actual work against its worst case. The Result and
// every slice it references (Records, BusyTime, OverheadTime, FinalLevels)
// are owned by the arena and valid only until the next Begin or Section
// on it; callers that need the data longer must copy it. Its FinalLevels
// are the levels the next Section starts from.
func (a *Arena) Section(prog *Program, tasks []*Task, start float64) (*Result, error) {
	if err := a.rs.checkSection(prog, tasks); err != nil {
		return nil, err
	}
	return a.rs.section(prog, tasks, start)
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
