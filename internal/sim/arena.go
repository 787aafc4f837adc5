package sim

// Arena owns every piece of per-run scratch state the engine needs: the
// processor tables (levels, freeAt), the dependence counters, the dispatch
// order, the ByPriority ready queue and event heap, and the Result's
// record/timeline buffers.
// Acquiring one Arena per worker and reusing it across runs makes
// steady-state engine runs allocation-free: after a warm-up run on the
// largest section, (*Arena).Run performs zero heap allocations as long as
// Config.Tracer and Config.Metrics are nil.
//
// An Arena is not safe for concurrent use; use one per goroutine. Results
// are bit-identical to the package-level Run for any reuse pattern: the
// arena only recycles memory, never state.
type Arena struct {
	rs runState
}

// NewArena returns an empty Arena. Buffers grow on first use and are
// retained across runs.
func NewArena() *Arena { return &Arena{} }

// Run is the arena-threaded form of the package-level Run: identical
// semantics and bit-identical results (ByOrder the order-gate recurrence,
// ByPriority the event loop), but all scratch state comes from the arena.
// cfg is read, never copied or modified, and must not change during the
// call; callers running many sections keep one Config and update only what
// differs, such as Start. The returned Result and every slice it
// references (Records, BusyTime, OverheadTime, FinalLevels) are owned by
// the arena and valid only until the next Run on the same arena; callers
// that need the data longer must copy it.
func (a *Arena) Run(cfg *Config, tasks []*Task) (*Result, error) {
	return a.rs.run(cfg, tasks)
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
