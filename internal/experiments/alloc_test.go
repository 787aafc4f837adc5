package experiments

import (
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestSweepAllocsPerPoint asserts that a sweep builds its workers and
// arenas once, not once per point: the allocations EnergyVsLoad adds for
// eight more loads stay within what the per-point result maps cost. A
// per-point harness rebuilds an arena, a source and a sampler per worker
// per point and grows every arena buffer again, hundreds of allocations
// per point. One worker keeps the count deterministic: with several, how
// many runs each worker's arena needs before it has grown to the plan's
// largest sections depends on scheduling.
func TestSweepAllocsPerPoint(t *testing.T) {
	cfg := Config{
		Graph:     workload.ATR(workload.DefaultATRConfig()),
		Procs:     2,
		Platform:  power.Transmeta5400(),
		Overheads: power.DefaultOverheads(),
		Schemes:   []core.Scheme{core.GSS, core.AS},
		Runs:      20,
		Seed:      42,
		Workers:   1,
	}
	measure := func(loads int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := EnergyVsLoad(cfg, sweepRange(0.2, 0.9, loads-1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(2)
	large := measure(10)
	// Each point's three result maps cost two allocations apiece; allow
	// twice that.
	const perPoint = 12
	if large-small > 8*perPoint {
		t.Errorf("sweep allocations grow by %.0f per point: %.0f at 2 loads vs %.0f at 10 loads",
			(large-small)/8, small, large)
	}
	t.Logf("EnergyVsLoad allocations: %.0f at 2 loads, %.0f at 10 loads", small, large)
}
