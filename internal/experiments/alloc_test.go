package experiments

import (
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestMeasurePointAllocsConstantInRuns asserts the harness-level payoff of
// the arenas: the number of heap allocations in measurePoint is (nearly)
// independent of the run count — per-point setup allocates, per-run
// execution does not. Pre-arena, 10× the runs meant 10× the allocations.
func TestMeasurePointAllocsConstantInRuns(t *testing.T) {
	plan, err := core.NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	schemes := []core.Scheme{core.GSS, core.AS}
	deadline := plan.CTWorst * 2
	measure := func(runs int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := measurePoint(plan, schemes, 0.5, deadline, runs, 42, 1, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(20)
	large := measure(200)
	// The flat result slices and the final statistics folding may grow with
	// runs by a handful of allocations; the pre-arena harness grew by
	// thousands here (tens of allocations per run × 180 extra runs).
	if large > small+50 {
		t.Errorf("allocations scale with runs: %.0f at 20 runs vs %.0f at 200 runs", small, large)
	}
	t.Logf("measurePoint allocations: %.0f at 20 runs, %.0f at 200 runs", small, large)
}
