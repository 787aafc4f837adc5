package experiments

import (
	"strings"
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// smallRuns keeps experiment tests fast while still averaging.
const smallRuns = 8

func smallCfg() Config {
	return Config{
		Graph:     workload.ATR(workload.DefaultATRConfig()),
		Procs:     2,
		Platform:  power.IntelXScale(),
		Overheads: power.DefaultOverheads(),
		Schemes:   []core.Scheme{core.SPM, core.GSS, core.AS},
		Runs:      smallRuns,
		Seed:      1,
	}
}

func TestEnergyVsLoadBasics(t *testing.T) {
	loads := []float64{0.3, 0.6, 0.9}
	se, err := EnergyVsLoad(smallCfg(), loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Points) != len(loads) {
		t.Fatalf("points = %d", len(se.Points))
	}
	for i, pt := range se.Points {
		if pt.X != loads[i] {
			t.Errorf("point %d X = %g", i, pt.X)
		}
		if pt.NPMEnergy <= 0 {
			t.Error("NPM energy must be positive")
		}
		for s, e := range pt.NormEnergy {
			if e <= 0 || e > 1.3 {
				t.Errorf("load %g %s normalized energy %g implausible", pt.X, s, e)
			}
		}
		// Deadline consistency: load = CTWorst/deadline.
		if pt.Deadline <= 0 {
			t.Error("non-positive deadline")
		}
	}
	// NPM energy decreases as load rises (less idle energy over a shorter
	// horizon) — the paper's observation about the NPM denominator.
	for i := 1; i < len(se.Points); i++ {
		if se.Points[i].NPMEnergy >= se.Points[i-1].NPMEnergy {
			t.Errorf("NPM energy not decreasing with load: %g → %g",
				se.Points[i-1].NPMEnergy, se.Points[i].NPMEnergy)
		}
	}
}

func TestEnergyVsLoadErrors(t *testing.T) {
	if _, err := EnergyVsLoad(smallCfg(), []float64{0}); err == nil {
		t.Error("want load-range error")
	}
	if _, err := EnergyVsLoad(smallCfg(), []float64{1.5}); err == nil {
		t.Error("want load-range error")
	}
	bad := smallCfg()
	bad.Procs = 0
	if _, err := EnergyVsLoad(bad, []float64{0.5}); err == nil {
		t.Error("want plan error")
	}
}

func TestEnergyVsAlphaBasics(t *testing.T) {
	cfg := smallCfg()
	cfg.Graph = workload.Synthetic()
	alphas := []float64{0.2, 0.6, 1.0}
	se, err := EnergyVsAlpha(cfg, 0.7, alphas)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Points) != 3 {
		t.Fatalf("points = %d", len(se.Points))
	}
	// α must not leak between points: the original graph is untouched.
	if cfg.Graph.NodeByName("A").ACET != 5e-3 {
		t.Error("EnergyVsAlpha mutated the input graph")
	}
	// At α = 1 there is no run-time slack from execution times; SPM's
	// normalized energy must be (nearly) α-independent while the dynamic
	// schemes lose some of their advantage relative to α = 0.2.
	first, last := se.Points[0], se.Points[2]
	if last.NormEnergy[core.GSS] <= first.NormEnergy[core.GSS] {
		t.Errorf("GSS at α=1 (%g) should consume more than at α=0.2 (%g)",
			last.NormEnergy[core.GSS], first.NormEnergy[core.GSS])
	}
	if _, err := EnergyVsAlpha(cfg, 0, alphas); err == nil {
		t.Error("want load error")
	}
}

func TestCommonRandomNumbers(t *testing.T) {
	// The same Config must reproduce the series exactly.
	a, err := EnergyVsLoad(smallCfg(), []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnergyVsLoad(smallCfg(), []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range a.Points[0].NormEnergy {
		if b.Points[0].NormEnergy[s] != e {
			t.Errorf("%s differs between identical configs", s)
		}
	}
}

// TestParallelismIsDeterministic: a measured sweep is bit-identical for
// any worker count, and each of its points equals the point measured on
// its own — per-run seeds are pinned and outputs folded per point in run
// order, however the sweep's queue is drained. The sweep mixes plans, run
// counts and sampler biases.
func TestParallelismIsDeterministic(t *testing.T) {
	cfg := smallCfg()
	planA, err := core.NewPlan(cfg.Graph, cfg.Procs, cfg.Platform, cfg.Overheads)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := core.NewPlan(workload.Synthetic(), 3, power.Transmeta5400(), cfg.Overheads)
	if err != nil {
		t.Fatal(err)
	}
	specs := []pointSpec{
		{plan: planA, x: 0.4, deadline: planA.CTWorst / 0.4, runs: 5, seed: 11},
		{plan: planB, x: 0.8, deadline: planB.CTWorst / 0.8, runs: 1, seed: 12, bias: 0.6},
		{plan: planA, x: 0.8, deadline: planA.CTWorst / 0.8, runs: 13, seed: 13, bias: 1.4},
		{plan: planB, x: 0.5, deadline: planB.CTWorst / 0.5, runs: 2, seed: 14},
		{plan: planA, x: 0.6, deadline: planA.CTWorst / 0.6, runs: 7, seed: 15, bias: 0.6},
	}
	total := 0
	for _, sp := range specs {
		total += sp.runs
	}
	same := func(a, b Point) bool {
		if a.X != b.X || a.Deadline != b.Deadline || a.NPMEnergy != b.NPMEnergy {
			return false
		}
		for _, s := range cfg.Schemes {
			if a.NormEnergy[s] != b.NormEnergy[s] || a.CI95[s] != b.CI95[s] ||
				a.SpeedChanges[s] != b.SpeedChanges[s] {
				return false
			}
		}
		return true
	}
	var want []Point
	for _, sp := range specs {
		pts, err := measurePoints(cfg.Schemes, []pointSpec{sp}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pts[0])
	}
	for _, workers := range []int{1, 2, 3, 7, total + 5} {
		got, err := measurePoints(cfg.Schemes, specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for pi := range want {
			if !same(got[pi], want[pi]) {
				t.Errorf("workers=%d point %d: %+v, measured alone %+v", workers, pi, got[pi], want[pi])
			}
		}
	}
}

// TestMeasurePointsRejectsNoRuns: a point needs at least one run; zero or
// negative run counts are an error, not an all-zero point or a panic.
func TestMeasurePointsRejectsNoRuns(t *testing.T) {
	for _, runs := range []int{0, -3} {
		cfg := smallCfg()
		cfg.Runs = runs
		if _, err := EnergyVsLoad(cfg, []float64{0.5}); err == nil {
			t.Errorf("runs=%d: EnergyVsLoad returned no error", runs)
		}
		for _, id := range []string{"4a", "structure"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(runs, 1); err == nil {
				t.Errorf("runs=%d: experiment %s returned no error", runs, id)
			}
		}
		plan, err := core.NewPlan(cfg.Graph, cfg.Procs, cfg.Platform, cfg.Overheads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompareSchemes(plan, core.AS, core.GSS, plan.CTWorst*2, runs, 1); err == nil {
			t.Errorf("runs=%d: CompareSchemes returned no error", runs)
		}
	}
}

// TestClairvoyantAblation: the oracle column lower-bounds the schemes at
// every load, up to the discrete-level caveat — CLV rounds its single
// speed *up*, so a per-task mix of adjacent levels can undercut it by at
// most the quantization gap (≈3% on the Transmeta table), never more.
func TestClairvoyantAblation(t *testing.T) {
	e, err := ByID("clv")
	if err != nil {
		t.Fatal(err)
	}
	se, err := e.Run(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range se.Points {
		bound := pt.NormEnergy[core.CLV]
		for _, s := range []core.Scheme{core.SPM, core.GSS, core.SS1, core.SS2, core.AS} {
			if pt.NormEnergy[s] < bound*0.97 {
				t.Errorf("load %g: %s (%g) more than quantization below the clairvoyant bound (%g)",
					pt.X, s, pt.NormEnergy[s], bound)
			}
		}
	}
}

// TestCompareSchemes: on Transmeta at moderate load, AS saves
// significantly more energy than SPM (a large, robust gap), while a scheme
// compared against itself must show zero difference.
func TestCompareSchemes(t *testing.T) {
	plan, err := core.NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.6
	cmp, err := CompareSchemes(plan, core.AS, core.SPM, d, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MeanDiff >= 0 || !cmp.Significant {
		t.Errorf("AS vs SPM: diff %g z %g — expected a significant saving", cmp.MeanDiff, cmp.Z)
	}
	self, err := CompareSchemes(plan, core.GSS, core.GSS, d, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if self.MeanDiff != 0 || self.Significant {
		t.Errorf("self-comparison: diff %g significant %v", self.MeanDiff, self.Significant)
	}
}

func TestRenderers(t *testing.T) {
	se, err := EnergyVsLoad(smallCfg(), []float64{0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tab := se.Table()
	for _, want := range []string{"load", "SPM", "GSS", "AS", "0.4", "0.8"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Table missing %q:\n%s", want, tab)
		}
	}
	csv := se.CSV()
	if !strings.Contains(csv, "GSS_ci95") || !strings.Contains(csv, "npm_energy_j") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("CSV lines = %d, want 3", lines)
	}
	ch := se.ChangesTable()
	if !strings.Contains(ch, "speed changes") {
		t.Error("ChangesTable header missing")
	}
	pt := PlatformTable(power.IntelXScale())
	for _, want := range []string{"Intel XScale", "150", "1000", "0.750", "1.800"} {
		if !strings.Contains(pt, want) {
			t.Errorf("PlatformTable missing %q:\n%s", want, pt)
		}
	}
}

// TestAllExperimentsExecute runs every registered experiment end to end at
// a tiny run count: the registry's Run closures, the figure and ablation
// sweeps and the renderers all execute without error and produce sane
// points.
func TestAllExperimentsExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			se, err := e.Run(2, 11)
			if err != nil {
				t.Fatal(err)
			}
			if len(se.Points) == 0 || len(se.Schemes) == 0 {
				t.Fatal("empty series")
			}
			for _, pt := range se.Points {
				for _, s := range se.Schemes {
					v := pt.NormEnergy[s]
					if v <= 0 || v > 1.5 {
						t.Errorf("%s @ %g: normalized energy %g implausible", s, pt.X, v)
					}
				}
			}
			if se.Table() == "" || se.CSV() == "" || se.ChartSVG(640, 300) == "" {
				t.Error("renderers failed")
			}
		})
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	SetDefaultWorkers(2)
	defer SetDefaultWorkers(0)
	a, err := EnergyVsLoad(smallCfg(), []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	SetDefaultWorkers(-5) // restores GOMAXPROCS default
	b, err := EnergyVsLoad(smallCfg(), []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range a.Points[0].NormEnergy {
		if b.Points[0].NormEnergy[s] != v {
			t.Errorf("default worker count changed the numbers for %s", s)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 11 {
		t.Fatalf("experiments = %d, want ≥ 11 (7 figures + 4 ablations)", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"4a", "4b", "5a", "5b", "6a", "6b", "fmin", "levels", "overhead", "procs", "clv", "structure", "slew"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := ByID("4a"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("want unknown-ID error")
	}
}

// TestPaperShapes asserts the qualitative results the paper reports, on
// reduced sweeps (kept small for test time; the benches regenerate the
// full figures).
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks need a few hundred runs")
	}
	t.Run("SPM hits NPM at high load on XScale", func(t *testing.T) {
		se, err := EnergyVsLoad(Config{
			Graph: atrGraph(), Procs: 2, Platform: power.IntelXScale(),
			Overheads: power.DefaultOverheads(),
			Schemes:   []core.Scheme{core.SPM}, Runs: 20, Seed: 3,
		}, []float64{0.9})
		if err != nil {
			t.Fatal(err)
		}
		// At load 0.9 the static speed rounds up to f_max: SPM ≈ NPM.
		if got := se.Points[0].NormEnergy[core.SPM]; got < 0.99 || got > 1.01 {
			t.Errorf("SPM at load 0.9 = %g, want ≈ 1", got)
		}
	})
	t.Run("normalized energy dips then rises with load", func(t *testing.T) {
		se, err := EnergyVsLoad(Config{
			Graph: atrGraph(), Procs: 2, Platform: power.Transmeta5400(),
			Overheads: power.DefaultOverheads(),
			Schemes:   []core.Scheme{core.GSS}, Runs: 30, Seed: 4,
		}, []float64{0.1, 0.4, 1.0})
		if err != nil {
			t.Fatal(err)
		}
		lo := se.Points[0].NormEnergy[core.GSS]
		mid := se.Points[1].NormEnergy[core.GSS]
		hi := se.Points[2].NormEnergy[core.GSS]
		if !(mid < lo && mid < hi) {
			t.Errorf("GSS curve not U-shaped: %g, %g, %g", lo, mid, hi)
		}
	})
	t.Run("speculation reduces speed changes", func(t *testing.T) {
		se, err := EnergyVsLoad(Config{
			Graph: atrGraph(), Procs: 2, Platform: power.Transmeta5400(),
			Overheads: power.DefaultOverheads(),
			Schemes:   []core.Scheme{core.GSS, core.AS}, Runs: 30, Seed: 5,
		}, []float64{0.7})
		if err != nil {
			t.Fatal(err)
		}
		pt := se.Points[0]
		if pt.SpeedChanges[core.AS] >= pt.SpeedChanges[core.GSS] {
			t.Errorf("AS changes (%g) should undercut GSS (%g)",
				pt.SpeedChanges[core.AS], pt.SpeedChanges[core.GSS])
		}
	})
}
