package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// chain3 is a single-processor workbench: three 4ms tasks in series with
// α = 0.5.
func chain3() *andor.Graph {
	g := andor.NewGraph("chain3")
	a := g.AddTask("T1", 4e-3, 2e-3)
	b := g.AddTask("T2", 4e-3, 2e-3)
	c := g.AddTask("T3", 4e-3, 2e-3)
	g.Chain(a, b, c)
	return g
}

// TestGSSGreedyWorstCase pins the greedy behavior exactly: on a serial
// chain with D = 2·CTWorst and worst-case actual times, GSS gives the
// whole slack to the first task (which runs at quarter speed and consumes
// it all), forcing the remaining tasks to run at maximum speed, finishing
// exactly at the deadline. This is the paper's §5 explanation for why the
// greedy scheme can lose to speculation.
func TestGSSGreedyWorstCase(t *testing.T) {
	plan, err := NewPlan(chain3(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := 24e-3 // 2 × 12ms
	res, err := plan.Run(RunConfig{Scheme: GSS, Deadline: d, WorstCase: true, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(res.Finish, 24e-3) {
		t.Errorf("Finish = %g, want exactly the deadline 24ms", res.Finish)
	}
	if !res.MetDeadline || res.LSTViolations != 0 {
		t.Errorf("timing violated: %+v", res)
	}
	// T1 at 250 MHz (4ms work over 16ms allocation), T2 and T3 at 1 GHz.
	wantLevels := []int{1, 3, 3}
	if len(res.Trace) != 3 {
		t.Fatalf("trace entries = %d", len(res.Trace))
	}
	for i, e := range res.Trace {
		if e.Level != wantLevels[i] {
			t.Errorf("task %d ran at level %d, want %d", i, e.Level, wantLevels[i])
		}
	}
	if res.SpeedChanges != 2 { // max→250, 250→max
		t.Errorf("SpeedChanges = %d, want 2", res.SpeedChanges)
	}
}

// TestGSSReclaimsDynamicSlack pins slack reclamation with early finishes
// (sampled actual times): each task gets the time from its dispatch to its
// latest finish (16, 20 and 24ms on D = 24ms) for its 4ms worst case, so
// T1 runs at 250MHz and the time T1 and T2 leave unused lets T2 and T3 run
// below the 1GHz the worst-case run forces on them.
func TestGSSReclaimsDynamicSlack(t *testing.T) {
	plat := pow2Plat()
	plan, err := NewPlan(chain3(), 1, plat, power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(RunConfig{
		Scheme: GSS, Deadline: 24e-3,
		Sampler:      exectime.NewSampler(exectime.NewSource(1)),
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 3 {
		t.Fatalf("trace entries = %d", len(res.Trace))
	}
	lft := []float64{16e-3, 20e-3, 24e-3}
	wantLevels := []int{1, 2, 2}
	prev := 0.0
	for i, e := range res.Trace {
		if !closeTo(e.Dispatch, prev) {
			t.Errorf("task %d dispatched at %g, want %g", i, e.Dispatch, prev)
		}
		if want := plat.QuantizeUp(4e-3 * plat.Max().Freq / (lft[i] - e.Dispatch)); e.Level != want {
			t.Errorf("task %d level = %d, want %d (greedy allocation)", i, e.Level, want)
		}
		if e.Level != wantLevels[i] {
			t.Errorf("task %d level = %d, want %d", i, e.Level, wantLevels[i])
		}
		prev = e.Finish
	}
	if !closeTo(res.Finish, prev) || res.Finish >= 24e-3 {
		t.Errorf("Finish = %g, want the last task's %g, before the deadline", res.Finish, prev)
	}
}

// TestNPMAndSPMExactTiming pins the static schemes' timing.
func TestNPMAndSPMExactTiming(t *testing.T) {
	plan, err := NewPlan(chain3(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	npm, err := plan.Run(RunConfig{Scheme: NPM, Deadline: 24e-3, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(npm.Finish, 12e-3) || npm.SpeedChanges != 0 {
		t.Errorf("NPM finish = %g changes = %d", npm.Finish, npm.SpeedChanges)
	}
	spm, err := plan.Run(RunConfig{Scheme: SPM, Deadline: 24e-3, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	// SPM at 500MHz: 24ms exactly, no run-time changes.
	if !closeTo(spm.Finish, 24e-3) || spm.SpeedChanges != 0 {
		t.Errorf("SPM finish = %g changes = %d", spm.Finish, spm.SpeedChanges)
	}
	// Energy ordering: SPM (uniform half speed) beats NPM.
	if spm.Energy() >= npm.Energy() {
		t.Errorf("SPM energy %g should beat NPM %g", spm.Energy(), npm.Energy())
	}
}

// TestUniformSlowdownBeatsGreedy checks the paper's energy intuition:
// with worst-case actual times, SPM's single uniform speed consumes less
// energy than GSS's greedy speed profile on a serial chain.
func TestUniformSlowdownBeatsGreedy(t *testing.T) {
	plan, err := NewPlan(chain3(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	gss, err := plan.Run(RunConfig{Scheme: GSS, Deadline: 24e-3, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	spm, err := plan.Run(RunConfig{Scheme: SPM, Deadline: 24e-3, WorstCase: true})
	if err != nil {
		t.Fatal(err)
	}
	if spm.Energy() >= gss.Energy() {
		t.Errorf("uniform SPM %g should beat greedy GSS %g in the worst case", spm.Energy(), gss.Energy())
	}
}

// TestEveryPathMeetsDeadline forces every execution path of the paper's
// workloads under worst-case actual times: Theorem 1's guarantee must hold
// on all of them, for all schemes, with overheads enabled.
func TestEveryPathMeetsDeadline(t *testing.T) {
	graphs := map[string]*andor.Graph{
		"synthetic": workload.Synthetic(),
		"atr":       workload.ATR(workload.DefaultATRConfig()),
		"orfork":    orForkGraph(),
	}
	for name, g := range graphs {
		secs, err := andor.Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := secs.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, 3} {
			plan, err := NewPlan(g, m, power.IntelXScale(), power.DefaultOverheads())
			if err != nil {
				t.Fatal(err)
			}
			d := plan.CTWorst // tightest feasible deadline
			for pi, path := range paths {
				branches := make([]int, len(path.Choices))
				for i, c := range path.Choices {
					branches[i] = c.Branch
				}
				for _, s := range Schemes {
					res, err := plan.Run(RunConfig{
						Scheme: s, Deadline: d, WorstCase: true, ForceBranches: branches,
					})
					if err != nil {
						t.Fatalf("%s m=%d path=%d %s: %v", name, m, pi, s, err)
					}
					if !res.MetDeadline {
						t.Errorf("%s m=%d path %d under %s missed: finish %g > %g",
							name, m, pi, s, res.Finish, d)
					}
					if res.LSTViolations != 0 {
						t.Errorf("%s m=%d path %d under %s: %d LST violations", name, m, pi, s, res.LSTViolations)
					}
				}
			}
		}
	}
}

// TestForcedBranchesSelectPath verifies ForceBranches drives the recorded
// path.
func TestForcedBranchesSelectPath(t *testing.T) {
	plan, err := NewPlan(orForkGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		res, err := plan.Run(RunConfig{
			Scheme: GSS, Deadline: 36e-3, WorstCase: true, ForceBranches: []int{b},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Path) != 2 { // O1 fork + O2 join
			t.Fatalf("path length = %d", len(res.Path))
		}
		if res.Path[0].Branch != b {
			t.Errorf("forced branch %d, took %d", b, res.Path[0].Branch)
		}
	}
}

// TestRunErrors exercises the argument checks.
func TestRunErrors(t *testing.T) {
	plan, err := NewPlan(diamondGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(RunConfig{Scheme: GSS, Deadline: 0, WorstCase: true}); err == nil {
		t.Error("want deadline error")
	}
	if _, err := plan.Run(RunConfig{Scheme: GSS, Deadline: plan.CTWorst / 2, WorstCase: true}); err == nil {
		t.Error("want infeasibility error")
	}
	if _, err := plan.Run(RunConfig{Scheme: GSS, Deadline: plan.CTWorst}); err == nil {
		t.Error("want sampler error")
	}
	// Over a deadline this long the idle energy would overflow to +Inf.
	if _, err := plan.Run(RunConfig{Scheme: GSS, Deadline: math.MaxFloat64, WorstCase: true}); err == nil ||
		!strings.Contains(err.Error(), "energy bound") {
		t.Errorf("deadline %g: error %v, want the energy-bound error", math.MaxFloat64, err)
	}
}

// TestEnergyAccountingConsistency: active+overhead+idle must equal the
// integral of the power profile: idle time is m·horizon − busy − overhead.
func TestEnergyAccountingConsistency(t *testing.T) {
	plan, err := NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.6
	res, err := plan.Run(RunConfig{
		Scheme: AS, Deadline: d,
		Sampler: exectime.NewSampler(exectime.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	idleTime := 2*d - res.BusyTime - res.OverheadTime
	wantIdle := plan.Platform.IdlePower() * idleTime
	if !closeTo(res.IdleEnergy, wantIdle) {
		t.Errorf("IdleEnergy = %g, want %g", res.IdleEnergy, wantIdle)
	}
	if res.Energy() <= 0 || res.ActiveEnergy <= 0 {
		t.Error("energies must be positive")
	}
}

// TestDeterministicRuns: identical seeds yield identical results.
func TestDeterministicRuns(t *testing.T) {
	plan, err := NewPlan(workload.Synthetic(), 2, power.IntelXScale(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	run := func() *RunResult {
		res, err := plan.Run(RunConfig{
			Scheme: SS2, Deadline: d,
			Sampler: exectime.NewSampler(exectime.NewSource(77)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Finish != b.Finish || a.Energy() != b.Energy() || a.SpeedChanges != b.SpeedChanges {
		t.Error("same-seed runs differ")
	}
}

// TestTheoremOneProperty is the repository's central property test: for
// random AND/OR applications, random platforms and random execution
// behavior, every scheme always meets any feasible deadline, with zero LST
// violations (Theorem 1 plus the overhead padding argument).
func TestTheoremOneProperty(t *testing.T) {
	plats := []*power.Platform{
		power.Transmeta5400(), power.IntelXScale(),
		power.Synthetic(3, 100, 600, 0.9, 1.6),
	}
	prop := func(seed uint64) bool {
		src := exectime.NewSource(seed)
		g := andor.RandomGraph(src, andor.DefaultRandomOpts())
		plat := plats[src.Intn(len(plats))]
		m := 1 + src.Intn(4)
		ov := power.Overheads{
			SpeedCompCycles: float64(src.Intn(2000)),
			SpeedChangeTime: src.Float64() * 100e-6,
			VoltSlewTime:    src.Float64() * 200e-6, // per volt
		}
		plan, err := NewPlan(g, m, plat, ov)
		if err != nil {
			t.Logf("seed %d: plan: %v", seed, err)
			return false
		}
		load := 0.25 + 0.75*src.Float64() // (0.25, 1.0)
		d := plan.CTWorst / load
		for _, s := range append(append([]Scheme(nil), Schemes...), ExtendedSchemes...) {
			res, err := plan.Run(RunConfig{
				Scheme: s, Deadline: d,
				Sampler:  exectime.NewSampler(exectime.NewSource(src.Uint64())),
				Validate: true, // machine-model oracle on every section
			})
			if err != nil {
				t.Logf("seed %d %s: %v", seed, s, err)
				return false
			}
			if !res.MetDeadline || res.LSTViolations != 0 {
				t.Logf("seed %d %s: finish %g deadline %g violations %d",
					seed, s, res.Finish, d, res.LSTViolations)
				return false
			}
		}
		// Worst case at the tightest deadline, too.
		for _, s := range Schemes {
			res, err := plan.Run(RunConfig{Scheme: s, Deadline: plan.CTWorst, WorstCase: true})
			if err != nil || !res.MetDeadline {
				t.Logf("seed %d %s worst-case: err=%v", seed, s, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestTextFormatPipeline: a random application survives the full user
// journey — serialize to the .andor text format, parse it back, plan it
// and run it — with an identical off-line analysis (canonical lengths are
// determined by the graph alone).
func TestTextFormatPipeline(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		g := andor.RandomGraph(exectime.NewSource(seed), andor.DefaultRandomOpts())
		back, err := andor.ParseText(andor.FormatText(g))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p1, err := NewPlan(g, 2, power.IntelXScale(), power.DefaultOverheads())
		if err != nil {
			t.Fatal(err)
		}
		p2, err := NewPlan(back, 2, power.IntelXScale(), power.DefaultOverheads())
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(p1.CTWorst, p2.CTWorst) || !closeTo(p1.CTAvg, p2.CTAvg) {
			t.Errorf("seed %d: plans differ after text round-trip: %g/%g vs %g/%g",
				seed, p1.CTWorst, p1.CTAvg, p2.CTWorst, p2.CTAvg)
		}
		res, err := p2.Run(RunConfig{
			Scheme: AS, Deadline: p2.CTWorst / 0.7,
			Sampler: exectime.NewSampler(exectime.NewSource(seed + 1)),
		})
		if err != nil || !res.MetDeadline {
			t.Errorf("seed %d: round-tripped app failed to run: %v", seed, err)
		}
	}
}

// TestIndependentTaskSet: the independent-task model of the paper's
// predecessor [20] ("Scheduling with Dynamic Voltage/Speed Adjustment
// Using Slack Reclamation", RTSS'01) — no precedence, no OR structure — is
// the degenerate AND/OR case (one section, all roots); the machinery
// (canonical LTF schedule, order-gated greedy slack sharing) handles it
// end to end.
func TestIndependentTaskSet(t *testing.T) {
	g := andor.NewGraph("indep")
	for i := 0; i < 12; i++ {
		w := float64(i+1) * 1e-3
		g.AddTask(fmt.Sprintf("J%d", i), w, w/2)
	}
	plan, err := NewPlan(g, 3, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSections() != 1 {
		t.Errorf("independent set should be one section, got %d", plan.NumSections())
	}
	if plan.Sections.NumPaths() != 1 {
		t.Errorf("independent set should have one path")
	}
	for _, s := range Schemes {
		res, err := plan.Run(RunConfig{
			Scheme: s, Deadline: plan.CTWorst / 0.6,
			Sampler:  exectime.NewSampler(exectime.NewSource(3)),
			Validate: true,
		})
		if err != nil || !res.MetDeadline || res.LSTViolations != 0 {
			t.Errorf("%s on independent set: %v", s, err)
		}
	}
}

// TestSchemeParse round-trips scheme names.
func TestSchemeParse(t *testing.T) {
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("want parse error")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme String empty")
	}
	if NPM.Dynamic() || SPM.Dynamic() || !GSS.Dynamic() || !AS.Dynamic() {
		t.Error("Dynamic() wrong")
	}
}
