package core

import (
	"testing"

	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestASPFloorExact pins the per-PMP floor arithmetic on the serial
// chain: lenA = 6ms, no barriers (remAvgAfter = 0). At t = 0 the first
// task's SpecRemain is the full 6ms; with D = 24ms the floor is
// 6/24·1 GHz = 250 MHz.
func TestASPFloorExact(t *testing.T) {
	plan, err := NewPlan(chain3(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	pol := newPolicy(plan, ASP, 24e-3)
	pol.resetSection(plan.Sections.First.ID, 0)

	sp := plan.secs[plan.Sections.First.ID]
	// SpecRemain per task: T1 dispatched at 0 (remain 6ms), T2 at 2ms
	// (remain 4ms), T3 at 4ms (remain 2ms) in the average canonical.
	wants := map[string]float64{"T1": 6e-3, "T2": 4e-3, "T3": 2e-3}
	for _, tp := range sp.tasks {
		if w := wants[tp.Name]; !closeTo(tp.SpecRemain, w) {
			t.Errorf("SpecRemain[%s] = %g, want %g", tp.Name, tp.SpecRemain, w)
		}
	}
	// Floor for T1 at t=0: 250 MHz (level 1).
	t1 := sp.tasks[0]
	t1.LFT = 24e-3
	if got := pol.floorAt(&t1, 0, 0); got != 1 {
		t.Errorf("ASP floor = %d, want 1 (250MHz)", got)
	}
	// Same task picked late (t = 21ms): 6ms of average work over 3ms left
	// → f_max.
	if got := pol.floorAt(&t1, 21e-3, 0); got != plan.Platform.MaxIndex() {
		t.Errorf("late ASP floor = %d, want max", got)
	}
	// Past the deadline: clamp.
	if got := pol.floorAt(&t1, 25e-3, 0); got != plan.Platform.MaxIndex() {
		t.Errorf("post-deadline ASP floor = %d, want max", got)
	}
}

// TestASPMeetsDeadlinesEverywhere extends the timing guarantee to the
// extension scheme across paths and processor counts.
func TestASPMeetsDeadlinesEverywhere(t *testing.T) {
	graphs := []struct {
		name string
		m    int
	}{{"synthetic", 2}, {"synthetic", 3}, {"atr", 2}, {"atr", 6}}
	for _, c := range graphs {
		gr := workload.Synthetic()
		if c.name == "atr" {
			gr = workload.ATR(workload.DefaultATRConfig())
		}
		plan, err := NewPlan(gr, c.m, power.IntelXScale(), power.DefaultOverheads())
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 30; seed++ {
			res, err := plan.Run(RunConfig{
				Scheme: ASP, Deadline: plan.CTWorst,
				Sampler:  exectime.NewSampler(exectime.NewSource(seed)),
				Validate: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.MetDeadline || res.LSTViolations != 0 {
				t.Fatalf("%s m=%d seed %d: ASP violated timing", c.name, c.m, seed)
			}
		}
	}
}

// TestASPReducesChangesVsGSS: like the paper's OR-node speculation, the
// per-PMP variant exists to cut speed changes relative to greedy.
func TestASPReducesChangesVsGSS(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.7
	var gssChg, aspChg int
	for seed := uint64(0); seed < 50; seed++ {
		for _, s := range []Scheme{GSS, ASP} {
			res, err := plan.Run(RunConfig{
				Scheme: s, Deadline: d,
				Sampler: exectime.NewSampler(exectime.NewSource(seed)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if s == GSS {
				gssChg += res.SpeedChanges
			} else {
				aspChg += res.SpeedChanges
			}
		}
	}
	if aspChg >= gssChg {
		t.Errorf("ASP changes (%d) should undercut GSS (%d)", aspChg, gssChg)
	}
}
