package core

import (
	"math"
	"strings"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/power"
)

// pow2Plat is a clean platform for exact arithmetic: 125/250/500/1000 MHz.
func pow2Plat() *power.Platform {
	return power.NewPlatform("pow2", []power.Level{
		power.MHz(125, 0.8), power.MHz(250, 1.0), power.MHz(500, 1.3), power.MHz(1000, 1.8),
	})
}

// diamondGraph: A(8/5) → {B(5/3), C(4/2)} → And → D(2/1), times in ms.
func diamondGraph() *andor.Graph {
	g := andor.NewGraph("diamond")
	a := g.AddTask("A", 8e-3, 5e-3)
	b := g.AddTask("B", 5e-3, 3e-3)
	c := g.AddTask("C", 4e-3, 2e-3)
	and := g.AddAnd("And")
	d := g.AddTask("D", 2e-3, 1e-3)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, and)
	g.AddEdge(c, and)
	g.AddEdge(and, d)
	return g
}

// orForkGraph: A(8/5) → O1 ─30%→ B(8/6) ─┐
//
//	└70%→ C(5/3) ─┴→ O2 → D(2/1).
func orForkGraph() *andor.Graph {
	g := andor.NewGraph("orfork")
	a := g.AddTask("A", 8e-3, 5e-3)
	o1 := g.AddOr("O1")
	b := g.AddTask("B", 8e-3, 6e-3)
	c := g.AddTask("C", 5e-3, 3e-3)
	o2 := g.AddOr("O2")
	d := g.AddTask("D", 2e-3, 1e-3)
	g.AddEdge(a, o1)
	g.AddEdge(o1, b)
	g.AddEdge(o1, c)
	g.SetBranchProbs(o1, 0.3, 0.7)
	g.AddEdge(b, o2)
	g.AddEdge(c, o2)
	g.AddEdge(o2, d)
	return g
}

func TestPlanDiamondCanonical(t *testing.T) {
	plan, err := NewPlan(diamondGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// Canonical on 2 CPUs at 1 GHz: A[0,8]; B[8,13] and C[8,12] parallel;
	// And at 13; D[13,15]. Average case: 5+3+1 = 9ms.
	if !closeTo(plan.CTWorst, 15e-3) {
		t.Errorf("CTWorst = %g, want 15ms", plan.CTWorst)
	}
	if !closeTo(plan.CTAvg, 9e-3) {
		t.Errorf("CTAvg = %g, want 9ms", plan.CTAvg)
	}
	if plan.NumSections() != 1 {
		t.Errorf("sections = %d", plan.NumSections())
	}
	// Dispatch orders follow the canonical schedule: A, then B before C
	// (longest first), then And, then D.
	sp := plan.secs[0]
	orderByName := map[string]int{}
	var relByName = map[string]float64{}
	for _, tp := range sp.tasks {
		orderByName[tp.Name] = tp.Order
		relByName[tp.Name] = tp.LFT
	}
	if !(orderByName["A"] == 0 && orderByName["B"] == 1 && orderByName["C"] == 2 &&
		orderByName["And"] == 3 && orderByName["D"] == 4) {
		t.Errorf("canonical orders = %v", orderByName)
	}
	// Latest finish times relative to the deadline: canonical finish − 15ms.
	want := map[string]float64{"A": -7e-3, "B": -2e-3, "C": -3e-3, "And": -2e-3, "D": 0}
	for name, w := range want {
		if !closeTo(relByName[name], w) {
			t.Errorf("relLFT[%s] = %g, want %g", name, relByName[name], w)
		}
	}
}

func TestPlanDiamondSingleProcessor(t *testing.T) {
	plan, err := NewPlan(diamondGraph(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// Serial: 8+5+4+2 = 19ms.
	if !closeTo(plan.CTWorst, 19e-3) {
		t.Errorf("CTWorst = %g, want 19ms", plan.CTWorst)
	}
}

func TestPlanOrForkAggregates(t *testing.T) {
	plan, err := NewPlan(orForkGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// Longest path: A(8) + B(8) + D(2) = 18ms.
	if !closeTo(plan.CTWorst, 18e-3) {
		t.Errorf("CTWorst = %g, want 18ms", plan.CTWorst)
	}
	// Average: 5 + 0.3·6 + 0.7·3 + 1 = 9.9ms.
	if !closeTo(plan.CTAvg, 9.9e-3) {
		t.Errorf("CTAvg = %g, want 9.9ms", plan.CTAvg)
	}
	// Remaining-time PMP values per section.
	first := plan.secs[plan.Sections.First.ID]
	if !closeTo(first.remWorst, 10e-3) { // max(8,5)+2
		t.Errorf("first.remWorst = %g, want 10ms", first.remWorst)
	}
	if !closeTo(first.remAvg, 4.9e-3) { // .3·6+.7·3 + 1
		t.Errorf("first.remAvg = %g, want 4.9ms", first.remAvg)
	}
	// Per-task relative latest finish times.
	rel := map[string]float64{}
	for _, sp := range plan.secs {
		for _, tp := range sp.tasks {
			rel[tp.Name] = tp.LFT
		}
	}
	want := map[string]float64{"A": -10e-3, "B": -2e-3, "C": -2e-3, "D": 0}
	for name, w := range want {
		if !closeTo(rel[name], w) {
			t.Errorf("relLFT[%s] = %g, want %g", name, rel[name], w)
		}
	}
	// SectionAvgRemaining at the first section is CTAvg.
	if !closeTo(plan.SectionAvgRemaining(plan.Sections.First.ID), 9.9e-3) {
		t.Error("SectionAvgRemaining(first) != CTAvg")
	}
	// Its worst-case analogue is CTWorst.
	if sp := &plan.secs[plan.Sections.First.ID]; !closeTo(sp.lenW+sp.remWorst, 18e-3) {
		t.Error("worst remaining time at the first section != CTWorst")
	}
}

func TestPlanPaddingInflatesCanonical(t *testing.T) {
	plat := pow2Plat()
	ov := power.Overheads{SpeedCompCycles: 0, SpeedChangeTime: 1e-3} // 1ms pad
	plan, err := NewPlan(diamondGraph(), 2, plat, ov)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 3 tasks on the critical path gains 1ms: 15 → 18ms.
	if !closeTo(plan.CTWorst, 18e-3) {
		t.Errorf("padded CTWorst = %g, want 18ms", plan.CTWorst)
	}
}

func TestPlanFeasible(t *testing.T) {
	plan, err := NewPlan(diamondGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible(plan.CTWorst) {
		t.Error("deadline == CTWorst should be feasible")
	}
	if plan.Feasible(plan.CTWorst * 0.99) {
		t.Error("deadline below CTWorst should be infeasible")
	}
	if plan.MinDeadline() != plan.CTWorst {
		t.Error("MinDeadline != CTWorst")
	}
}

func TestPlanErrors(t *testing.T) {
	g := diamondGraph()
	if _, err := NewPlan(g, 0, pow2Plat(), power.NoOverheads()); err == nil {
		t.Error("want processor-count error")
	}
	if _, err := NewPlan(g, 2, nil, power.NoOverheads()); err == nil {
		t.Error("want nil-platform error")
	}
	bad := andor.NewGraph("bad")
	bad.AddAnd("lonely")
	if _, err := NewPlan(bad, 2, pow2Plat(), power.NoOverheads()); err == nil {
		t.Error("want validation error")
	}
}

func TestSpeculativeSpeed(t *testing.T) {
	plan, err := NewPlan(orForkGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// f_spec = f_max·CT_avg/D.
	d := 19.8e-3
	if got := plan.SpeculativeSpeed(d); !closeTo(got, 500e6) {
		t.Errorf("SpeculativeSpeed = %g, want 500MHz", got)
	}
	if !math.IsInf(plan.SpeculativeSpeed(0), 1) {
		t.Error("SpeculativeSpeed(0) should be +Inf")
	}
}

func TestSPMLevel(t *testing.T) {
	plan, err := NewPlan(diamondGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	// CTWorst 15ms; D = 30ms → 500MHz exactly.
	if got := plan.SPMLevel(30e-3); !closeTo(got.Freq, 500e6) {
		t.Errorf("SPMLevel(30ms) = %v, want 500MHz", got)
	}
	// D = 40ms → desired 375MHz → rounds up to 500MHz.
	if got := plan.SPMLevel(40e-3); !closeTo(got.Freq, 500e6) {
		t.Errorf("SPMLevel(40ms) = %v, want 500MHz", got)
	}
	// D = 15ms → f_max.
	if got := plan.SPMLevel(15e-3); !closeTo(got.Freq, 1000e6) {
		t.Errorf("SPMLevel(15ms) = %v, want 1000MHz", got)
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b)
}

// TestNewPlanRejectsOverflowingTimes: a task whose padded cycles at f_max
// overflow a float64 is a compile error naming the task, on identical
// and heterogeneous machines, and leaves the section cache empty; a huge
// but representable time compiles to finite completion times.
func TestNewPlanRejectsOverflowingTimes(t *testing.T) {
	graph := func(wcet float64) *andor.Graph {
		g := andor.NewGraph("huge")
		a := g.AddTask("A", 1e-3, 1e-3)
		b := g.AddTask("big", wcet, wcet)
		g.AddEdge(a, b)
		return g
	}
	const want = `core: task "big": padded times`
	cache := schedcache.New(64)
	if _, err := NewPlanWithCache(graph(1e300), 2, power.Transmeta5400(), power.DefaultOverheads(), cache); err == nil ||
		!strings.HasPrefix(err.Error(), want) {
		t.Errorf("NewPlan: error %v, want %q…", err, want)
	}
	if _, err := NewHeteroPlanWithCache(graph(1e300), power.BigLittle(), power.DefaultOverheads(), nil, cache); err == nil ||
		!strings.HasPrefix(err.Error(), want) {
		t.Errorf("NewHeteroPlan: error %v, want %q…", err, want)
	}
	if n := cache.Stats().Size; n != 0 {
		t.Errorf("failed compiles left %d cached schedules", n)
	}
	p, err := NewPlanWithCache(graph(1e200), 2, power.Transmeta5400(), power.DefaultOverheads(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(p.CTWorst, 0) || math.IsInf(p.CTAvg, 0) || p.CTWorst < 1e200 {
		t.Errorf("CTWorst %g, CTAvg %g: want finite, at least 1e200", p.CTWorst, p.CTAvg)
	}
}
