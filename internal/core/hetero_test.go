package core

import (
	"fmt"
	"strings"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// TestOneClassPlacementsAgree pins the placement reduction on a single
// class: processors are identical, every placement policy ranks them by
// idle time alone, so all three compile the same plan — canonical lengths,
// dispatch orders, latest finish times and speculation statistics — as
// NewPlan does on the class's table.
func TestOneClassPlacementsAgree(t *testing.T) {
	plats := []*power.Platform{power.Transmeta5400(), power.IntelXScale()}
	places := []sim.PlacementPolicy{sim.FastestFirst, sim.EnergyGreedy, sim.ClassAffinity}
	ov := power.DefaultOverheads()
	for wl := 0; wl < 50; wl++ {
		g := workload.Random(uint64(wl)+1, andor.DefaultRandomOpts())
		m := 1 + wl%4
		plat := plats[wl%2]
		want, err := NewPlan(g, m, plat, ov)
		if err != nil {
			t.Fatalf("workload %d: NewPlan: %v", wl, err)
		}
		hp, err := power.Homogeneous(plat, m)
		if err != nil {
			t.Fatalf("workload %d: Homogeneous: %v", wl, err)
		}
		for _, place := range places {
			got, err := NewHeteroPlan(g, hp, ov, place)
			if err != nil {
				t.Fatalf("workload %d: NewHeteroPlan(%s): %v", wl, place.Name(), err)
			}
			if diff := eqPlans(want, got); diff != "" {
				t.Fatalf("workload %d (m=%d) %s: plan differs from NewPlan's: %s", wl, m, place.Name(), diff)
			}
		}
	}
}

// heteroSafetyCase sweeps every scheme over one heterogeneous plan and
// asserts the Theorem-1 obligations: the run succeeds with the engine-level
// validator on, no task starts after its class-relative latest start time,
// and the deadline is met.
func heteroSafetyCase(t *testing.T, arena *Arena, name string, plan *Plan, deadline float64, seeds []uint64) {
	t.Helper()
	var res RunResult
	for _, seed := range seeds {
		for _, s := range allSchemes() {
			err := plan.RunInto(RunConfig{
				Scheme: s, Deadline: deadline,
				Sampler:  exectime.NewSampler(exectime.NewSource(seed)),
				Validate: true,
			}, arena, &res)
			if err != nil {
				t.Fatalf("%s %s seed=%d: %v", name, s, seed, err)
			}
			if res.LSTViolations != 0 {
				t.Errorf("%s %s seed=%d: %d tasks started after their LST",
					name, s, seed, res.LSTViolations)
			}
			if !res.MetDeadline {
				t.Errorf("%s %s seed=%d: finish %g misses deadline %g",
					name, s, seed, res.Finish, deadline)
			}
		}
	}
}

// TestTheorem1HeteroSweep is the deadline-safety harness on the reference
// heterogeneous platforms: every scheme × every placement policy (each
// placement compiles its own plan — placement shapes the canonical
// schedules) over the ATR application and random workloads, on big.LITTLE,
// accel-offload and the symmetric 1-class platform, at two loads and
// α ∈ {0.1, 1.0}.
func TestTheorem1HeteroSweep(t *testing.T) {
	arena := NewArena()
	refs := []*power.Hetero{power.SymmetricHetero(3), power.BigLittle(), power.AccelOffload()}
	places := []sim.PlacementPolicy{sim.FastestFirst, sim.EnergyGreedy, sim.ClassAffinity}
	ov := power.DefaultOverheads()
	for _, hp := range refs {
		for _, place := range places {
			for _, alpha := range []float64{0.1, 1.0} {
				g := workload.ATR(workload.DefaultATRConfig())
				g.ScaleACET(alpha)
				plan, err := NewHeteroPlan(g, hp, ov, place)
				if err != nil {
					t.Fatalf("%s/%s α=%g: NewHeteroPlan: %v", hp.Name, place.Name(), alpha, err)
				}
				for _, load := range []float64{0.5, 0.9} {
					heteroSafetyCase(t, arena,
						fmt.Sprintf("ATR/%s/%s α=%g load=%g", hp.Name, place.Name(), alpha, load),
						plan, plan.CTWorst/load, []uint64{0, 1})
				}
			}
			for wl := 0; wl < 12; wl++ {
				g := workload.Random(uint64(wl)+100, andor.DefaultRandomOpts())
				plan, err := NewHeteroPlan(g, hp, ov, place)
				if err != nil {
					t.Fatalf("%s/%s workload %d: NewHeteroPlan: %v", hp.Name, place.Name(), wl, err)
				}
				load := 0.5 + 0.1*float64(wl%4)
				heteroSafetyCase(t, arena,
					fmt.Sprintf("random-%d/%s/%s load=%g", wl, hp.Name, place.Name(), load),
					plan, plan.CTWorst/load, []uint64{uint64(wl) * 7})
			}
		}
	}
}

// TestHeteroAffinitySteering compiles a workload whose heavy filter stage is
// tagged `@accel` and checks that class-affinity placement actually steers
// the tagged tasks onto the accelerator class while meeting the deadline.
func TestHeteroAffinitySteering(t *testing.T) {
	hp := power.AccelOffload()
	g := andor.NewGraph("tagged")
	src := g.AddTask("src", 1e-3, 1e-3)
	var filters []*andor.Node
	for i := 0; i < 3; i++ {
		f := g.AddTask(fmt.Sprintf("filter%d", i), 8e-3, 8e-3)
		g.SetClass(f, "accel")
		g.AddEdge(src, f)
		filters = append(filters, f)
	}
	join := g.AddAnd("join")
	for _, f := range filters {
		g.AddEdge(f, join)
	}
	sink := g.AddTask("sink", 1e-3, 1e-3)
	g.AddEdge(join, sink)
	plan, err := NewHeteroPlan(g, hp, power.DefaultOverheads(), sim.ClassAffinity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(RunConfig{
		Scheme: GSS, Deadline: plan.CTWorst * 1.5,
		WorstCase:    true,
		CollectTrace: true, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetDeadline || res.LSTViolations != 0 {
		t.Fatalf("met=%v lst=%d", res.MetDeadline, res.LSTViolations)
	}
	accel := hp.ClassIndex("accel")
	onAccel := 0
	for _, e := range res.Trace {
		if strings.HasPrefix(e.Name, "filter") && hp.ClassOf(e.Proc) == accel {
			onAccel++
		}
	}
	if onAccel == 0 {
		t.Fatalf("class-affinity placement put no tagged filter on the accelerator:\n%+v", res.Trace)
	}
}

// TestHeteroPlanErrors pins the compile-time misuse errors of the
// heterogeneous path and the default placement.
func TestHeteroPlanErrors(t *testing.T) {
	g := andor.NewGraph("bad")
	n := g.AddTask("A", 1e-3, 1e-3)
	g.SetClass(n, "gpu")
	if _, err := NewHeteroPlan(g, power.BigLittle(), power.DefaultOverheads(), nil); err == nil ||
		!strings.Contains(err.Error(), `no processor class "gpu"`) {
		t.Fatalf("unknown class tag not rejected: %v", err)
	}
	if _, err := NewHeteroPlan(g, nil, power.DefaultOverheads(), nil); err == nil {
		t.Fatal("nil platform not rejected")
	}

	plain := andor.NewGraph("plain")
	plain.AddTask("A", 1e-3, 1e-3)
	plan, err := NewHeteroPlan(plain, power.BigLittle(), power.DefaultOverheads(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placement != sim.FastestFirst {
		t.Fatalf("nil placement defaulted to %v, want FastestFirst", plan.Placement)
	}
}

// TestHeteroStreamAndDescribe smoke-tests the frame-stream driver and the
// plan reporter on a heterogeneous plan (both share the homogeneous code
// path except for level-profile sizing and the platform header).
func TestHeteroStreamAndDescribe(t *testing.T) {
	plan, err := NewHeteroPlan(workload.ATR(workload.DefaultATRConfig()),
		power.BigLittle(), power.DefaultOverheads(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunStream(StreamConfig{
		Scheme: AS, Period: plan.CTWorst * 1.5, Frames: 5,
		Sampler:     exectime.NewSampler(exectime.NewSource(1)),
		CarryLevels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 || res.LSTViolations != 0 {
		t.Fatalf("stream: misses=%d lst=%d", res.DeadlineMisses, res.LSTViolations)
	}
	desc := plan.Describe(plan.CTWorst * 1.5)
	if !strings.Contains(desc, "big.LITTLE") {
		t.Fatalf("Describe lost the platform name:\n%s", desc)
	}
}
