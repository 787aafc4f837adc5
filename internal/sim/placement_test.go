package sim

import (
	"strings"
	"testing"

	"andorsched/internal/power"
)

// clampedPolicy picks min(level, class max) on any class.
type clampedPolicy struct {
	h   *power.Hetero
	lvl int
}

func (f clampedPolicy) Boundary(int, float64) {}

func (f clampedPolicy) PickLevel(_ *Task, _, _ float64, _ int, class int) int {
	if max := f.h.Class(class).Plat.MaxIndex(); f.lvl > max {
		return max
	}
	return f.lvl
}

// bigLittlePair is a two-class test platform: one fast core and one slow
// low-voltage core with a cheaper energy-per-cycle.
func bigLittlePair() *power.Hetero {
	h, err := power.NewHetero("pair", []power.Class{
		{Name: "big", Count: 1, Plat: testPlat(), Speed: 1}, // 100–400 MHz, up to 1.5 V
		{Name: "little", Count: 1, Speed: 1, Plat: power.NewPlatform("little", []power.Level{
			power.MHz(100, 0.8),
		})},
	})
	if err != nil {
		panic(err)
	}
	return h
}

func onlineTask(workMcycles, lft float64) *Task {
	w := workMcycles * 1e6
	return &Task{Name: "t", WorkW: w, LFT: lft}
}

// TestPlacementPolicyRanking exercises the three policies directly on
// synthetic processor views.
func TestPlacementPolicyRanking(t *testing.T) {
	views := []ProcView{
		{Proc: 0, Class: 0, FreeAt: 3, EffFmax: 4e8, EnergyPerCycle: 2e-9},
		{Proc: 1, Class: 0, FreeAt: 1, EffFmax: 4e8, EnergyPerCycle: 2e-9},
		{Proc: 2, Class: 1, FreeAt: 0, EffFmax: 1e8, EnergyPerCycle: 0.5e-9},
	}
	task := &Task{}
	if got := FastestFirst.Pick(task, 5, views); got != 1 {
		t.Errorf("fastest-first picked %d, want 1 (fastest class, idle longest)", got)
	}
	if got := EnergyGreedy.Pick(task, 5, views); got != 2 {
		t.Errorf("energy-greedy picked %d, want 2 (cheapest per cycle)", got)
	}
	tagged := &Task{Affinity: 2} // prefers class 1
	if got := ClassAffinity.Pick(tagged, 5, views); got != 2 {
		t.Errorf("class-affinity picked %d, want 2 (tagged class)", got)
	}
	noClass := &Task{Affinity: 7} // class absent: degrade to fastest-first
	if got := ClassAffinity.Pick(noClass, 5, views); got != 1 {
		t.Errorf("class-affinity fallback picked %d, want 1", got)
	}
	// Equal speeds: fastest-first must reduce to idle-longest, ties by
	// index — the homogeneous engine's processor pick.
	flat := []ProcView{
		{Proc: 0, Class: 0, FreeAt: 2, EffFmax: 4e8},
		{Proc: 1, Class: 0, FreeAt: 2, EffFmax: 4e8},
	}
	if got := FastestFirst.Pick(task, 5, flat); got != 0 {
		t.Errorf("fastest-first tie-break picked %d, want 0", got)
	}
}

// TestHeteroFeasibilityGuard pins the per-class guard: online dispatch
// places every task only on its canonical class — even when the placement
// policy would prefer another class, and even when the only idle
// processors are elsewhere (the task waits; cross-class migration is what
// admits timing anomalies). Canonical list schedules admit every class:
// there the placement policy decides, and the classes it picks become the
// tasks' pins.
func TestHeteroFeasibilityGuard(t *testing.T) {
	hp := bigLittlePair()
	run := func(place PlacementPolicy, canon int) int {
		tk := onlineTask(400, 10.0) // 1 s at big f_max, 4 s on the little core
		tk.CanonClass = canon
		res, err := runSection(NewArena(), &Config{
			Hetero: hp, Placement: place,
			Policy: clampedPolicy{hp, testPlat().MaxIndex()},
		}, 0, []*Task{tk}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Records[0].Proc
	}
	// Online: pinned to the canonical class, whatever the policy prefers.
	if proc := run(EnergyGreedy, 0); proc != 0 {
		t.Errorf("online big-pinned task placed on proc %d, want big core 0", proc)
	}
	if proc := run(FastestFirst, 1); proc != 1 {
		t.Errorf("online little-pinned task placed on proc %d, want little core 1", proc)
	}
	// Canonical: the policy decides freely.
	ls, err := listSchedule(hp, EnergyGreedy, []*Task{onlineTask(400, 10.0)})
	if err != nil {
		t.Fatal(err)
	}
	if proc := ls.Proc[0]; proc != 1 {
		t.Errorf("canonical energy-greedy schedule placed on proc %d, want little core 1", proc)
	}

	// A pinned task waits for its class even while the other class idles:
	// two big-pinned tasks share the single big core back to back.
	a := onlineTask(400, 10.0)
	a.Node, a.Order = 0, 0
	b := onlineTask(400, 10.0)
	b.Node, b.Order = 1, 1
	res, err := runSection(NewArena(), &Config{
		Hetero: hp, Placement: FastestFirst,
		Policy: clampedPolicy{hp, testPlat().MaxIndex()},
	}, 0, []*Task{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Proc != 0 {
			t.Errorf("big-pinned task %d ran on proc %d, want 0", r.Task, r.Proc)
		}
	}
	if d := res.Records[1].Dispatch; d != res.Records[0].Finish {
		t.Errorf("second pinned task dispatched at %g, want %g (when the big core freed)",
			d, res.Records[0].Finish)
	}
}

// TestHeteroConfigErrors covers the machine configuration checks.
func TestHeteroConfigErrors(t *testing.T) {
	hp := bigLittlePair()
	tk := onlineTask(10, 1e9)
	if _, err := runSection(NewArena(), &Config{Hetero: hp, InitialLevels: []int{0, 0, 0}}, 0, []*Task{tk}, nil); err == nil {
		t.Error("long InitialLevels accepted")
	}
	if _, err := runSection(NewArena(), &Config{Hetero: hp, InitialLevels: []int{0}}, 0, []*Task{tk}, nil); err == nil {
		t.Error("short InitialLevels accepted")
	}
	// Level 1 is valid on the big core's table but not the little core's.
	if _, err := runSection(NewArena(), &Config{Hetero: hp, InitialLevels: []int{1, 1}}, 0, []*Task{tk}, nil); err == nil {
		t.Error("per-class out-of-range initial level accepted")
	}
	pinned := onlineTask(10, 1e9)
	pinned.CanonClass = 2
	if _, err := runSection(NewArena(), &Config{Hetero: hp}, 0, []*Task{pinned}, nil); err == nil ||
		!strings.Contains(err.Error(), "pinned to class 2 of a 2-class machine") {
		t.Errorf("task pinned to a missing class: got %v", err)
	}
	if _, err := runSection(NewArena(), &Config{Hetero: hp, InitialLevels: []int{2, 0}}, 0, []*Task{tk}, nil); err != nil {
		t.Errorf("valid heterogeneous config rejected: %v", err)
	}
}

// TestClassAffinitySteering runs a two-task section on the accelerator
// reference platform: the tagged task must land on the accelerator and
// finish 4× faster than its frequency alone would allow.
func TestClassAffinitySteering(t *testing.T) {
	hp := power.AccelOffload()
	ai := hp.ClassIndex("accel")
	w := 2e9 // 2 Gcycles: 1 s on the accelerator (4 × 500 MHz), ~2.9 s on a cpu
	tagged := &Task{Name: "a", Node: 0, Order: 0, WorkW: w, Affinity: ai + 1, CanonClass: ai}
	plain := &Task{Name: "b", Node: 1, Order: 1, WorkW: w}
	res, err := runSection(NewArena(), &Config{Hetero: hp, Placement: ClassAffinity}, 0, []*Task{tagged, plain}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Task == 0 {
			if hp.ClassOf(r.Proc) != ai {
				t.Errorf("tagged task ran on class %d, want accel %d", hp.ClassOf(r.Proc), ai)
			}
			if dur := r.Finish - r.Start; dur != w/(4*500e6) {
				t.Errorf("accelerated duration %g, want %g", dur, w/(4*500e6))
			}
		}
	}
	if err := validate(hp, res); err != nil {
		t.Error(err)
	}
}
