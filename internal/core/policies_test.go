package core

import (
	"testing"

	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// newTestPolicy builds a policy over the chain3 plan (CTWorst = 12ms at
// 1 GHz on the pow2 platform) for direct unit tests of the speed math.
func newTestPolicy(t *testing.T, scheme Scheme, d float64, ov power.Overheads) (*Plan, *policy) {
	t.Helper()
	plan, err := NewPlan(chain3(), 1, pow2Plat(), ov)
	if err != nil {
		t.Fatal(err)
	}
	return plan, newPolicy(plan, scheme, d)
}

func simTask(workW float64, lft float64) *sim.Task {
	return &sim.Task{Name: "t", WorkW: workW, LFT: lft}
}

func TestGssPickNoOverheads(t *testing.T) {
	_, pol := newTestPolicy(t, GSS, 24e-3, power.NoOverheads())
	maxIdx := 3
	cases := []struct {
		name string
		task *sim.Task
		now  float64
		cur  int
		want int
	}{
		// 4ms of work, 16ms of allocation → 250 MHz (level 1).
		{"quarter speed", simTask(4e6*1e3*0.001, 16e-3), 0, maxIdx, 1},
		// No slack: 4ms work, 4ms allocation → f_max.
		{"no slack", simTask(4e-3*1e9, 4e-3), 0, maxIdx, 3},
		// Between levels rounds up: 4ms work over 10ms → 400 MHz → 500.
		{"round up", simTask(4e-3*1e9, 10e-3), 0, maxIdx, 2},
		// Below f_min clamps at f_min: 4ms work over 100ms → 125 MHz.
		{"fmin clamp", simTask(4e-3*1e9, 100e-3), 0, maxIdx, 0},
		// Already at the right level: stay.
		{"stay", simTask(4e-3*1e9, 16e-3), 0, 1, 1},
		// Degenerate: past the latest finish time → flat out.
		{"past lft", simTask(4e-3*1e9, 1e-3), 2e-3, 1, 3},
	}
	for _, c := range cases {
		if got, _ := pol.gssPick(c.task, c.task.LFT, c.now, c.cur, 0); got != c.want {
			t.Errorf("%s: gssPick = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGssPickOverheadAccounting(t *testing.T) {
	// 1ms change overhead, no computation overhead.
	ov := power.Overheads{SpeedChangeTime: 1e-3}
	_, pol := newTestPolicy(t, GSS, 24e-3, ov)
	// 4ms work, 9ms allocation, processor at f_max. Without a change:
	// 444 MHz → 500. With the 1ms change: 4/8 = 500 MHz → still 500, so
	// the change pays off (500 < 1000).
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 9e-3), 9e-3, 0, 3, 0); got != 2 {
		t.Errorf("affordable slowdown = %d, want 2", got)
	}
	// 4ms work, 4.5ms allocation at f_max: without change 888 MHz → 1000
	// (= current): stay; changing would need 4/3.5 = 1.14 GHz — impossible.
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 4.5e-3), 4.5e-3, 0, 3, 0); got != 3 {
		t.Errorf("unaffordable slowdown = %d, want 3 (stay)", got)
	}
	// Processor at 125 MHz (level 0), 4ms work, 6ms allocation: current
	// is too slow, must speed up; after the 1ms change, 4/5 = 800 MHz →
	// f_max.
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 6e-3), 6e-3, 0, 0, 0); got != 3 {
		t.Errorf("mandatory speed-up = %d, want 3", got)
	}
	// Slowing down would be feasible without the change cost but not with
	// it: 4ms work, 5.2ms allocation at 1 GHz. No change: 769 MHz → 1000
	// (current, OK). With change: 4/4.2 = 952 MHz → 1000 = current → stay.
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 5.2e-3), 5.2e-3, 0, 3, 0); got != 3 {
		t.Errorf("change not worthwhile = %d, want 3", got)
	}
}

func TestGssPickCompOverheadUsesCurrentFreq(t *testing.T) {
	// 1e6 cycles of speed computation: 8ms at 125 MHz, 1ms at 1 GHz.
	ov := power.Overheads{SpeedCompCycles: 1e6}
	_, pol := newTestPolicy(t, GSS, 24e-3, ov)
	// At 1 GHz: allocation 9ms − 1ms comp = 8ms for 4ms work → 500 MHz.
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 9e-3), 9e-3, 0, 3, 0); got != 2 {
		t.Errorf("comp overhead at fmax: got %d, want 2", got)
	}
	// At 125 MHz the same computation costs 8ms: allocation 9−8 = 1ms →
	// must run flat out (current 125 MHz is far too slow).
	if got, _ := pol.gssPick(simTask(4e-3*1e9, 9e-3), 9e-3, 0, 0, 0); got != 3 {
		t.Errorf("comp overhead at fmin: got %d, want 3", got)
	}
}

func TestSS1FloorApplies(t *testing.T) {
	// chain3: CTAvg = 6ms. D = 24ms → f_spec = 250 MHz (level 1).
	_, pol := newTestPolicy(t, SS1, 24e-3, power.NoOverheads())
	if pol.floorLow[0] != 1 {
		t.Fatalf("SS1 floor = %d, want 1", pol.floorLow[0])
	}
	// GSS would pick f_min (level 0) for a task with huge allocation; the
	// speculative floor lifts it to level 1.
	if got := pol.PickLevel(simTask(4e-3*1e9, 100e-3), 100e-3, 0, 1, 0); got != 1 {
		t.Errorf("SS1 PickLevel = %d, want floor 1", got)
	}
	// When GSS needs more than the floor, GSS wins.
	if got := pol.PickLevel(simTask(4e-3*1e9, 4e-3), 4e-3, 0, 3, 0); got != 3 {
		t.Errorf("SS1 PickLevel under pressure = %d, want 3", got)
	}
}

func TestSS2SwitchPoint(t *testing.T) {
	// D = 30ms, CTAvg = 6ms → f_spec = 200 MHz, between 125 (lvl 0) and
	// 250 (lvl 1): T_s = D·(250−200)/(250−125) = 30ms·0.4 = 12ms.
	_, pol := newTestPolicy(t, SS2, 30e-3, power.NoOverheads())
	if pol.floorLow[0] != 0 || pol.floorHigh[0] != 1 {
		t.Fatalf("SS2 levels = %d/%d, want 0/1", pol.floorLow[0], pol.floorHigh[0])
	}
	if !closeTo(pol.switchAt[0], 12e-3) {
		t.Fatalf("SS2 T_s = %g, want 12ms", pol.switchAt[0])
	}
	if pol.floorAt(nil, 11e-3, 0) != 0 || pol.floorAt(nil, 13e-3, 0) != 1 {
		t.Error("SS2 floor does not switch at T_s")
	}
	// Exactly on a level: SS2 degenerates to a single speed.
	_, pol2 := newTestPolicy(t, SS2, 24e-3, power.NoOverheads()) // f_spec = 250
	if pol2.floorLow[0] != pol2.floorHigh[0] {
		t.Error("on-level SS2 should degenerate to one speed")
	}
}

func TestASResetPerSection(t *testing.T) {
	plan, err := NewPlan(orForkGraph(), 2, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := 39.6e-3 // CTAvg = 9.9ms → initial f_spec = 250 MHz exactly
	pol := newPolicy(plan, AS, d)
	pol.resetSection(plan.Sections.First.ID, 0)
	if pol.floorLow[0] != 1 {
		t.Errorf("AS initial floor = %d, want 1 (250MHz)", pol.floorLow[0])
	}
	// After the fork took the long branch (B) at t = 20ms: remaining avg
	// = 6+1 = 7ms over 19.6ms left → 357 MHz → level 2 (500).
	bSection := plan.Sections.Branch[plan.Graph.NodeByName("O1").ID][0]
	pol.resetSection(bSection.ID, 20e-3)
	if pol.floorLow[0] != 2 {
		t.Errorf("AS floor after OR = %d, want 2", pol.floorLow[0])
	}
	// Past the deadline: clamp to f_max.
	pol.resetSection(bSection.ID, d+1e-3)
	if pol.floorLow[0] != plan.Platform.MaxIndex() {
		t.Error("AS floor past deadline should be f_max")
	}
	// Non-AS schemes ignore resetSection.
	gss := newPolicy(plan, GSS, d)
	gss.resetSection(plan.Sections.First.ID, 0)
	if gss.floorAt(nil, 0, 0) != -1 {
		t.Error("GSS should have no speculative floor")
	}
}

func TestSpeculativeFloorRespectsChangeOverhead(t *testing.T) {
	// A deliberately huge 5ms change overhead. Note the off-line padding
	// inflates the padded CTAvg to 3×(2+5) = 21ms, so with D = 24ms the
	// SS1 speculative speed is 875 MHz → floor level 3 (f_max).
	ov := power.Overheads{SpeedChangeTime: 5e-3}
	_, pol := newTestPolicy(t, SS1, 24e-3, ov)
	if pol.floorLow[0] != 3 {
		t.Fatalf("SS1 floor = %d, want 3 (padding-inflated CTAvg)", pol.floorLow[0])
	}
	// Processor at 500 MHz (level 2), 4ms work, 8.2ms allocation. GSS
	// stays at level 2 (fast enough; a change to anything is
	// unaffordable: 3.2ms left after the change cannot cover 4ms of work
	// even at f_max). The floor (level 3) wants a change the allocation
	// cannot pay for → fall back to the GSS choice.
	if got := pol.PickLevel(simTask(4e-3*1e9, 8.2e-3), 8.2e-3, 0, 2, 0); got != 2 {
		t.Errorf("PickLevel = %d, want 2 (floor change unaffordable)", got)
	}
	// With a large allocation the change is affordable and the floor
	// applies: 4ms work, 100ms allocation at level 0 → floor level 3.
	if got := pol.PickLevel(simTask(4e-3*1e9, 100e-3), 100e-3, 0, 0, 0); got != 3 {
		t.Errorf("PickLevel = %d, want 3 (floor applies)", got)
	}
}

func TestInitialLevels(t *testing.T) {
	plan, err := NewPlan(chain3(), 1, pow2Plat(), power.NoOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if lvl := newPolicy(plan, SPM, 24e-3).initialLevel(0); lvl != 2 {
		t.Errorf("SPM initial level = %d, want 2 (500MHz)", lvl)
	}
	if lvl := newPolicy(plan, GSS, 24e-3).initialLevel(0); lvl != 3 {
		t.Errorf("GSS initial level = %d, want max", lvl)
	}
	if lvl := newPolicy(plan, NPM, 24e-3).initialLevel(0); lvl != 3 {
		t.Errorf("NPM initial level = %d, want max", lvl)
	}
}
