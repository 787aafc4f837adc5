package sim

import (
	"math"
	"strings"
	"testing"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

// testPlat is a simple 3-level platform: 100/200/400 MHz.
func testPlat() *power.Platform {
	return power.NewPlatform("test", []power.Level{
		power.MHz(100, 1.0), power.MHz(200, 1.2), power.MHz(400, 1.5),
	})
}

// machine wraps p as the m-processor single-class machine.
func machine(p *power.Platform, m int) *power.Hetero {
	h, err := power.Homogeneous(p, m)
	if err != nil {
		panic(err)
	}
	return h
}

// fixedPolicy always picks one level.
type fixedPolicy int

func (f fixedPolicy) Boundary(int, float64)                           {}
func (f fixedPolicy) PickLevel(*Task, float64, float64, int, int) int { return int(f) }

// task builds a compute task with work in mega-cycles.
func task(name string, workW float64, preds, succs []int) *Task {
	return &Task{Name: name, WorkW: workW * 1e6, Preds: preds, Succs: succs}
}

// inOrder gives tasks the identity dispatch order, for order-gate runs.
func inOrder(tasks ...*Task) []*Task {
	for i, t := range tasks {
		t.Order = i
	}
	return tasks
}

// compile returns the program of copies of tasks for machine hp, in
// storage of its own.
func compile(hp *power.Hetero, tasks []*Task) (*Program, error) {
	vals := make([]Task, len(tasks))
	for i, t := range tasks {
		vals[i] = *t
	}
	prog := new(Program)
	if _, err := CompileInto(prog, hp, vals, make([]int, 2*len(tasks))); err != nil {
		return nil, err
	}
	return prog, nil
}

// worst is each task's worst-case work: the actual work of a test section
// that gives none.
func worst(tasks []*Task) []float64 {
	work := make([]float64, len(tasks))
	for i, t := range tasks {
		work[i] = t.WorkW
	}
	return work
}

// sectionRun is a one-section run as the tests read it: the section's
// records and totals, the levels it left and its script step.
type sectionRun struct {
	*Section
	FinalLevels []int
	start       float64
	step        Step
}

// validate is ValidateSection on a one-section run with absolute latest
// finish times.
func validate(h *power.Hetero, res *sectionRun) error {
	return ValidateSection(h, 0, res.start, res.step, res.Section)
}

// runSection runs tasks as a recorded one-section run from start on arena
// a, task i doing work[i] cycles (nil: its worst case): the configuration
// is checked first, then the section compiled and run, so that the
// configuration's errors come first, then the structural ones.
func runSection(a *Arena, cfg *Config, start float64, tasks []*Task, work []float64) (*sectionRun, error) {
	c := *cfg
	c.Record = true
	if _, err := a.Run(&c, nil); err != nil {
		return nil, err
	}
	prog, err := compile(c.Hetero, tasks)
	if err != nil {
		return nil, err
	}
	if work == nil {
		work = worst(tasks)
	}
	step := Step{Prog: prog, Work: work}
	res, err := a.runFrom(&c, start, []Step{step})
	if err != nil {
		return nil, err
	}
	return &sectionRun{Section: &res.Sections[0], FinalLevels: res.FinalLevels, start: start, step: step}, nil
}

// initialLevels is each processor's level at the start of a run on cfg.
func initialLevels(cfg *Config) []int {
	if cfg.InitialLevels != nil {
		return cfg.InitialLevels
	}
	h := cfg.Hetero
	levels := make([]int, h.NumProcs())
	for i := range levels {
		levels[i] = h.Class(h.ClassOf(i)).Plat.MaxIndex()
	}
	return levels
}

// observeSection is runSection on a fresh arena followed by an Observer
// over the section, emitting to tr and updating m.
func observeSection(cfg *Config, start float64, tasks []*Task, work []float64, tr obs.Tracer, m *obs.Metrics) (*sectionRun, error) {
	res, err := runSection(NewArena(), cfg, start, tasks, work)
	if err != nil {
		return nil, err
	}
	var o Observer
	o.Begin(cfg.Hetero, initialLevels(cfg), tr, m)
	o.Section(res.step, res.Section, nil)
	return res, nil
}

func TestSingleTaskTimingAndEnergy(t *testing.T) {
	p := testPlat()
	// 400 mega-cycles at 400MHz → 1s.
	res, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, []*Task{
		task("a", 400, nil, nil),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(res.Finish, 1.0) {
		t.Errorf("Finish = %g, want 1", res.Finish)
	}
	if !closeTo(res.BusyTime[0], 1.0) {
		t.Errorf("BusyTime = %g", res.BusyTime[0])
	}
	wantE := p.PowerAt(2) * 1.0
	if !closeTo(res.ActiveEnergy, wantE) {
		t.Errorf("ActiveEnergy = %g, want %g", res.ActiveEnergy, wantE)
	}
	if res.SpeedChanges != 0 || res.OverheadEnergy != 0 {
		t.Error("no-overhead run should have no changes or overhead energy")
	}
	if len(res.Records) != 1 || res.Records[0].Level != 2 {
		t.Errorf("records = %+v", res.Records)
	}
}

func TestPolicyLevelAndChangeOverhead(t *testing.T) {
	p := testPlat()
	ov := power.Overheads{SpeedCompCycles: 100e6, SpeedChangeTime: 0.25}
	// Two sequential tasks at level 0 (100MHz). Processor starts at max
	// (level 2, 400MHz).
	tasks := inOrder(
		task("a", 100, nil, []int{1}),
		task("b", 100, []int{0}, nil),
	)
	res, err := runSection(NewArena(), &Config{
		Hetero: machine(p, 1), Overheads: ov, Policy: fixedPolicy(0),
	}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Task a: comp 100Mc at 400MHz = 0.25s, change 0.25s, exec 100Mc at
	// 100MHz = 1s → finish 1.5. Task b: comp 100Mc at 100MHz = 1s, no
	// change, exec 1s → finish 3.5.
	if !closeTo(res.Finish, 3.5) {
		t.Errorf("Finish = %g, want 3.5", res.Finish)
	}
	if res.SpeedChanges != 1 {
		t.Errorf("SpeedChanges = %d, want 1", res.SpeedChanges)
	}
	ra, rb := res.Records[0], res.Records[1]
	if !closeTo(ra.CompOH, 0.25) || !closeTo(ra.ChangeOH, 0.25) || !closeTo(ra.Start, 0.5) {
		t.Errorf("record a = %+v", ra)
	}
	if !closeTo(rb.CompOH, 1.0) || rb.ChangeOH != 0 || !closeTo(rb.Start, 2.5) {
		t.Errorf("record b = %+v", rb)
	}
	// Energy: active 2s at P0; overhead: comp a at P2 (0.25s), change at
	// max(P2,P0)=P2 (0.25s), comp b at P0 (1s).
	wantActive := 2 * p.PowerAt(0)
	wantOver := 0.5*p.PowerAt(2) + 1*p.PowerAt(0)
	if !closeTo(res.ActiveEnergy, wantActive) {
		t.Errorf("ActiveEnergy = %g, want %g", res.ActiveEnergy, wantActive)
	}
	if !closeTo(res.OverheadEnergy, wantOver) {
		t.Errorf("OverheadEnergy = %g, want %g", res.OverheadEnergy, wantOver)
	}
	if res.FinalLevels[0] != 0 {
		t.Errorf("FinalLevels = %v", res.FinalLevels)
	}
}

func TestVoltageSlewCharged(t *testing.T) {
	p := testPlat() // volts 1.0 / 1.2 / 1.5
	ov := power.Overheads{SpeedChangeTime: 0.1, VoltSlewTime: 1.0}
	// One task forced from the max level (1.5V) to level 0 (1.0V):
	// change = 0.1 + 1.0×0.5 = 0.6s; exec 100Mc at 100MHz = 1s.
	res, err := runSection(NewArena(), &Config{
		Hetero: machine(p, 1), Overheads: ov, Policy: fixedPolicy(0),
	}, 0, []*Task{task("a", 100, nil, nil)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(res.Records[0].ChangeOH, 0.6) {
		t.Errorf("ChangeOH = %g, want 0.6 (fixed + slew)", res.Records[0].ChangeOH)
	}
	if !closeTo(res.Finish, 1.6) {
		t.Errorf("Finish = %g, want 1.6", res.Finish)
	}
}

func TestOrderGateForcesSleep(t *testing.T) {
	// Order 0 = "slowgate" (long), order 1 = "blocked" depends on nothing,
	// order 2 = "after". With 2 processors under the order gate: t0 dispatches
	// slowgate on P0; blocked (order 1) is ready and dispatches on P1.
	// Make instead: order 1 NOT ready until slowgate finishes, while
	// order 2 IS ready: P1 must sleep rather than run order 2 early.
	tasks := []*Task{
		{Name: "gate", WorkW: 400e6, Order: 0, Succs: []int{1}},
		{Name: "mid", WorkW: 100e6, Order: 1, Preds: []int{0}},
		{Name: "free", WorkW: 100e6, Order: 2},
	}
	res, err := runSection(NewArena(), &Config{Hetero: machine(testPlat(), 2)}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	var midDispatch, freeDispatch float64
	for _, r := range res.Records {
		switch tasks[r.Task].Name {
		case "mid":
			midDispatch = r.Dispatch
		case "free":
			freeDispatch = r.Dispatch
		}
	}
	if freeDispatch < midDispatch {
		t.Errorf("order gate violated: free dispatched at %g before mid at %g", freeDispatch, midDispatch)
	}
	if !closeTo(freeDispatch, 1.0) { // both wait for gate (1s at 400MHz)
		t.Errorf("free dispatched at %g, want 1.0", freeDispatch)
	}
}

func TestDummyTasksTakeNoTime(t *testing.T) {
	// a → and → b: the And node is transparent.
	tasks := []*Task{
		{Name: "a", WorkW: 200e6, Order: 0, Succs: []int{1}},
		{Name: "and", Dummy: true, Order: 1, Preds: []int{0}, Succs: []int{2}},
		{Name: "b", WorkW: 200e6, Order: 2, Preds: []int{1}},
	}
	ov := power.Overheads{SpeedCompCycles: 1e9, SpeedChangeTime: 10}
	res, err := runSection(NewArena(), &Config{
		Hetero: machine(testPlat(), 1), Overheads: ov, Policy: fixedPolicy(2),
	}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	// comp overhead: 1e9 cycles at 400MHz = 2.5s per compute task; no
	// change (policy keeps max). Dummy adds nothing.
	if !closeTo(res.Finish, 2*(2.5+0.5)) {
		t.Errorf("Finish = %g, want 6", res.Finish)
	}
	for _, r := range res.Records {
		if tasks[r.Task].Dummy && (r.CompOH != 0 || r.ChangeOH != 0 || r.Finish != r.Dispatch) {
			t.Errorf("dummy task charged time: %+v", r)
		}
	}
}

func TestStartTimeAndInitialLevels(t *testing.T) {
	p := testPlat()
	tasks := []*Task{task("a", 100, nil, nil)}
	res, err := runSection(NewArena(), &Config{
		Hetero:        machine(p, 1),
		InitialLevels: []int{0}, // 100MHz
		Policy:        fixedPolicy(0),
	}, 5.0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(res.Finish, 6.0) {
		t.Errorf("Finish = %g, want 6 (start 5 + 1s at 100MHz)", res.Finish)
	}
	if res.SpeedChanges != 0 {
		t.Error("no change expected when initial level matches policy")
	}
}

func TestErrors(t *testing.T) {
	p := testPlat()
	t.Run("no processors", func(t *testing.T) {
		if _, err := runSection(NewArena(), &Config{}, 0, nil, nil); err == nil {
			t.Error("want error")
		}
	})
	t.Run("cyclic preds deadlock", func(t *testing.T) {
		tasks := []*Task{
			{Name: "a", WorkW: 1e6, Order: 0, Preds: []int{1}, Succs: []int{1}},
			{Name: "b", WorkW: 1e6, Order: 1, Preds: []int{0}, Succs: []int{0}},
		}
		if _, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, tasks, nil); err == nil {
			t.Error("want deadlock error")
		}
	})
	t.Run("bad order permutation", func(t *testing.T) {
		tasks := []*Task{
			{Name: "a", WorkW: 1e6, Order: 0},
			{Name: "b", WorkW: 1e6, Order: 0},
		}
		if _, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, tasks, nil); err == nil {
			t.Error("want order error")
		}
	})
	t.Run("actual exceeds worst", func(t *testing.T) {
		tasks := []*Task{{Name: "a", WorkW: 1e6}}
		if _, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, tasks, []float64{2e6}); err == nil {
			t.Error("want work error")
		}
	})
	t.Run("bad pred index", func(t *testing.T) {
		tasks := []*Task{{Name: "a", WorkW: 1e6, Preds: []int{9}}}
		if _, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, tasks, nil); err == nil {
			t.Error("want index error")
		}
	})
	t.Run("empty task list", func(t *testing.T) {
		res, err := runSection(NewArena(), &Config{Hetero: machine(p, 2)}, 3, nil, nil)
		if err != nil || res.Finish != 3 {
			t.Errorf("empty run: %v finish=%v", err, res.Finish)
		}
	})
	t.Run("procs disagree with initial levels", func(t *testing.T) {
		tasks := []*Task{task("a", 100, nil, nil)}
		_, err := runSection(NewArena(), &Config{Hetero: machine(p, 3), InitialLevels: []int{0, 1}}, 0, tasks, nil)
		if err == nil || !strings.Contains(err.Error(), "disagrees with len(InitialLevels)") {
			t.Errorf("want mismatch error, got %v", err)
		}
	})
	t.Run("initial level out of range", func(t *testing.T) {
		tasks := []*Task{task("a", 100, nil, nil)}
		for _, lv := range []int{-1, p.NumLevels()} {
			_, err := runSection(NewArena(), &Config{Hetero: machine(p, 1), InitialLevels: []int{lv}}, 0, tasks, nil)
			if err == nil || !strings.Contains(err.Error(), "outside the platform") {
				t.Errorf("InitialLevels=[%d]: want range error, got %v", lv, err)
			}
		}
	})
	t.Run("procs matching initial levels ok", func(t *testing.T) {
		tasks := []*Task{task("a", 100, nil, nil)}
		res, err := runSection(NewArena(), &Config{Hetero: machine(p, 2), InitialLevels: []int{0, 1}}, 0, tasks, nil)
		if err != nil {
			t.Fatalf("matching Procs/InitialLevels rejected: %v", err)
		}
		if len(res.BusyTime) != 2 {
			t.Errorf("got %d processors, want 2", len(res.BusyTime))
		}
	})
}

func TestTimeConservation(t *testing.T) {
	// Busy + overhead per processor never exceeds finish − start, and the
	// recorded intervals are consistent.
	p := testPlat()
	ov := power.Overheads{SpeedCompCycles: 10e6, SpeedChangeTime: 0.01}
	tasks := []*Task{
		{Name: "a", WorkW: 200e6, Order: 0, Succs: []int{2}},
		{Name: "b", WorkW: 300e6, Order: 1},
		{Name: "c", WorkW: 100e6, Order: 2, Preds: []int{0}},
	}
	work := []float64{150e6, 200e6, 80e6}
	res, err := runSection(NewArena(), &Config{
		Hetero: machine(p, 2), Overheads: ov, Policy: fixedPolicy(1),
	}, 1, tasks, work)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.BusyTime {
		if res.BusyTime[i]+res.OverheadTime[i] > res.Finish-1+1e-12 {
			t.Errorf("proc %d used more time than elapsed", i)
		}
	}
	var busyFromRecords, ohFromRecords float64
	for _, r := range res.Records {
		busyFromRecords += r.Finish - r.Start
		ohFromRecords += r.CompOH + r.ChangeOH
		if r.Start < r.Dispatch || r.Finish < r.Start {
			t.Errorf("inconsistent record %+v", r)
		}
	}
	if !closeTo(busyFromRecords, sum(res.BusyTime)) || !closeTo(ohFromRecords, sum(res.OverheadTime)) {
		t.Error("record intervals disagree with per-proc totals")
	}
}

func TestGantt(t *testing.T) {
	p := testPlat()
	tasks := []*Task{task("alpha", 400, nil, nil)}
	res, err := runSection(NewArena(), &Config{Hetero: machine(p, 1)}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(machine(p, 1), Entries(res.step.Prog, res.Records))
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "P0") || !strings.Contains(out, "400MHz") {
		t.Errorf("Gantt output wrong:\n%s", out)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9+1e-9*math.Abs(b)
}
