package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"andorsched/internal/power"
)

// TestCompileErrorsMatchRun: CompileInto rejects every structural fault,
// and a run of the section reports the same error text.
func TestCompileErrorsMatchRun(t *testing.T) {
	h := power.BigLittle()
	cases := map[string]func(ts []*Task){
		"duplicate order":    func(ts []*Task) { ts[1].Order = 0 },
		"order out of range": func(ts []*Task) { ts[2].Order = 3 },
		"negative order":     func(ts []*Task) { ts[0].Order = -1 },
		"class out of range": func(ts []*Task) { ts[1].CanonClass = h.NumClasses() },
		"negative class":     func(ts []*Task) { ts[2].CanonClass = -1 },
		"pred out of range":  func(ts []*Task) { ts[1].Preds = []int{7} },
		"succ out of range":  func(ts []*Task) { ts[0].Succs = []int{-1} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			tasks := []*Task{
				{Name: "a", WorkW: 1e6, Order: 0, Succs: []int{1}},
				{Name: "b", WorkW: 2e6, Order: 1, Preds: []int{0}, Succs: []int{2}},
				{Name: "c", WorkW: 3e6, Order: 2, Preds: []int{1}},
			}
			mutate(tasks)
			_, runErr := runSection(NewArena(), &Config{Hetero: h}, 0, tasks, nil)
			_, compErr := compile(h, tasks)
			if runErr == nil || compErr == nil || runErr.Error() != compErr.Error() {
				t.Fatalf("run: %v; CompileInto: %v", runErr, compErr)
			}
		})
	}
}

// TestSectionChecks: Run refuses a program compiled for another machine,
// a step whose work does not cover its tasks, and actual work above the
// worst case, which CompileInto does not check.
func TestSectionChecks(t *testing.T) {
	h := machine(testPlat(), 2)
	tasks := layeredTasks(8)
	prog, err := compile(h, tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	work := layeredWork(8)
	if _, err := a.Run(&Config{Hetero: h}, []Step{{prog, work[:4]}}); err == nil {
		t.Error("program of 8 tasks ran with 4 actual works")
	}
	if _, err := a.Run(&Config{Hetero: power.BigLittle()}, []Step{{prog, work}}); err == nil {
		t.Error("1-class program ran on a 2-class machine")
	}
	work[3] = 2 * tasks[3].WorkW
	if _, err := a.Run(&Config{Hetero: h}, []Step{{prog, work}}); err == nil || !strings.Contains(err.Error(), "exceeds worst case") {
		t.Errorf("over-long actual work: Run %v", err)
	}
}

// copyProgram deep-copies a program, for immutability checks.
func copyProgram(p *Program) Program {
	return Program{
		tasks:   append([]Task(nil), p.tasks...),
		byOrder: append([]int(nil), p.byOrder...),
		npreds:  append([]int(nil), p.npreds...),
		classes: p.classes,
	}
}

// TestProgramImmutable: an arena never writes into a program. A section
// runs, then the same arena runs other tasks, then the section
// runs again from the same levels: the program is unchanged and both
// results are equal.
func TestProgramImmutable(t *testing.T) {
	h := machine(power.IntelXScale(), 3)
	tasks := reversedTasks(layeredTasks(24))
	prog, err := compile(h, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := copyProgram(prog)
	cfg := Config{Hetero: h, Policy: fixedPolicy(2), Overheads: power.DefaultOverheads(), Record: true}
	a := NewArena()
	section := func() *sectionRun {
		t.Helper()
		res, err := a.runFrom(&cfg, 0.5, []Step{{prog, layeredWork(24)}})
		if err != nil {
			t.Fatal(err)
		}
		return cloneResult(&sectionRun{Section: &res.Sections[0], FinalLevels: res.FinalLevels})
	}
	first := section()
	if _, err := runSection(a, &Config{Hetero: h, Policy: fixedPolicy(1)}, 0, layeredTasks(40), layeredWork(40)); err != nil {
		t.Fatal(err)
	}
	second := section()
	if got := copyProgram(prog); !reflect.DeepEqual(got, want) {
		t.Fatalf("program changed: %+v, want %+v", got, want)
	}
	assertResultsIdentical(t, first, second)
}

// reversedTasks stores tasks in reverse index order, keeping each task's
// Order and remapping Preds and Succs, so that the dispatch permutation is
// not the identity.
func reversedTasks(tasks []*Task) []*Task {
	n := len(tasks)
	out := make([]*Task, n)
	for i, tk := range tasks {
		for k := range tk.Preds {
			tk.Preds[k] = n - 1 - tk.Preds[k]
		}
		for k := range tk.Succs {
			tk.Succs[k] = n - 1 - tk.Succs[k]
		}
		out[n-1-i] = tk
	}
	return out
}

// cloneResult copies the parts of an arena-owned run the tests compare.
func cloneResult(r *sectionRun) *sectionRun {
	c := *r.Section
	c.Records = append([]Record(nil), r.Records...)
	c.BusyTime = append([]float64(nil), r.BusyTime...)
	c.OverheadTime = append([]float64(nil), r.OverheadTime...)
	return &sectionRun{Section: &c, FinalLevels: append([]int(nil), r.FinalLevels...)}
}

// TestProgramSharedAcrossArenas: arenas on several goroutines run one
// program at once; every result equals a one-section run's. Run it under
// -race.
func TestProgramSharedAcrossArenas(t *testing.T) {
	h := power.BigLittle()
	base := layeredTasks(32)
	for i, tk := range base {
		tk.CanonClass = i % 2
	}
	prog, err := compile(h, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Hetero: h, Policy: clampedPolicy{h, 3}}
	const start = 1
	want, err := runSection(NewArena(), &cfg, start, base, layeredWork(32))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, c := NewArena(), cfg
			c.Record = true
			steps := []Step{{prog, layeredWork(32)}}
			for rep := 0; rep < 20; rep++ {
				got, err := a.runFrom(&c, start, steps)
				if err != nil {
					t.Error(err)
					return
				}
				assertResultsIdentical(t, want, &sectionRun{Section: &got.Sections[0], FinalLevels: got.FinalLevels})
			}
		}()
	}
	wg.Wait()
}

// TestDummyPlacementOneClassIsArgmin: on a one-class machine every
// built-in placement picks, among the processors idle at now, the one the
// recurrence's argmin of free times names (lowest free time, ties by
// index), which is why a dummy there skips the placement call.
func TestDummyPlacementOneClassIsArgmin(t *testing.T) {
	rnd := newLCG(7)
	dummy := &Task{Name: "and", Dummy: true}
	for _, place := range []PlacementPolicy{FastestFirst, EnergyGreedy, ClassAffinity} {
		for trial := 0; trial < 500; trial++ {
			m := 1 + int(rnd.next()%8)
			var pl placer
			pl.reset(machine(power.Transmeta5400(), m), place)
			freeAt := make([]float64, m)
			for i := range freeAt {
				freeAt[i] = float64(rnd.next() % 4) // ties are common
			}
			argmin := 0
			for i := 1; i < m; i++ {
				if freeAt[i] < freeAt[argmin] {
					argmin = i
				}
			}
			dummy.Affinity = int(rnd.next() % 3)
			now := freeAt[argmin] + float64(rnd.next()%3)
			if proc, class := pl.pick(dummy, now, freeAt); proc != argmin || class != 0 {
				t.Fatalf("%s, free times %v, now %v: pick %d (class %d), argmin %d",
					place.Name(), freeAt, now, proc, class, argmin)
			}
		}
	}
}

// TestLSTViolationsCounted: runs count computation tasks dispatched after
// LFT − WorkW/EffFmax.
func TestLSTViolationsCounted(t *testing.T) {
	h := machine(testPlat(), 1)
	fmax := testPlat().Max().Freq
	// One processor, three 1 s tasks at f_max in a row: dispatches at 0,
	// 1 and 2. LFTs 1, 1.5 and 3 put the latest starts at 0, 0.5 and 2,
	// so only the second task starts late.
	tasks := []*Task{
		{Name: "a", WorkW: fmax, Order: 0, LFT: 1},
		{Name: "b", WorkW: fmax, Order: 1, LFT: 1.5},
		{Name: "c", WorkW: fmax, Order: 2, LFT: 3},
		{Name: "and", Dummy: true, Order: 3},
	}
	res, err := runSection(NewArena(), &Config{Hetero: h}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSTViolations != 1 {
		t.Errorf("%d LST violations, want 1", res.LSTViolations)
	}
	if err := validate(h, res); err != nil {
		t.Error(err)
	}
}
