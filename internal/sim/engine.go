package sim

import (
	"fmt"
	"math"

	"andorsched/internal/power"
)

// runState is the engine's complete scratch state; an Arena retains one
// across runs so that its buffers are reused. begin sets the per-run part
// (machine, levels) and sizes the buffers; section resets the per-section
// part.
type runState struct {
	cfg   *Config
	tasks []*Task
	hp    *power.Hetero
	multi bool   // more than one class: dummies consult the placement
	pl    placer // the placement, for dummies
	// levelTime, if non-nil, accumulates each execution's finish − start
	// at its level index, across the run's sections.
	levelTime []float64

	// levels carries each processor's level from section to section.
	levels []int
	// freeAt is each processor's free time: the finish of the last task
	// issued on it (the section's start before any). A processor is idle
	// at t exactly when freeAt ≤ t.
	freeAt []float64
	npreds []int // predecessors not yet released through Succs

	// prog is the section's program, read-only and possibly shared with
	// other arenas.
	prog  *Program
	start float64

	// readyAt[i] is the latest finish of task i's released predecessors.
	// errAt is the finish of the completion that raised err.
	readyAt []float64
	errAt   float64

	res Result
	err error
}

// begin starts a run on cfg's machine: it checks the initial levels, sizes
// the per-processor and per-class buffers, stores the configuration and
// sets every processor's level.
func (rs *runState) begin(cfg *Config, levelTime []float64) error {
	hp := cfg.Hetero
	if hp == nil {
		return fmt.Errorf("sim: no machine configured (Config.Hetero is nil)")
	}
	m := hp.NumProcs()
	if cfg.InitialLevels != nil {
		if len(cfg.InitialLevels) != m {
			return fmt.Errorf("sim: processor count %d disagrees with len(InitialLevels)=%d",
				m, len(cfg.InitialLevels))
		}
		for ci := 0; ci < hp.NumClasses(); ci++ {
			c := hp.Class(ci)
			first, end := c.Procs()
			for i, lv := range cfg.InitialLevels[first:end] {
				if n := c.Plat.NumLevels(); lv < 0 || lv >= n {
					return fmt.Errorf("sim: InitialLevels[%d]=%d outside the platform's %d levels (class %q)",
						first+i, lv, n, c.Name)
				}
			}
		}
	}
	if levelTime != nil && len(levelTime) < hp.MaxLevels() {
		return fmt.Errorf("sim: level-time buffer has %d entries, the machine has %d levels",
			len(levelTime), hp.MaxLevels())
	}

	rs.cfg = cfg
	rs.hp = hp
	rs.multi = hp.NumClasses() > 1
	rs.pl.reset(hp, cfg.Placement)
	rs.levelTime = levelTime

	// The copy below is safe even when InitialLevels aliases a previous
	// run's FinalLevels from this same arena: ensureInts preserves the
	// backing array's contents.
	rs.levels = ensureInts(rs.levels, m)
	if cfg.InitialLevels != nil {
		copy(rs.levels, cfg.InitialLevels)
	} else {
		for i := range rs.levels {
			rs.levels[i] = hp.Class(hp.ClassOf(i)).Plat.MaxIndex()
		}
	}
	rs.freeAt = ensureFloats(rs.freeAt, m)
	res := &rs.res
	res.BusyTime = ensureFloats(res.BusyTime, m)
	res.OverheadTime = ensureFloats(res.OverheadTime, m)
	nc := hp.NumClasses()
	res.ClassActiveEnergy = ensureFloats(res.ClassActiveEnergy, nc)
	res.ClassOverheadEnergy = ensureFloats(res.ClassOverheadEnergy, nc)
	return nil
}

// checkSection reports why prog and tasks cannot run as a section of the
// run begun: no run begun, a program of another size or machine, or a
// task whose actual work exceeds its worst case.
func (rs *runState) checkSection(prog *Program, tasks []*Task) error {
	if rs.cfg == nil {
		return fmt.Errorf("sim: Section called before Begin")
	}
	if len(prog.npreds) != len(tasks) {
		return fmt.Errorf("sim: program compiled for %d tasks, section has %d", len(prog.npreds), len(tasks))
	}
	if nc := rs.hp.NumClasses(); prog.classes != nc {
		return fmt.Errorf("sim: program compiled for a %d-class machine, run is on %d classes", prog.classes, nc)
	}
	for _, t := range tasks {
		if err := checkWork(t); err != nil {
			return err
		}
	}
	return nil
}

// section runs one section of the begun run from start: it resets the
// section's accumulators and processor free times, seeds the dependence
// counters from prog and runs the order-gate recurrence. Levels carry over
// from the previous section.
func (rs *runState) section(prog *Program, tasks []*Task, start float64) (*Result, error) {
	m := rs.hp.NumProcs()
	rs.prog = prog
	rs.tasks = tasks
	rs.start = start
	rs.npreds = ensureInts(rs.npreds, len(tasks))
	copy(rs.npreds, prog.npreds)
	for i := range rs.freeAt {
		rs.freeAt[i] = start
	}

	res := &rs.res
	res.Records = res.Records[:0]
	for i := 0; i < m; i++ {
		res.BusyTime[i] = 0
		res.OverheadTime[i] = 0
	}
	res.Finish = start
	res.ActiveEnergy = 0
	res.OverheadEnergy = 0
	for i := range res.ClassActiveEnergy {
		res.ClassActiveEnergy[i] = 0
		res.ClassOverheadEnergy[i] = 0
	}
	res.SpeedChanges = 0
	res.LSTViolations = 0
	res.FinalLevels = nil

	rs.err = nil
	rs.runOrderGate()
	if rs.err != nil {
		return nil, rs.err
	}

	res.FinalLevels = rs.levels
	return res, nil
}

// runOrderGate is the on-line discipline as a recurrence over the dispatch
// order. Task k is dispatched at the latest of task k−1's dispatch, its
// released predecessors' finishes and the earliest free time of the
// processors it may run on, on the one of them idle longest. A task whose
// turn comes with unreleased predecessors deadlocks the order gate. The
// first over-released successor in completion order (finish time, then
// dispatch order) is the run's error, as in an event loop, which would
// stop at that completion.
func (rs *runState) runOrderGate() {
	tasks := rs.tasks
	start := rs.start
	rs.readyAt = ensureFloats(rs.readyAt, len(tasks))
	for i := range rs.readyAt {
		rs.readyAt[i] = start
	}
	m := rs.hp.NumProcs()
	gate := start
	for k, ti := range rs.prog.byOrder {
		if rs.npreds[ti] != 0 {
			if rs.err == nil {
				rs.err = fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", len(tasks)-k)
			}
			break
		}
		// Online computation tasks are pinned to their canonical class:
		// within a class the processors are identical, so the paper's
		// Theorem-1 induction applies class by class and no task starts
		// after its class-relative latest start time. Admitting any other
		// class online — even a strictly faster one — is unsafe: a task
		// migrated up and slowed to its (slow-class-derived) latest finish
		// time squats on a fast processor that later tasks' canonical
		// schedule needs, and the lateness cascades (a Graham timing
		// anomaly). A pinned task therefore waits for its own class even
		// while others idle. Every placement policy ranks identical
		// processors by idle time alone, so the pick is the class's
		// idle-longest processor and the policy is not consulted. Zero-work
		// dummy barrier tasks admit every processor, and on several classes
		// the placement picks among those free at the dispatch instant; on
		// one class every processor is identical and the pick is again the
		// idle-longest one, the argmin below.
		t := tasks[ti]
		ci := 0
		first, end := 0, m
		if !t.Dummy {
			ci = t.CanonClass
			first, end = rs.hp.Class(ci).Procs()
		}
		proc := first
		for i := first + 1; i < end; i++ {
			if rs.freeAt[i] < rs.freeAt[proc] {
				proc = i
			}
		}
		now := gate
		if r := rs.readyAt[ti]; r > now {
			now = r
		}
		if f := rs.freeAt[proc]; f > now {
			now = f
		}
		if rs.err != nil && rs.errAt <= now {
			break
		}
		if t.Dummy && rs.multi {
			proc, ci = rs.pl.pick(t, now, rs.freeAt)
		}
		finish := rs.issue(ti, proc, ci, now)
		if finish > rs.res.Finish {
			rs.res.Finish = finish
		}
		for _, s := range t.Succs {
			rs.npreds[s]--
			if rs.readyAt[s] < finish {
				rs.readyAt[s] = finish
			}
			if rs.npreds[s] < 0 && (rs.err == nil || finish < rs.errAt) {
				rs.err = fmt.Errorf("sim: task %q completed more predecessors than it has", tasks[s].Name)
				rs.errAt = finish
			}
		}
		gate = now
	}
}

// issue dispatches task ti on processor proc of class ci at time now: it
// picks the level, charges the overheads, records the execution, accounts
// its time and energy, and marks the processor free at the returned finish
// time. All frequency, power and overhead arithmetic uses the processor
// class's own DVS table, with work retiring at the effective rate Speed·f.
func (rs *runState) issue(ti, proc, ci int, now float64) float64 {
	cfg := rs.cfg
	res := &rs.res
	t := rs.tasks[ti]
	c := rs.hp.Class(ci)
	plat := c.Plat
	lv := plat.Levels()
	cur := rs.levels[proc]
	lvl := cur
	var compT, changeT float64
	if !t.Dummy {
		compT = cfg.Overheads.CompTime(c.Rate(cur))
		if cfg.Policy == nil {
			lvl = plat.MaxIndex()
		} else {
			lvl = cfg.Policy.PickLevel(t, now, cur, ci)
		}
		if lvl < 0 || lvl >= len(lv) {
			panic(fmt.Sprintf("sim: policy returned invalid level %d for task %q on class %q", lvl, t.Name, c.Name))
		}
		if lvl != cur {
			changeT = cfg.Overheads.ChangeTime(lv[cur], lv[lvl])
			res.SpeedChanges++
		}
	}
	var execT float64
	if t.WorkA > 0 {
		execT = t.WorkA / c.Rate(lvl)
	}
	start := now + compT + changeT
	finish := start + execT
	// Theorem 1's latest start time is class-relative; online, a
	// computation task runs on its canonical class.
	if !t.Dummy && now > (t.LFT-t.WorkW/c.EffFmax())*(1+lstTol)+lstTol {
		res.LSTViolations++
	}
	if rs.levelTime != nil {
		rs.levelTime[lvl] += finish - start
	}
	res.Records = append(res.Records, Record{
		Task: ti, Proc: proc,
		Dispatch: now, Start: start, Finish: finish,
		Level: lvl, CompOH: compT, ChangeOH: changeT,
	})
	res.BusyTime[proc] += execT
	res.OverheadTime[proc] += compT + changeT
	// Each energy term is added to the scalar and to the class total
	// separately, so neither accumulation depends on the other's float
	// association. Zero-duration terms are skipped: they add exactly
	// +0 to a non-negative sum.
	if execT != 0 {
		active := plat.PowerAt(lvl) * execT
		res.ActiveEnergy += active
		res.ClassActiveEnergy[ci] += active
	}
	// The speed computation runs at the old level; the transition is
	// charged at the higher-powered of the two levels (the paper does
	// not specify transition power; this choice is conservative and
	// documented in DESIGN.md).
	if compT != 0 {
		ohComp := plat.PowerAt(cur) * compT
		res.OverheadEnergy += ohComp
		res.ClassOverheadEnergy[ci] += ohComp
	}
	if changeT != 0 {
		ohChange := math.Max(plat.PowerAt(cur), plat.PowerAt(lvl)) * changeT
		res.OverheadEnergy += ohChange
		res.ClassOverheadEnergy[ci] += ohChange
	}
	rs.levels[proc] = lvl
	rs.freeAt[proc] = finish
	return finish
}
