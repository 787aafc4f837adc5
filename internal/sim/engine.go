package sim

import (
	"fmt"

	"andorsched/internal/power"
)

// runState is the engine's complete scratch state; an Arena retains one
// across runs so that its buffers are reused. begin sets the per-run part
// and sizes the buffers; section resets the per-section part.
type runState struct {
	cfg   *Config
	hp    *power.Hetero
	multi bool   // more than one class: dummies consult the placement
	pl    placer // the placement, for dummies

	// levels carries each processor's level from section to section.
	levels []int
	// freeAt is each processor's free time: the finish of the last task
	// issued on it (the section's start before any). A processor is idle
	// at t exactly when freeAt ≤ t.
	freeAt []float64
	npreds []int // predecessors not yet released through Succs

	// The section in progress's totals, whose per-processor and per-class
	// parts are cleared as the run adds them up (on one class, the class
	// totals are the scalars and are not kept), and a recorded run's
	// section totals and records, section after section.
	sec    Section
	floats []float64
	recs   []Record

	// readyAt[i] is the latest finish of task i's released predecessors.
	// npreds and readyAt grow together and are resliced per section.
	readyAt []float64

	res Result
}

// begin starts a run of n sections on cfg's machine: it checks the initial
// levels, sizes and clears the per-processor, per-class and per-level
// buffers, stores the configuration and sets every processor's level.
func (rs *runState) begin(cfg *Config, n int) error {
	hp := cfg.Hetero
	if hp == nil {
		return fmt.Errorf("sim: no machine configured (Config.Hetero is nil)")
	}
	m, nc := hp.NumProcs(), hp.NumClasses()
	if cfg.InitialLevels != nil {
		if len(cfg.InitialLevels) != m {
			return fmt.Errorf("sim: processor count %d disagrees with len(InitialLevels)=%d",
				m, len(cfg.InitialLevels))
		}
		for ci := 0; ci < nc; ci++ {
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

	rs.cfg = cfg
	rs.hp = hp
	rs.multi = nc > 1
	rs.pl.reset(hp, cfg.Placement)
	rs.levels = ensureInts(rs.levels, m)
	if cfg.InitialLevels != nil {
		copy(rs.levels, cfg.InitialLevels)
	} else {
		for i := range rs.levels {
			rs.levels[i] = hp.Class(hp.ClassOf(i)).Plat.MaxIndex()
		}
	}
	rs.freeAt = ensureFloats(rs.freeAt, m)
	sec, res := &rs.sec, &rs.res
	sec.BusyTime, sec.OverheadTime = ensureFloats(sec.BusyTime, m), ensureFloats(sec.OverheadTime, m)
	res.ProcBusyTime, res.ProcOverheadTime = ensureFloats(res.ProcBusyTime, m), ensureFloats(res.ProcOverheadTime, m)
	for i := range res.ProcBusyTime {
		res.ProcBusyTime[i], res.ProcOverheadTime[i], sec.BusyTime[i], sec.OverheadTime[i] = 0, 0, 0, 0
	}
	sec.ClassActiveEnergy, sec.ClassOverheadEnergy = ensureFloats(sec.ClassActiveEnergy, nc), ensureFloats(sec.ClassOverheadEnergy, nc)
	res.ClassEnergy = ensureFloats(res.ClassEnergy, nc)
	for c := range res.ClassEnergy {
		res.ClassEnergy[c], sec.ClassActiveEnergy[c], sec.ClassOverheadEnergy[c] = 0, 0, 0
	}
	res.Finish, res.ActiveEnergy, res.OverheadEnergy, res.BusyTime, res.OverheadTime = 0, 0, 0, 0, 0
	res.SpeedChanges, res.LSTViolations = 0, 0
	res.LevelTime = ensureFloats(res.LevelTime, hp.MaxLevels())
	clear(res.LevelTime)
	res.Sections = res.Sections[:0]
	rs.recs = rs.recs[:0]
	if cfg.Record {
		rs.floats = ensureFloats(rs.floats, n*2*(m+nc))
	}
	return nil
}

// run executes the steps back to back from start, telling the policy of
// every section boundary, and adds each section's totals to the run's, clearing them for
// the next section.
func (rs *runState) run(start float64, steps []Step) (*Result, error) {
	res, pol, sec := &rs.res, rs.cfg.Policy, &rs.sec
	now := start
	for k := range steps {
		if pol != nil {
			pol.Boundary(k, now)
		}
		if err := rs.section(&steps[k], now); err != nil {
			return nil, err
		}
		if rs.cfg.Record {
			rs.keep(k)
		}
		res.ActiveEnergy += sec.ActiveEnergy
		res.OverheadEnergy += sec.OverheadEnergy
		if rs.multi {
			for c := range res.ClassEnergy {
				res.ClassEnergy[c] += sec.ClassActiveEnergy[c] + sec.ClassOverheadEnergy[c]
				sec.ClassActiveEnergy[c], sec.ClassOverheadEnergy[c] = 0, 0
			}
		} else {
			res.ClassEnergy[0] += sec.ActiveEnergy + sec.OverheadEnergy
		}
		res.SpeedChanges += sec.SpeedChanges
		res.LSTViolations += sec.LSTViolations
		for i, b := range sec.BusyTime {
			o := sec.OverheadTime[i]
			res.BusyTime += b
			res.OverheadTime += o
			res.ProcBusyTime[i] += b
			res.ProcOverheadTime[i] += o
			sec.BusyTime[i], sec.OverheadTime[i] = 0, 0
		}
		now = sec.Finish
	}
	if pol != nil {
		pol.Boundary(len(steps), now)
	}
	res.Finish = now
	res.FinalLevels = rs.levels
	// Every task of a completed section ran once.
	off := 0
	for k := range res.Sections {
		n := len(steps[k].Prog.tasks)
		res.Sections[k].Records = rs.recs[off : off+n : off+n]
		off += n
	}
	return res, nil
}

// keep copies the totals of section k, just run, into the recorded
// result; the run attaches its records when it completes.
func (rs *runState) keep(k int) {
	sec, m, nc := rs.sec, len(rs.sec.BusyTime), len(rs.sec.ClassActiveEnergy)
	f := rs.floats[2*k*(m+nc) : 2*(k+1)*(m+nc)]
	sec.BusyTime = append(f[:0:m], sec.BusyTime...)
	sec.OverheadTime = append(f[m:m:2*m], sec.OverheadTime...)
	sec.ClassActiveEnergy = append(f[2*m:2*m:2*m+nc], sec.ClassActiveEnergy...)
	sec.ClassOverheadEnergy = append(f[2*m+nc:2*m+nc], sec.ClassOverheadEnergy...)
	if !rs.multi {
		sec.ClassActiveEnergy[0], sec.ClassOverheadEnergy[0] = sec.ActiveEnergy, sec.OverheadEnergy
	}
	rs.res.Sections = append(rs.res.Sections, sec)
}

// section runs step's program from start: it resets the section's scalar
// totals and the processors' free times, seeds the dependence counters
// from the program and runs the order-gate recurrence. Levels carry over
// from the previous section.
func (rs *runState) section(step *Step, start float64) error {
	prog := step.Prog
	if nc := rs.hp.NumClasses(); prog.classes != nc {
		return fmt.Errorf("sim: program compiled for a %d-class machine, run is on %d classes", prog.classes, nc)
	}
	if len(step.Work) != len(prog.tasks) {
		return fmt.Errorf("sim: %d actual works for %d tasks", len(step.Work), len(prog.tasks))
	}
	for i := range rs.freeAt {
		rs.freeAt[i] = start
	}
	sec := &rs.sec
	sec.Start = start
	sec.ActiveEnergy, sec.OverheadEnergy = 0, 0
	sec.SpeedChanges, sec.LSTViolations = 0, 0
	return rs.runOrderGate(prog, step.Work, start)
}

// runOrderGate is the on-line discipline as a recurrence over the dispatch
// order, from start. Task k is dispatched at the latest of task k−1's
// dispatch, its released predecessors' finishes and the earliest free time
// of the processors it may run on, on the one of them idle longest. A task
// whose turn comes with unreleased predecessors deadlocks the order gate,
// and a computation task whose actual work exceeds its worst case stops
// the run at its turn. The first over-released successor in completion
// order (finish time, then dispatch order) is the run's error, as in an
// event loop, which would stop at that completion. It sets the section's
// finish.
func (rs *runState) runOrderGate(prog *Program, work []float64, start float64) error {
	tasks := prog.tasks
	if cap(rs.npreds) < len(tasks) {
		rs.npreds, rs.readyAt = make([]int, len(tasks)), make([]float64, len(tasks))
	}
	npreds, readyAt := rs.npreds[:len(tasks)], rs.readyAt[:len(tasks)]
	for i, n := range prog.npreds {
		npreds[i], readyAt[i] = n, start
	}
	freeAt, levels := rs.freeAt, rs.levels
	m := len(freeAt)
	gate, last := start, start
	var err error
	var errAt float64
	for k, ti := range prog.byOrder {
		if npreds[ti] != 0 {
			if err == nil {
				err = fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", len(tasks)-k)
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
		t := &tasks[ti]
		var c *power.Class
		first, end := 0, m
		if !t.Dummy {
			c = rs.hp.Class(t.CanonClass)
			first, end = c.Procs()
		}
		proc := first
		for i := first + 1; i < end; i++ {
			if freeAt[i] < freeAt[proc] {
				proc = i
			}
		}
		now := gate
		if r := readyAt[ti]; r > now {
			now = r
		}
		if f := freeAt[proc]; f > now {
			now = f
		}
		if err != nil && errAt <= now {
			break
		}
		finish := now // a dummy takes no time and keeps its processor's level
		if t.Dummy {
			if rs.multi {
				proc, _ = rs.pl.pick(t, now, freeAt)
			}
			if rs.cfg.Record {
				rs.recs = append(rs.recs, Record{Task: ti, Proc: proc, Dispatch: now, Start: now, Finish: now, Level: levels[proc]})
			}
		} else {
			if w := work[ti]; w > t.WorkW*(1+1e-9) {
				err = fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", t.Name, w, t.WorkW)
				break
			}
			finish = rs.issue(t, c, ti, proc, work[ti], now)
		}
		freeAt[proc] = finish
		if finish > last {
			last = finish
		}
		for _, s := range t.Succs {
			npreds[s]--
			if readyAt[s] < finish {
				readyAt[s] = finish
			}
			if npreds[s] < 0 && (err == nil || finish < errAt) {
				err = fmt.Errorf("sim: task %q completed more predecessors than it has", tasks[s].Name)
				errAt = finish
			}
		}
		gate = now
	}
	rs.sec.Finish = last
	return err
}

// issue dispatches computation task t, index ti of the section, doing w
// cycles, on processor proc of its class c at time now: it picks the
// level, charges the overheads, records the execution on a recorded run,
// accounts its time and energy, and returns its finish time. All frequency, power and
// overhead arithmetic uses the class's own DVS table, with work retiring
// at the effective rate Speed·f.
func (rs *runState) issue(t *Task, c *power.Class, ti, proc int, w, now float64) float64 {
	cfg, sec, ci := rs.cfg, &rs.sec, t.CanonClass
	plat := c.Plat
	lv := plat.Levels()
	cur := rs.levels[proc]
	lvl := plat.MaxIndex()
	lft := cfg.Deadline + t.LFT
	compT := cfg.Overheads.CompTime(c.Rate(cur))
	if cfg.Policy != nil {
		lvl = cfg.Policy.PickLevel(t, lft, now, cur, ci)
	}
	if lvl < 0 || lvl >= len(lv) {
		panic(fmt.Sprintf("sim: policy returned invalid level %d for task %q on class %q", lvl, t.Name, c.Name))
	}
	var changeT, execT float64
	if lvl != cur {
		changeT = cfg.Overheads.ChangeTime(lv[cur], lv[lvl])
		sec.SpeedChanges++
	}
	// Theorem 1's latest start time is class-relative; online, a
	// computation task runs on its canonical class.
	if now > (lft-t.WorkW/c.EffFmax())*(1+lstTol)+lstTol {
		sec.LSTViolations++
	}
	if w > 0 {
		execT = w / c.Rate(lvl)
	}
	start := now + compT + changeT
	finish := start + execT
	rs.res.LevelTime[lvl] += finish - start
	if cfg.Record {
		rs.recs = append(rs.recs, Record{
			Task: ti, Proc: proc,
			Dispatch: now, Start: start, Finish: finish,
			Level: lvl, CompOH: compT, ChangeOH: changeT,
		})
	}
	sec.BusyTime[proc] += execT
	sec.OverheadTime[proc] += compT + changeT
	// Each energy term is added to the scalar and, on several classes, to
	// the class total separately, so neither accumulation depends on the
	// other's float association. Zero-duration terms are skipped: they add
	// exactly +0 to a non-negative sum.
	if execT != 0 {
		active := plat.PowerAt(lvl) * execT
		sec.ActiveEnergy += active
		if rs.multi {
			sec.ClassActiveEnergy[ci] += active
		}
	}
	// The speed computation runs at the old level; the transition is
	// charged at the higher-powered of the two levels (the paper does
	// not specify transition power; this choice is conservative and
	// documented in DESIGN.md). Powers are positive, so the comparison
	// below is math.Max.
	if compT != 0 {
		ohComp := plat.PowerAt(cur) * compT
		sec.OverheadEnergy += ohComp
		if rs.multi {
			sec.ClassOverheadEnergy[ci] += ohComp
		}
	}
	if changeT != 0 {
		p := plat.PowerAt(cur)
		if q := plat.PowerAt(lvl); q > p {
			p = q
		}
		ohChange := p * changeT
		sec.OverheadEnergy += ohChange
		if rs.multi {
			sec.ClassOverheadEnergy[ci] += ohChange
		}
	}
	rs.levels[proc] = lvl
	return finish
}
