package core

// This file freezes the run driver as it stood while a run was one engine
// Begin plus one engine Section call per program section: core's execute,
// which instantiated each section's tasks (actual work installed, latest
// finish times resolved against the deadline), ran them as one section
// and added the section's totals to the run's; a copy of that section
// engine; and the two observers that derived a run's events and metrics
// from each section's records. FuzzRunDifferential holds the live driver
// to it bit for bit. The reference reads the plan, its templates and the
// scheme policies, which it shares with the live driver, and keeps its own
// copies of everything else.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"andorsched/internal/andor"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// refScript is one run's resolved execution: the sections visited, each
// task's actual cycles by step and task index, and the OR decisions.
type refScript struct {
	sections []*secPlan
	works    [][]float64
	choices  []andor.Choice
}

// refRunInto is RunInto on the frozen driver, on fresh scratch.
func (p *Plan) refRunInto(cfg RunConfig, out *RunResult) error {
	if err := p.check(&cfg); err != nil {
		return err
	}
	a := NewArena() // branch-probability and sampling scratch only
	sc := p.refResolve(&cfg, a)
	if cfg.Scheme == CLV {
		return p.refClairvoyant(&cfg, sc, out)
	}
	pol := newPolicy(p, cfg.Scheme, cfg.Deadline)
	pol.setORAWeight(cfg.ORAWeight)
	return p.refExecute(&cfg, sc, pol, nil, out)
}

// refResolve walks the section graph once, drawing each section's actual
// times with one SampleBatch call and the OR branches in execution order.
func (p *Plan) refResolve(cfg *RunConfig, a *Arena) *refScript {
	sc := new(refScript)
	sec := p.Sections.First
	orCount := 0
	for {
		sp := &p.secs[sec.ID]
		sc.sections = append(sc.sections, sp)
		works := make([]float64, len(sp.tasks))
		sc.works = append(sc.works, works)
		idx, wcets, acets := p.computes(sp)
		times := wcets
		if !cfg.WorstCase {
			times = make([]float64, len(idx))
			cfg.Sampler.SampleBatch(wcets, acets, times)
		}
		for j, ti := range idx {
			works[ti] = times[j] * p.fmax
		}
		exit := sp.sec.Exit
		if exit == nil || len(exit.Succs()) == 0 {
			return sc
		}
		branch := p.chooseBranch(exit, orCount, cfg, a)
		orCount++
		sc.choices = append(sc.choices, andor.Choice{Or: exit, Branch: branch})
		sec = p.Sections.Branch[exit.ID][branch]
	}
}

// refClairvoyant is the frozen clairvoyant bound: an NPM-speed probe of
// the script, then a replay at each class's stretched level.
func (p *Plan) refClairvoyant(cfg *RunConfig, sc *refScript, out *RunResult) error {
	probeCfg := *cfg
	probeCfg.CollectTrace = false
	probeCfg.Validate = false
	probeCfg.Tracer = nil
	probeCfg.Metrics = nil
	pol := newPolicy(p, CLV, cfg.Deadline)
	var probe RunResult
	if err := p.refExecute(&probeCfg, sc, pol, nil, &probe); err != nil {
		return err
	}
	hp := p.Hetero
	for c := 0; c < hp.NumClasses(); c++ {
		plat := hp.Class(c).Plat
		pol.fixed[c] = plat.QuantizeUp(plat.Max().Freq * probe.Finish / cfg.Deadline)
	}
	levels := make([]int, p.Procs)
	for i := range levels {
		levels[i] = pol.fixed[hp.ClassOf(i)]
	}
	return p.refExecute(cfg, sc, pol, levels, out)
}

// refExecute is the frozen execute: one engine begin, then per section the
// policy's re-speculation, the section's task copies, one engine section,
// ORA's observation, the observers and the accumulation into out. It does
// not validate the schedules (RunConfig.Validate only adds checks).
func (p *Plan) refExecute(cfg *RunConfig, sc *refScript, pol *policy, levelsOverride []int, out *RunResult) error {
	d := cfg.Deadline
	var ov power.Overheads
	if cfg.Scheme.Dynamic() {
		ov = p.Overheads
	}
	hp := p.Hetero
	levels := make([]int, p.Procs)
	if levelsOverride != nil {
		copy(levels, levelsOverride)
	} else {
		for i := range levels {
			levels[i] = pol.initialLevel(hp.ClassOf(i))
		}
	}
	busyP := make([]float64, p.Procs)
	ovhP := make([]float64, p.Procs)
	lt := make([]float64, hp.MaxLevels())
	var classGross, classIdle []float64
	if p.Platform == nil {
		classGross = make([]float64, hp.NumClasses())
		classIdle = make([]float64, hp.NumClasses())
	}
	*out = RunResult{
		Scheme: cfg.Scheme, Deadline: d,
		LevelTime:        lt,
		ClassGrossEnergy: classGross,
		ClassIdleEnergy:  classIdle,
	}
	var eng refEngine
	if err := eng.begin(&refEngineConfig{hp: hp, place: p.Placement, ov: ov, pol: pol, initial: levels}, lt); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	observed := cfg.Tracer != nil || cfg.Metrics != nil
	var o refCoreObserver
	if observed {
		o.begin(cfg, pol, levels)
	}
	now := 0.0
	var sr *refSectionResult
	for step, sp := range sc.sections {
		pol.resetSection(sp.sec.ID, now)
		tasks := make([]sim.Task, len(sp.tasks))
		for i := range tasks {
			tasks[i] = sp.tasks[i]
			tasks[i].LFT = d + sp.tasks[i].LFT
		}
		var err error
		sr, err = eng.section(tasks, sc.works[step], now)
		if err != nil {
			return fmt.Errorf("core: section %d: %w", sp.sec.ID, err)
		}
		pol.observeSection(sp, sc.works[step])
		if observed {
			o.section(sc, step, sp, tasks, sc.works[step], sr, now)
		}
		out.ActiveEnergy += sr.ActiveEnergy
		out.OverheadEnergy += sr.OverheadEnergy
		for c := range classGross {
			classGross[c] += sr.ClassActiveEnergy[c] + sr.ClassOverheadEnergy[c]
		}
		out.SpeedChanges += sr.SpeedChanges
		if cfg.Scheme != CLV {
			out.LSTViolations += sr.LSTViolations
		}
		for i := range sr.BusyTime {
			out.BusyTime += sr.BusyTime[i]
			out.OverheadTime += sr.OverheadTime[i]
			busyP[i] += sr.BusyTime[i]
			ovhP[i] += sr.OverheadTime[i]
		}
		if cfg.CollectTrace {
			for _, r := range sr.Records {
				out.Trace = append(out.Trace, sim.GanttEntry{
					Proc: r.Proc, Name: tasks[r.Task].Name,
					Dispatch: r.Dispatch, Finish: r.Finish,
					Level: r.Level, CompOH: r.CompOH, ChangeOH: r.ChangeOH,
				})
			}
		}
		now = sr.Finish
	}
	out.Path = append(out.Path, sc.choices...)
	out.FinalLevels = append(out.FinalLevels, sr.FinalLevels...)
	out.Finish = now
	out.MetDeadline = now <= d*(1+feasTol)
	horizon := math.Max(d, now)
	if hp.NumClasses() == 1 {
		idleTime := float64(p.Procs)*horizon - out.BusyTime - out.OverheadTime
		if idleTime < 0 {
			idleTime = 0
		}
		out.IdleEnergy = hp.Class(0).Plat.IdlePower() * idleTime
		if classIdle != nil {
			classIdle[0] = out.IdleEnergy
		}
	} else {
		for i := 0; i < p.Procs; i++ {
			idle := horizon - busyP[i] - ovhP[i]
			if idle < 0 {
				idle = 0
			}
			ci := hp.ClassOf(i)
			out.IdleEnergy += hp.Class(ci).Plat.IdlePower() * idle
			classIdle[ci] += hp.Class(ci).Plat.IdlePower() * idle
		}
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		out.Metrics = &snap
	}
	return nil
}

// refEngineConfig is the frozen engine's configuration.
type refEngineConfig struct {
	hp      *power.Hetero
	place   sim.PlacementPolicy
	ov      power.Overheads
	pol     *policy
	initial []int
}

// refSectionResult is one section's engine result.
type refSectionResult struct {
	Records                                []sim.Record
	Finish                                 float64
	BusyTime, OverheadTime                 []float64
	ActiveEnergy, OverheadEnergy           float64
	ClassActiveEnergy, ClassOverheadEnergy []float64
	SpeedChanges, LSTViolations            int
	FinalLevels                            []int
}

// refEngine is the frozen section engine: levels carry from section to
// section, everything else is reset per section.
type refEngine struct {
	cfg       *refEngineConfig
	hp        *power.Hetero
	levelTime []float64
	levels    []int
	freeAt    []float64
	npreds    []int
	readyAt   []float64
	tasks     []sim.Task
	work      []float64
	errAt     float64
	res       refSectionResult
	err       error
}

func (rs *refEngine) begin(cfg *refEngineConfig, levelTime []float64) error {
	hp := cfg.hp
	m := hp.NumProcs()
	if len(cfg.initial) != m {
		return fmt.Errorf("sim: processor count %d disagrees with len(InitialLevels)=%d", m, len(cfg.initial))
	}
	for ci := 0; ci < hp.NumClasses(); ci++ {
		c := hp.Class(ci)
		first, end := c.Procs()
		for i, lv := range cfg.initial[first:end] {
			if n := c.Plat.NumLevels(); lv < 0 || lv >= n {
				return fmt.Errorf("sim: InitialLevels[%d]=%d outside the platform's %d levels (class %q)",
					first+i, lv, n, c.Name)
			}
		}
	}
	rs.cfg, rs.hp, rs.levelTime = cfg, hp, levelTime
	rs.levels = append([]int(nil), cfg.initial...)
	rs.freeAt = make([]float64, m)
	rs.res.BusyTime = make([]float64, m)
	rs.res.OverheadTime = make([]float64, m)
	rs.res.ClassActiveEnergy = make([]float64, hp.NumClasses())
	rs.res.ClassOverheadEnergy = make([]float64, hp.NumClasses())
	return nil
}

// section runs one section from start: tasks in their Order, task i doing
// work[i] cycles.
func (rs *refEngine) section(tasks []sim.Task, work []float64, start float64) (*refSectionResult, error) {
	for i := range tasks {
		if t := &tasks[i]; !t.Dummy && work[i] > t.WorkW*(1+1e-9) {
			return nil, fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", t.Name, work[i], t.WorkW)
		}
	}
	rs.tasks, rs.work = tasks, work
	rs.npreds = make([]int, len(tasks))
	byOrder := make([]int, len(tasks))
	for i := range tasks {
		rs.npreds[i] = len(tasks[i].Preds)
		byOrder[tasks[i].Order] = i
	}
	for i := range rs.freeAt {
		rs.freeAt[i] = start
	}
	res := &rs.res
	res.Records = nil
	clear(res.BusyTime)
	clear(res.OverheadTime)
	clear(res.ClassActiveEnergy)
	clear(res.ClassOverheadEnergy)
	res.Finish, res.ActiveEnergy, res.OverheadEnergy = start, 0, 0
	res.SpeedChanges, res.LSTViolations, res.FinalLevels = 0, 0, nil
	rs.err = nil

	rs.readyAt = make([]float64, len(tasks))
	for i := range rs.readyAt {
		rs.readyAt[i] = start
	}
	m := rs.hp.NumProcs()
	multi := rs.hp.NumClasses() > 1
	gate := start
	for k, ti := range byOrder {
		if rs.npreds[ti] != 0 {
			if rs.err == nil {
				rs.err = fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", len(tasks)-k)
			}
			break
		}
		t := &tasks[ti]
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
		if t.Dummy && multi {
			proc, ci = refPick(rs.hp, rs.cfg.place, t, now, rs.freeAt)
		}
		finish := rs.issue(ti, proc, ci, now)
		if finish > res.Finish {
			res.Finish = finish
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
	if rs.err != nil {
		return nil, rs.err
	}
	res.FinalLevels = rs.levels
	return res, nil
}

func (rs *refEngine) issue(ti, proc, ci int, now float64) float64 {
	cfg := rs.cfg
	res := &rs.res
	t := &rs.tasks[ti]
	c := rs.hp.Class(ci)
	plat := c.Plat
	lv := plat.Levels()
	cur := rs.levels[proc]
	lvl := cur
	var compT, changeT float64
	if !t.Dummy {
		compT = cfg.ov.CompTime(c.Rate(cur))
		lvl = cfg.pol.PickLevel(t, t.LFT, now, cur, ci)
		if lvl != cur {
			changeT = cfg.ov.ChangeTime(lv[cur], lv[lvl])
			res.SpeedChanges++
		}
	}
	var execT float64
	if w := rs.work[ti]; w > 0 {
		execT = w / c.Rate(lvl)
	}
	start := now + compT + changeT
	finish := start + execT
	if !t.Dummy && now > (t.LFT-t.WorkW/c.EffFmax())*(1+1e-9)+1e-9 {
		res.LSTViolations++
	}
	rs.levelTime[lvl] += finish - start
	res.Records = append(res.Records, sim.Record{
		Task: ti, Proc: proc,
		Dispatch: now, Start: start, Finish: finish,
		Level: lvl, CompOH: compT, ChangeOH: changeT,
	})
	res.BusyTime[proc] += execT
	res.OverheadTime[proc] += compT + changeT
	if execT != 0 {
		active := plat.PowerAt(lvl) * execT
		res.ActiveEnergy += active
		res.ClassActiveEnergy[ci] += active
	}
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

// refPick is the frozen placement step for a dummy on several classes:
// the policy picks among the processors idle at now.
func refPick(hp *power.Hetero, place sim.PlacementPolicy, t *sim.Task, now float64, freeAt []float64) (proc, class int) {
	var views []sim.ProcView
	for ci := 0; ci < hp.NumClasses(); ci++ {
		c := hp.Class(ci)
		first, end := c.Procs()
		for i := first; i < end; i++ {
			if freeAt[i] <= now {
				views = append(views, sim.ProcView{
					Proc: i, Class: ci, FreeAt: freeAt[i],
					EffFmax: c.EffFmax(), EnergyPerCycle: c.EnergyPerCycle(),
				})
			}
		}
	}
	if len(views) == 0 {
		return -1, 0
	}
	k := place.Pick(t, now, views)
	return views[k].Proc, views[k].Class
}

// refCoreObserver is the frozen core observer: section boundaries, OR
// resolutions, the section and OR counters, the slack decisions and ORA's
// α gauge around the engine observer's events.
type refCoreObserver struct {
	sim    refSimObserver
	tracer obs.Tracer
	pol    *policy
	tasks  []sim.Task

	hSlack                 *obs.Histogram
	cSteal, cSections, cOR *obs.Counter
	gAlpha                 *obs.Gauge
}

func (o *refCoreObserver) begin(cfg *RunConfig, pol *policy, levels []int) {
	*o = refCoreObserver{tracer: cfg.Tracer, pol: pol}
	if m := cfg.Metrics; m != nil {
		o.hSlack = m.Histogram(MetricSlackShare, obs.DefaultTimeBuckets)
		o.cSteal = m.Counter(MetricSlackSteals)
		o.cSections = m.Counter(MetricSections)
		o.cOR = m.Counter(MetricORResolves)
		if pol.scheme == ORA {
			o.gAlpha = m.Gauge(MetricORAAlpha)
			o.gAlpha.Set(pol.ora.alpha)
		}
	}
	o.sim.begin(pol.hp, levels, cfg.Tracer, cfg.Metrics)
}

func (o *refCoreObserver) section(sc *refScript, step int, sp *secPlan, tasks []sim.Task, work []float64,
	sr *refSectionResult, start float64) {
	resolved := step < len(sc.choices)
	ev := obs.Event{Kind: obs.EvSectionBegin, Time: start, Proc: -1, Task: -1, Node: sp.sec.ID}
	if o.tracer != nil {
		ev.Name = fmt.Sprintf("S%d", sp.sec.ID)
		o.tracer.Event(ev)
	}
	if o.cSections != nil {
		o.cSections.Inc()
	}
	o.tasks = tasks
	o.sim.section(tasks, work, sr, start, o.pick)
	if o.tracer != nil {
		ev.Kind, ev.Time = obs.EvSectionEnd, sr.Finish
		o.tracer.Event(ev)
		if resolved {
			c := sc.choices[step]
			o.tracer.Event(obs.Event{
				Kind: obs.EvORResolve, Time: sr.Finish,
				Proc: -1, Task: -1, Node: c.Or.ID, Name: c.Or.Name,
				Branch: c.Branch,
			})
		}
	}
	if o.cOR != nil && resolved {
		o.cOR.Inc()
	}
	if o.gAlpha != nil {
		o.gAlpha.Set(o.pol.ora.alpha)
	}
}

func (o *refCoreObserver) pick(r *sim.Record, prev int) {
	t := &o.tasks[r.Task]
	if t.Dummy || !o.pol.scheme.Dynamic() {
		return
	}
	now := r.Dispatch
	g, _ := o.pol.gssPick(t, t.LFT, now, prev, t.CanonClass)
	slack := t.LFT - now - t.WorkW/o.pol.plan.fmax
	if slack < 0 {
		slack = 0
	}
	if o.hSlack != nil {
		o.hSlack.Observe(slack)
	}
	ev := obs.Event{
		Kind: obs.EvSlackShare, Time: now, Proc: -1, Task: -1,
		Node: t.Node, Name: t.Name, Level: g, Prev: g, Value: slack,
	}
	if o.tracer != nil {
		o.tracer.Event(ev)
	}
	if r.Level <= g {
		return
	}
	if o.cSteal != nil {
		o.cSteal.Inc()
	}
	if o.tracer != nil {
		ev.Kind, ev.Level, ev.Value = obs.EvSlackSteal, r.Level, 0
		o.tracer.Event(ev)
	}
}

// refSimObserver is the frozen engine observer: dispatch, finish, idle and
// speed-change events and the engine metrics, derived from one section's
// records after it ran.
type refSimObserver struct {
	hp     *power.Hetero
	tracer obs.Tracer
	met    *obs.Metrics
	levels []int
	freeAt []float64
}

func (o *refSimObserver) begin(hp *power.Hetero, levels []int, tr obs.Tracer, m *obs.Metrics) {
	*o = refSimObserver{hp: hp, tracer: tr, met: m,
		levels: append([]int(nil), levels...), freeAt: make([]float64, hp.NumProcs())}
	if m == nil {
		return
	}
	m.Counter(sim.MetricTasks)
	m.Counter(sim.MetricDummies)
	m.Counter(sim.MetricSpeedChanges)
	m.Histogram(sim.MetricExecSeconds, obs.DefaultTimeBuckets)
	m.Histogram(sim.MetricIdleSeconds, obs.DefaultTimeBuckets)
	for i := 0; i < hp.NumProcs(); i++ {
		m.Counter(sim.MetricProcSpeedChanges(i))
		m.Gauge(sim.MetricProcBusy(i))
		m.Gauge(sim.MetricProcOverhead(i))
	}
}

func (o *refSimObserver) section(tasks []sim.Task, work []float64, res *refSectionResult, start float64,
	dispatch func(r *sim.Record, prev int)) {
	recs, tr, m := res.Records, o.tracer, o.met
	for i := range o.freeAt {
		o.freeAt[i] = start
	}
	var held []int
	for k := range recs {
		if tr != nil && recs[k].Finish != recs[k].Dispatch {
			held = append(held, k)
		}
	}
	slices.SortFunc(held, func(a, b int) int {
		return cmp.Or(cmp.Compare(recs[a].Finish, recs[b].Finish), a-b)
	})
	finish := func(r *sim.Record) {
		t := &tasks[r.Task]
		tr.Event(obs.Event{
			Kind: obs.EvTaskFinish, Time: r.Finish, Proc: r.Proc,
			Task: r.Task, Node: t.Node, Name: t.Name, Level: r.Level, Prev: r.Level,
		})
	}
	next := 0
	for k := range recs {
		r := &recs[k]
		t := &tasks[r.Task]
		prev, idle := o.levels[r.Proc], r.Dispatch-o.freeAt[r.Proc]
		for ; next < len(held) && recs[held[next]].Finish <= r.Dispatch; next++ {
			finish(&recs[held[next]])
		}
		dispatch(r, prev)
		if tr != nil {
			if idle > 0 {
				tr.Event(obs.Event{Kind: obs.EvIdle, Time: r.Dispatch, Proc: r.Proc, Task: -1, Node: -1, Value: idle})
			}
			ev := obs.Event{
				Kind: obs.EvTaskDispatch, Time: r.Dispatch, Proc: r.Proc,
				Task: r.Task, Node: t.Node, Name: t.Name,
				Level: r.Level, Prev: prev, Value: r.CompOH + r.ChangeOH,
			}
			tr.Event(ev)
			if r.Level != prev {
				ev.Kind, ev.Value = obs.EvSpeedChange, r.ChangeOH
				tr.Event(ev)
			}
			if r.Finish == r.Dispatch {
				finish(r)
			}
		}
		if m != nil {
			if t.Dummy {
				m.Counter(sim.MetricDummies).Inc()
			} else {
				var execT float64
				if work[r.Task] > 0 {
					execT = work[r.Task] / o.hp.Class(o.hp.ClassOf(r.Proc)).Rate(r.Level)
				}
				m.Counter(sim.MetricTasks).Inc()
				m.Histogram(sim.MetricExecSeconds, obs.DefaultTimeBuckets).Observe(execT)
			}
			if r.Level != prev {
				m.Counter(sim.MetricSpeedChanges).Inc()
				m.Counter(sim.MetricProcSpeedChanges(r.Proc)).Inc()
			}
			if idle > 0 {
				m.Histogram(sim.MetricIdleSeconds, obs.DefaultTimeBuckets).Observe(idle)
			}
		}
		o.levels[r.Proc], o.freeAt[r.Proc] = r.Level, r.Finish
	}
	for _, k := range held[next:] {
		finish(&recs[k])
	}
	if m != nil {
		for i := range res.BusyTime {
			m.Gauge(sim.MetricProcBusy(i)).Add(res.BusyTime[i])
			m.Gauge(sim.MetricProcOverhead(i)).Add(res.OverheadTime[i])
		}
	}
}
