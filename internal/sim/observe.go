package sim

import (
	"cmp"
	"slices"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

// Observer derives a run's structured events and engine metrics from a
// recorded run (Config.Record), so that the dispatch loop carries no
// observation hooks. Begin starts a run; Section then emits one section's
// events and updates the registry as an event loop over the section's
// dispatches and completions would have. An Observer reuses its buffers
// across runs and is not safe for concurrent use.
type Observer struct {
	hp     *power.Hetero
	tracer obs.Tracer
	met    engineMetrics // all nil without a registry
	levels []int         // each processor's level, carried from section to section
	freeAt []float64     // each processor's free time within the section
	held   []int         // record positions of the pending finishes, by (Finish, position)
}

// engineMetrics are a registry's engine instruments, resolved at Begin so
// that a section takes no registry lock and formats no metric name.
type engineMetrics struct {
	tasks, dummies, changes *obs.Counter
	exec, idle              *obs.Histogram
	procChanges             []*obs.Counter
	procBusy, procOverhead  []*obs.Gauge
}

// Begin starts observing a run on machine hp whose processors start at
// levels (copied), emitting events to tr and updating m; either may be
// nil. The engine's instruments are registered in m here, so that they
// appear in its snapshots even when they stay zero.
func (o *Observer) Begin(hp *power.Hetero, levels []int, tr obs.Tracer, m *obs.Metrics) {
	np := hp.NumProcs()
	o.hp, o.tracer, o.met = hp, tr, engineMetrics{}
	o.levels = append(o.levels[:0], levels...)
	o.freeAt = ensureFloats(o.freeAt, np)
	if m == nil {
		return
	}
	o.met = engineMetrics{
		tasks:   m.Counter(MetricTasks),
		dummies: m.Counter(MetricDummies),
		changes: m.Counter(MetricSpeedChanges),
		exec:    m.Histogram(MetricExecSeconds, obs.DefaultTimeBuckets),
		idle:    m.Histogram(MetricIdleSeconds, obs.DefaultTimeBuckets),
	}
	for i := 0; i < np; i++ {
		o.met.procChanges = append(o.met.procChanges, m.Counter(MetricProcSpeedChanges(i)))
		o.met.procBusy = append(o.met.procBusy, m.Gauge(MetricProcBusy(i)))
		o.met.procOverhead = append(o.met.procOverhead, m.Gauge(MetricProcOverhead(i)))
	}
}

// Section observes one section of the run begun: step is the section's
// script step and sec its part of the recorded result. It walks the
// records in dispatch order. Before each record come the finishes due by
// its dispatch time, in (finish time, dispatch position) order; then
// dispatch, if non-nil, is called with the record and its processor's
// level before it, so that the caller can insert its own events; then the
// idle, dispatch and speed-change events. A task that takes no time
// finishes right after its own dispatch, and the finishes still pending
// close the section. Each processor's busy and overhead gauges then add
// the section's totals.
func (o *Observer) Section(step Step, sec *Section, dispatch func(r *Record, prev int)) {
	tasks, start := step.Prog.tasks, sec.Start
	recs, tr, em := sec.Records, o.tracer, &o.met
	for i := range o.freeAt {
		o.freeAt[i] = start
	}
	o.held = o.held[:0]
	for k := range recs {
		if tr != nil && recs[k].Finish != recs[k].Dispatch {
			o.held = append(o.held, k)
		}
	}
	slices.SortFunc(o.held, func(a, b int) int {
		return cmp.Or(cmp.Compare(recs[a].Finish, recs[b].Finish), a-b)
	})
	next := 0 // the first held finish not yet emitted
	for k := range recs {
		r := &recs[k]
		t := &tasks[r.Task]
		prev, idle := o.levels[r.Proc], r.Dispatch-o.freeAt[r.Proc]
		for ; next < len(o.held) && recs[o.held[next]].Finish <= r.Dispatch; next++ {
			o.finish(tasks, &recs[o.held[next]])
		}
		if dispatch != nil {
			dispatch(r, prev)
		}
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
				o.finish(tasks, r)
			}
		}
		if em.tasks != nil {
			if t.Dummy {
				em.dummies.Inc()
			} else {
				// The execution time as the engine computed it: the
				// record's Finish − Start may differ in the last bit.
				var execT float64
				if w := step.Work[r.Task]; w > 0 {
					execT = w / o.hp.Class(o.hp.ClassOf(r.Proc)).Rate(r.Level)
				}
				em.tasks.Inc()
				em.exec.Observe(execT)
			}
			if r.Level != prev {
				em.changes.Inc()
				em.procChanges[r.Proc].Inc()
			}
			if idle > 0 {
				em.idle.Observe(idle)
			}
		}
		o.levels[r.Proc], o.freeAt[r.Proc] = r.Level, r.Finish
	}
	for _, k := range o.held[next:] {
		o.finish(tasks, &recs[k])
	}
	for i := range em.procBusy {
		em.procBusy[i].Add(sec.BusyTime[i])
		em.procOverhead[i].Add(sec.OverheadTime[i])
	}
}

// finish emits r's finish event. The processor is still at the record's
// level: its next dispatch comes at or after this finish.
func (o *Observer) finish(tasks []Task, r *Record) {
	t := &tasks[r.Task]
	o.tracer.Event(obs.Event{
		Kind: obs.EvTaskFinish, Time: r.Finish, Proc: r.Proc,
		Task: r.Task, Node: t.Node, Name: t.Name, Level: r.Level, Prev: r.Level,
	})
}
