package core

import (
	"fmt"

	"andorsched/internal/obs"
	"andorsched/internal/sim"
)

// observer derives a run's events and metrics from its recorded sections,
// after the run: the engine's, through a sim.Observer, and this layer's
// around and between them — section boundaries, OR resolutions, the
// section and OR counters, the dynamic schemes' slack decisions and ORA's
// α gauge. execute uses it only when RunConfig.Tracer or Metrics is set.
type observer struct {
	sim    sim.Observer
	tracer obs.Tracer
	pol    *policy
	tasks  []sim.Task // the section being observed

	hSlack                 *obs.Histogram
	cSteal, cSections, cOR *obs.Counter
}

// begin starts observing a run of pol whose processors started at levels,
// registering the run's instruments in cfg.Metrics. The run is over, so
// the α gauge takes ORA's final estimate here.
func (o *observer) begin(cfg *RunConfig, pol *policy, levels []int) {
	*o = observer{sim: o.sim, tracer: cfg.Tracer, pol: pol}
	if m := cfg.Metrics; m != nil {
		o.hSlack = m.Histogram(MetricSlackShare, obs.DefaultTimeBuckets)
		o.cSteal = m.Counter(MetricSlackSteals)
		o.cSections = m.Counter(MetricSections)
		o.cOR = m.Counter(MetricORResolves)
		if pol.scheme == ORA {
			m.Gauge(MetricORAAlpha).Set(pol.ora.alpha)
		}
	}
	o.sim.Begin(pol.hp, levels, cfg.Tracer, cfg.Metrics)
}

// section observes step of script sc, whose part of the recorded run is
// sec.
func (o *observer) section(sc *script, step int, sec *sim.Section) {
	sp := sc.sections[step]
	resolved := step < len(sc.choices)
	ev := obs.Event{Kind: obs.EvSectionBegin, Time: sec.Start, Proc: -1, Task: -1, Node: sp.sec.ID}
	if o.tracer != nil {
		ev.Name = fmt.Sprintf("S%d", sp.sec.ID)
		o.tracer.Event(ev)
	}
	if o.cSections != nil {
		o.cSections.Inc()
	}
	o.tasks = sp.tasks
	o.sim.Section(sc.steps[step], sec, o.pick)
	if o.tracer != nil {
		ev.Kind, ev.Time = obs.EvSectionEnd, sec.Finish
		o.tracer.Event(ev)
		if resolved {
			c := sc.choices[step]
			o.tracer.Event(obs.Event{
				Kind: obs.EvORResolve, Time: sec.Finish,
				Proc: -1, Task: -1, Node: c.Or.ID, Name: c.Or.Name,
				Branch: c.Branch,
			})
		}
	}
	if o.cOR != nil && resolved {
		o.cOR.Inc()
	}
}

// pick observes a dynamic scheme's level pick for a computation task: the
// slack-sharing allocation beyond the task's minimum need, and, when the
// speculative floor pushed the level above the greedy one, a slack steal.
// The greedy level is recomputed from the record's dispatch and the
// processor's level before it.
func (o *observer) pick(r *sim.Record, prev int) {
	t := &o.tasks[r.Task]
	if t.Dummy || !o.pol.scheme.Dynamic() {
		return
	}
	now, lft := r.Dispatch, o.pol.d+t.LFT
	g, _ := o.pol.gssPick(t, lft, now, prev, t.CanonClass)
	slack := lft - now - t.WorkW/o.pol.plan.fmax
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
