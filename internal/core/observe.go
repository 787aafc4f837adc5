package core

import (
	"fmt"

	"andorsched/internal/obs"
	"andorsched/internal/sim"
)

// observer derives a run's events and metrics from its sections' records,
// after each section: the engine's, through a sim.Observer, and this
// layer's around and between them — section boundaries, OR resolutions,
// the section and OR counters, the dynamic schemes' slack decisions and
// ORA's α gauge. execute uses it only when RunConfig.Tracer or Metrics is
// set, so an unobserved run pays one check per section.
type observer struct {
	sim    sim.Observer
	tracer obs.Tracer
	pol    *policy
	tasks  []*sim.Task // the section being observed

	hSlack                 *obs.Histogram
	cSteal, cSections, cOR *obs.Counter
	gAlpha                 *obs.Gauge
}

// begin starts observing a run of pol whose processors start at levels,
// registering the run's instruments in cfg.Metrics.
func (o *observer) begin(cfg *RunConfig, pol *policy, levels []int) {
	*o = observer{sim: o.sim, tracer: cfg.Tracer, pol: pol}
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
	o.sim.Begin(pol.hp, levels, cfg.Tracer, cfg.Metrics)
}

// section observes step of script sc: section sp ran tasks from start with
// result sr, and the policy has seen it.
func (o *observer) section(sc *script, step int, sp *secPlan, tasks []*sim.Task, sr *sim.Result, start float64) {
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
	o.sim.Section(tasks, sr, start, o.pick)
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

// pick observes a dynamic scheme's level pick for a computation task: the
// slack-sharing allocation beyond the task's minimum need, and, when the
// speculative floor pushed the level above the greedy one, a slack steal.
// The greedy level is recomputed from the record's dispatch and the
// processor's level before it.
func (o *observer) pick(r *sim.Record, prev int) {
	t := o.tasks[r.Task]
	if t.Dummy || !o.pol.scheme.Dynamic() {
		return
	}
	now := r.Dispatch
	g := o.pol.gssPick(t, now, prev, t.CanonClass)
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
