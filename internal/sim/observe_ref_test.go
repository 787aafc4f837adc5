package sim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

// refObsState is the order-gate loop with the tracer and metrics hooks it
// carried in its dispatch loop, frozen as the reference the post-section
// observation pass must reproduce: the same events in the same order, times
// bit for bit, and the same metrics. It runs one section of a structurally
// valid workload (CompileInto accepts it) from start and cfg.InitialLevels.
type refObsState struct {
	cfg     *Config
	start   float64
	tasks   []*Task
	work    []float64
	hp      *power.Hetero
	multi   bool
	pl      placer
	tracer  obs.Tracer
	met     *refEngineMetrics
	levels  []int
	freeAt  []float64
	npreds  []int
	readyAt []float64
	byOrder []int
	procOf  []int // each pending finish's processor, by task
	events  refEvents
	res     Section
	err     error
	errAt   float64
}

// refEngineMetrics are the instruments the traced loop updated.
type refEngineMetrics struct {
	tasks, dummies, changes *obs.Counter
	exec, idle              *obs.Histogram
	procChanges             []*obs.Counter
}

// refObserve runs one section of tasks on cfg from start through the
// frozen traced loop, task i doing work[i] cycles, emitting to tr and
// updating m (either may be nil).
func refObserve(cfg Config, start float64, tasks []*Task, work []float64, tr obs.Tracer, m *obs.Metrics) (*sectionRun, error) {
	hp := cfg.Hetero
	np := hp.NumProcs()
	rs := &refObsState{cfg: &cfg, start: start, tasks: tasks, work: work, hp: hp, multi: hp.NumClasses() > 1, tracer: tr}
	rs.pl.reset(hp, cfg.Placement)
	rs.levels = make([]int, np)
	if cfg.InitialLevels != nil {
		copy(rs.levels, cfg.InitialLevels)
	} else {
		for i := range rs.levels {
			rs.levels[i] = hp.Class(hp.ClassOf(i)).Plat.MaxIndex()
		}
	}
	if m != nil {
		rs.met = &refEngineMetrics{
			tasks:       m.Counter(MetricTasks),
			dummies:     m.Counter(MetricDummies),
			changes:     m.Counter(MetricSpeedChanges),
			exec:        m.Histogram(MetricExecSeconds, obs.DefaultTimeBuckets),
			idle:        m.Histogram(MetricIdleSeconds, obs.DefaultTimeBuckets),
			procChanges: make([]*obs.Counter, np),
		}
		for i := range rs.met.procChanges {
			rs.met.procChanges[i] = m.Counter(MetricProcSpeedChanges(i))
		}
	}
	n := len(tasks)
	rs.freeAt = make([]float64, np)
	rs.npreds = make([]int, n)
	rs.readyAt = make([]float64, n)
	rs.byOrder = make([]int, n)
	rs.procOf = make([]int, n)
	for i, t := range tasks {
		if !t.Dummy && work[i] > t.WorkW*(1+1e-9) {
			return nil, fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", t.Name, work[i], t.WorkW)
		}
		rs.byOrder[t.Order] = i
		rs.npreds[i] = len(t.Preds)
	}
	res := &rs.res
	res.BusyTime = make([]float64, np)
	res.OverheadTime = make([]float64, np)
	res.ClassActiveEnergy = make([]float64, hp.NumClasses())
	res.ClassOverheadEnergy = make([]float64, hp.NumClasses())
	res.Finish = start
	for i := range rs.freeAt {
		rs.freeAt[i] = start
	}
	for i := range rs.readyAt {
		rs.readyAt[i] = start
	}
	rs.runOrderGate()
	if rs.err != nil {
		return nil, rs.err
	}
	if m != nil {
		for i := 0; i < np; i++ {
			m.Gauge(MetricProcBusy(i)).Add(res.BusyTime[i])
			m.Gauge(MetricProcOverhead(i)).Add(res.OverheadTime[i])
		}
	}
	return &sectionRun{Section: res, FinalLevels: rs.levels}, nil
}

func (rs *refObsState) runOrderGate() {
	tasks := rs.tasks
	m := rs.hp.NumProcs()
	gate := rs.start
	for k, ti := range rs.byOrder {
		if rs.npreds[ti] != 0 {
			if rs.err == nil {
				rs.err = fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", len(tasks)-k)
			}
			break
		}
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
		if rs.tracer != nil {
			rs.traceFinishes(now)
		}
		finish := rs.issue(ti, proc, ci, now)
		if finish > rs.res.Finish {
			rs.res.Finish = finish
		}
		if rs.tracer != nil {
			if finish == now {
				rs.traceFinish(proc, ti, now)
			} else {
				rs.procOf[ti] = proc
				heap.Push(&rs.events, refEvent{time: finish, seq: k, task: ti})
			}
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
	if rs.tracer != nil {
		rs.traceFinishes(math.Inf(1))
	}
}

func (rs *refObsState) traceFinishes(at float64) {
	for len(rs.events) > 0 && rs.events[0].time <= at {
		ev := heap.Pop(&rs.events).(refEvent)
		rs.traceFinish(rs.procOf[ev.task], ev.task, ev.time)
	}
}

func (rs *refObsState) traceFinish(proc, task int, at float64) {
	t := rs.tasks[task]
	rs.tracer.Event(obs.Event{
		Kind: obs.EvTaskFinish, Time: at, Proc: proc,
		Task: task, Node: t.Node, Name: t.Name,
		Level: rs.levels[proc], Prev: rs.levels[proc],
	})
}

func (rs *refObsState) issue(ti, proc, ci int, now float64) float64 {
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
			lvl = cfg.Policy.PickLevel(t, t.LFT, now, cur, ci)
		}
		if lvl != cur {
			changeT = cfg.Overheads.ChangeTime(lv[cur], lv[lvl])
			res.SpeedChanges++
		}
	}
	var execT float64
	if w := rs.work[ti]; w > 0 {
		execT = w / c.Rate(lvl)
	}
	start := now + compT + changeT
	finish := start + execT
	if rs.tracer != nil {
		if idle := now - rs.freeAt[proc]; idle > 0 {
			rs.tracer.Event(obs.Event{
				Kind: obs.EvIdle, Time: now, Proc: proc,
				Task: -1, Node: -1, Value: idle,
			})
		}
		rs.tracer.Event(obs.Event{
			Kind: obs.EvTaskDispatch, Time: now, Proc: proc,
			Task: ti, Node: t.Node, Name: t.Name,
			Level: lvl, Prev: cur, Value: compT + changeT,
		})
		if lvl != cur {
			rs.tracer.Event(obs.Event{
				Kind: obs.EvSpeedChange, Time: now, Proc: proc,
				Task: ti, Node: t.Node, Name: t.Name,
				Level: lvl, Prev: cur, Value: changeT,
			})
		}
	}
	if rs.met != nil {
		if t.Dummy {
			rs.met.dummies.Inc()
		} else {
			rs.met.tasks.Inc()
			rs.met.exec.Observe(execT)
		}
		if lvl != cur {
			rs.met.changes.Inc()
			rs.met.procChanges[proc].Inc()
		}
		if idle := now - rs.freeAt[proc]; idle > 0 {
			rs.met.idle.Observe(idle)
		}
	}
	res.Records = append(res.Records, Record{
		Task: ti, Proc: proc,
		Dispatch: now, Start: start, Finish: finish,
		Level: lvl, CompOH: compT, ChangeOH: changeT,
	})
	res.BusyTime[proc] += execT
	res.OverheadTime[proc] += compT + changeT
	rs.levels[proc] = lvl
	rs.freeAt[proc] = finish
	return finish
}

// snapshotBits renders a metrics snapshot with every float bit for bit.
func snapshotBits(s obs.Snapshot) string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %x\n", g.Name, math.Float64bits(g.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s %d %x %v %v\n", h.Name, h.Count, math.Float64bits(h.Sum), h.Bounds, h.Counts)
	}
	return b.String()
}

// eventsIdentical reports the first difference between two event streams,
// times and values compared bit for bit, or "" when they are identical.
func eventsIdentical(got, want []obs.Event) string {
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				return fmt.Sprintf("event %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		return fmt.Sprintf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Time) != math.Float64bits(want[i].Time) ||
			math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return fmt.Sprintf("event %d: got %+v, want %+v (bits)", i, got[i], want[i])
		}
	}
	return ""
}

// FuzzObserveDifferential requires the observation of a run to be the one
// the frozen traced loop (refObserve) produces: on every decoded workload,
// run as two chained sections (the second at half the actual work, from
// the first's finish and final levels), the event stream must be equal
// event for event, times bit for bit, and the metrics snapshot equal
// bit for bit. Workloads either side rejects must be rejected by both. It
// is seeded with FuzzEngineArenaDifferential's seeds.
func FuzzObserveDifferential(f *testing.F) {
	for _, data := range engineSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, start, tasks, work, _, ok := decodeWorkload(data)
		if !ok {
			t.Skip()
		}
		prog, err := compile(cfg.Hetero, tasks)
		if err != nil {
			t.Skip()
		}
		steps := make([]Step, 2)
		for s, scale := range []float64{1, 0.5} {
			steps[s] = Step{Prog: prog, Work: make([]float64, len(work))}
			for i, w := range work {
				steps[s].Work[i] = w * scale
			}
		}

		refCol, refMet := obs.NewCollector(), obs.NewMetrics()
		refCfg, refStart := cfg, start
		refOK := true
		for _, step := range steps {
			res, err := refObserve(refCfg, refStart, tasks, step.Work, refCol, refMet)
			if err != nil {
				refOK = false
				break
			}
			refStart = res.Finish
			refCfg.InitialLevels = slices.Clone(res.FinalLevels)
		}

		col, met := obs.NewCollector(), obs.NewMetrics()
		gotOK := observeRun(cfg, start, steps, col, met)
		if gotOK != refOK {
			t.Fatalf("observed run ok=%v, reference ok=%v", gotOK, refOK)
		}
		if !refOK {
			return
		}
		if diff := eventsIdentical(col.Events(), refCol.Events()); diff != "" {
			t.Fatal(diff)
		}
		if got, want := snapshotBits(met.Snapshot()), snapshotBits(refMet.Snapshot()); got != want {
			t.Fatalf("metrics differ:\n got %s\nwant %s", got, want)
		}
	})
}

// observeRun runs steps as one recorded run from start, with one Observer
// over its sections, and reports whether the run succeeded.
func observeRun(cfg Config, start float64, steps []Step, tr obs.Tracer, m *obs.Metrics) bool {
	cfg.Record = true
	res, err := NewArena().runFrom(&cfg, start, steps)
	if err != nil {
		return false
	}
	var o Observer
	o.Begin(cfg.Hetero, initialLevels(&cfg), tr, m)
	for k := range steps {
		o.Section(steps[k], &res.Sections[k], nil)
	}
	return true
}
