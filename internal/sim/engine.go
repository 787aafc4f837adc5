package sim

import (
	"fmt"
	"math"
	"sort"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

// engineMetrics holds the engine's pre-resolved instruments so the dispatch
// loop never takes the registry lock or formats metric names.
type engineMetrics struct {
	tasks, dummies, changes *obs.Counter
	exec, idle              *obs.Histogram
	procChanges             []*obs.Counter
}

func newEngineMetrics(m *obs.Metrics, procs int) *engineMetrics {
	em := &engineMetrics{
		tasks:       m.Counter(MetricTasks),
		dummies:     m.Counter(MetricDummies),
		changes:     m.Counter(MetricSpeedChanges),
		exec:        m.Histogram(MetricExecSeconds, obs.DefaultTimeBuckets),
		idle:        m.Histogram(MetricIdleSeconds, obs.DefaultTimeBuckets),
		procChanges: make([]*obs.Counter, procs),
	}
	for i := range em.procChanges {
		em.procChanges[i] = m.Counter(MetricProcSpeedChanges(i))
	}
	return em
}

// Run simulates the execution of one program section's tasks on the
// configured multiprocessor and returns the schedule and energy breakdown.
// It is deterministic: identical inputs produce identical results.
//
// It returns an error when the input cannot execute to completion —
// cyclic dependences, an Order field that is not a permutation of 0..n-1
// in ByOrder mode, or inconsistent Preds/Succs.
//
// Run allocates fresh state per call, so the Result is independent of later
// calls. Hot loops that run many simulations should hold an Arena and call
// (*Arena).Run, which reuses the scratch state and allocates nothing in the
// steady state.
func Run(cfg Config, tasks []*Task) (*Result, error) {
	var rs runState
	return rs.run(cfg, tasks)
}

// runState is the engine's complete per-run scratch state. A fresh zero
// value is used by the package-level Run; an Arena retains one across runs
// so that its buffers are reused. All slices are resized (never shrunk) at
// the start of each run.
type runState struct {
	cfg    Config
	tasks  []*Task
	hp     *power.Hetero
	place  PlacementPolicy
	views  []ProcView // placement scratch
	tracer obs.Tracer
	met    *engineMetrics

	levels []int
	busy   []bool
	freeAt []float64
	npreds []int
	seen   []bool // checkTasks order-permutation scratch

	rq        readyQueue
	events    eventHeap
	seq       int
	remaining int
	now       float64

	res         Result
	dispatchErr error
}

func (rs *runState) run(cfg Config, tasks []*Task) (*Result, error) {
	hp := cfg.Hetero
	if hp == nil {
		return nil, fmt.Errorf("sim: no machine configured (Config.Hetero is nil)")
	}
	m := hp.NumProcs()
	if cfg.InitialLevels != nil {
		if len(cfg.InitialLevels) != m {
			return nil, fmt.Errorf("sim: processor count %d disagrees with len(InitialLevels)=%d",
				m, len(cfg.InitialLevels))
		}
		for ci := 0; ci < hp.NumClasses(); ci++ {
			c := hp.Class(ci)
			first, end := c.Procs()
			for i, lv := range cfg.InitialLevels[first:end] {
				if n := c.Plat.NumLevels(); lv < 0 || lv >= n {
					return nil, fmt.Errorf("sim: InitialLevels[%d]=%d outside the platform's %d levels (class %q)",
						first+i, lv, n, c.Name)
				}
			}
		}
	}
	if err := rs.checkTasks(cfg, tasks); err != nil {
		return nil, err
	}

	rs.cfg = cfg
	rs.tasks = tasks
	rs.hp = hp
	rs.place = cfg.Placement
	if rs.place == nil {
		rs.place = FastestFirst
	}
	if cap(rs.views) < m {
		rs.views = make([]ProcView, 0, m)
	}

	// Processor state. The copy below is safe even when InitialLevels
	// aliases a previous run's FinalLevels from this same arena: ensureInts
	// preserves the backing array's contents.
	rs.levels = ensureInts(rs.levels, m)
	if cfg.InitialLevels != nil {
		copy(rs.levels, cfg.InitialLevels)
	} else {
		for i := range rs.levels {
			rs.levels[i] = hp.Class(hp.ClassOf(i)).Plat.MaxIndex()
		}
	}
	rs.busy = ensureBools(rs.busy, m)
	rs.freeAt = ensureFloats(rs.freeAt, m)
	for i := range rs.freeAt {
		rs.freeAt[i] = cfg.Start
	}

	res := &rs.res
	res.Records = res.Records[:0]
	res.BusyTime = ensureFloats(res.BusyTime, m)
	res.OverheadTime = ensureFloats(res.OverheadTime, m)
	for i := 0; i < m; i++ {
		res.BusyTime[i] = 0
		res.OverheadTime[i] = 0
	}
	res.Finish = cfg.Start
	res.ActiveEnergy = 0
	res.OverheadEnergy = 0
	nc := hp.NumClasses()
	res.ClassActiveEnergy = ensureFloats(res.ClassActiveEnergy, nc)
	res.ClassOverheadEnergy = ensureFloats(res.ClassOverheadEnergy, nc)
	for i := 0; i < nc; i++ {
		res.ClassActiveEnergy[i] = 0
		res.ClassOverheadEnergy[i] = 0
	}
	res.SpeedChanges = 0
	res.FinalLevels = nil
	res.Metrics = nil

	// Observability: both hooks are nil-gated so the default run pays one
	// pointer comparison per hook point and allocates nothing.
	rs.tracer = cfg.Tracer
	rs.met = nil
	if cfg.Metrics != nil {
		rs.met = newEngineMetrics(cfg.Metrics, m)
	}

	// Dependence bookkeeping.
	rs.npreds = ensureInts(rs.npreds, len(tasks))
	rs.rq.reset(cfg.Mode, tasks)
	for i, t := range tasks {
		rs.npreds[i] = len(t.Preds)
		if len(t.Preds) == 0 {
			rs.rq.push(i)
		}
	}

	rs.events.h = rs.events.h[:0]
	rs.seq = 0
	rs.remaining = len(tasks)
	rs.now = cfg.Start
	rs.dispatchErr = nil

	rs.dispatch()
	for rs.remaining > 0 {
		if rs.dispatchErr != nil {
			return nil, rs.dispatchErr
		}
		ev, ok := rs.events.pop()
		if !ok {
			return nil, fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", rs.remaining)
		}
		rs.now = ev.time
		rs.complete(ev.proc, ev.task, ev.time)
		// Drain every completion at this same instant before dispatching,
		// so that simultaneously freed processors compete for the next
		// task deterministically (idle-longest first, ties by index).
		for {
			next, ok := rs.events.peek()
			if !ok || next.time != rs.now {
				break
			}
			ev, _ = rs.events.pop()
			rs.complete(ev.proc, ev.task, ev.time)
		}
		if rs.dispatchErr != nil {
			return nil, rs.dispatchErr
		}
		rs.dispatch()
	}
	if rs.dispatchErr != nil {
		return nil, rs.dispatchErr
	}

	res.FinalLevels = rs.levels
	if cfg.Metrics != nil {
		for i := 0; i < m; i++ {
			cfg.Metrics.Gauge(MetricProcBusy(i)).Add(res.BusyTime[i])
			cfg.Metrics.Gauge(MetricProcOverhead(i)).Add(res.OverheadTime[i])
		}
		snap := cfg.Metrics.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// complete marks task's execution on proc finished at time at, releasing
// the processor and its successors.
func (rs *runState) complete(proc, task int, at float64) {
	tasks := rs.tasks
	if rs.tracer != nil {
		rs.tracer.Event(obs.Event{
			Kind: obs.EvTaskFinish, Time: at, Proc: proc,
			Task: task, Node: tasks[task].Node, Name: tasks[task].Name,
			Level: rs.levels[proc], Prev: rs.levels[proc],
		})
	}
	rs.busy[proc] = false
	rs.freeAt[proc] = at
	if at > rs.res.Finish {
		rs.res.Finish = at
	}
	for _, s := range tasks[task].Succs {
		rs.npreds[s]--
		if rs.npreds[s] == 0 {
			rs.rq.push(s)
		}
		if rs.npreds[s] < 0 && rs.dispatchErr == nil {
			rs.dispatchErr = fmt.Errorf("sim: task %q completed more predecessors than it has", tasks[s].Name)
		}
	}
	rs.remaining--
}

// idleLongest returns the idle processor in [first, end) that has been
// idle longest (lowest freeAt, ties by index), or -1.
func (rs *runState) idleLongest(first, end int) int {
	best := -1
	for i := first; i < end; i++ {
		if !rs.busy[i] && (best == -1 || rs.freeAt[i] < rs.freeAt[best]) {
			best = i
		}
	}
	return best
}

// placeProc asks the placement policy to pick among all idle processors
// and returns the processor and its class, or -1 and class 0 when none is
// idle.
func (rs *runState) placeProc(t *Task) (proc, class int) {
	views := rs.views[:0]
	for ci := 0; ci < rs.hp.NumClasses(); ci++ {
		c := rs.hp.Class(ci)
		first, end := c.Procs()
		for i := first; i < end; i++ {
			if !rs.busy[i] {
				views = append(views, ProcView{
					Proc: i, Class: ci, FreeAt: rs.freeAt[i],
					EffFmax: c.EffFmax(), EnergyPerCycle: c.EnergyPerCycle(),
				})
			}
		}
	}
	rs.views = views
	if len(views) == 0 {
		return -1, 0
	}
	k := rs.place.Pick(t, rs.now, views)
	if k < 0 || k >= len(views) {
		panic(fmt.Sprintf("sim: placement %q returned pick %d of %d eligible", rs.place.Name(), k, len(views)))
	}
	return views[k].Proc, views[k].Class
}

// dispatch assigns ready tasks to idle processors until one side runs out.
// All frequency, power and overhead arithmetic uses the processor class's
// own DVS table, with work retiring at the effective rate Speed·f.
func (rs *runState) dispatch() {
	cfg := &rs.cfg
	res := &rs.res
	for {
		ti, ok := rs.rq.peek()
		if !ok {
			return
		}
		t := rs.tasks[ti]
		// Online (ByOrder) computation tasks are pinned to their canonical
		// class: within a class the processors are identical, so the
		// paper's Theorem-1 induction applies class by class and no task
		// starts after its class-relative latest start time. Admitting any
		// other class online — even a strictly faster one — is unsafe: a
		// task migrated up and slowed to its (slow-class-derived) latest
		// finish time squats on a fast processor that later tasks'
		// canonical schedule needs, and the lateness cascades (a Graham
		// timing anomaly). A pinned task therefore waits for its own class
		// even while others idle; its class must free up, because it is
		// running strictly earlier-ordered tasks. Every placement policy
		// ranks identical processors by idle time alone, so the pick is the
		// class's idle-longest processor and the policy is not consulted.
		// Canonical (ByPriority) runs — where the placement shapes the
		// schedule and each task's class is decided — and zero-work dummy
		// barrier tasks admit every processor, and the placement picks.
		var proc, ci int
		var c *power.Class
		if cfg.Mode == ByOrder && !t.Dummy {
			ci = t.CanonClass
			c = rs.hp.Class(ci)
			proc = rs.idleLongest(c.Procs())
		} else {
			proc, ci = rs.placeProc(t)
			c = rs.hp.Class(ci)
		}
		if proc < 0 {
			return
		}
		rs.rq.pop()
		plat := c.Plat
		lv := plat.Levels()
		now := rs.now
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
		if finish == now {
			// Instantaneous work (synchronization nodes): the paper's
			// scheduler handles them and immediately looks for the
			// next task, so the processor never appears busy.
			rs.complete(proc, ti, now)
			if rs.dispatchErr != nil {
				return
			}
			continue
		}
		rs.busy[proc] = true
		rs.events.push(event{time: finish, seq: rs.seq, proc: proc, task: ti})
		rs.seq++
	}
}

func (rs *runState) checkTasks(cfg Config, tasks []*Task) error {
	n := len(tasks)
	byOrder := cfg.Mode == ByOrder
	if byOrder {
		rs.seen = ensureBools(rs.seen, n)
	}
	nc := cfg.Hetero.NumClasses()
	for _, t := range tasks {
		if byOrder {
			if t.Order < 0 || t.Order >= n || rs.seen[t.Order] {
				return fmt.Errorf("sim: task %q has invalid or duplicate order %d", t.Name, t.Order)
			}
			rs.seen[t.Order] = true
			if !t.Dummy && (t.CanonClass < 0 || t.CanonClass >= nc) {
				return fmt.Errorf("sim: task %q pinned to class %d of a %d-class machine", t.Name, t.CanonClass, nc)
			}
		}
		if !t.Dummy && t.WorkA > t.WorkW*(1+1e-9) {
			return fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", t.Name, t.WorkA, t.WorkW)
		}
		for _, p := range t.Preds {
			if p < 0 || p >= n {
				return fmt.Errorf("sim: task %q has out-of-range predecessor %d", t.Name, p)
			}
		}
		for _, s := range t.Succs {
			if s < 0 || s >= n {
				return fmt.Errorf("sim: task %q has out-of-range successor %d", t.Name, s)
			}
		}
	}
	return nil
}

// event is a task-completion event.
type event struct {
	time float64
	seq  int // FIFO tie-break for simultaneous events
	proc int
	task int
}

// eventHeap is a binary min-heap of events ordered by (time, seq).
type eventHeap struct{ h []event }

func (e *eventHeap) less(i, j int) bool {
	if e.h[i].time != e.h[j].time {
		return e.h[i].time < e.h[j].time
	}
	return e.h[i].seq < e.h[j].seq
}

func (e *eventHeap) push(ev event) {
	e.h = append(e.h, ev)
	i := len(e.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.h[i], e.h[parent] = e.h[parent], e.h[i]
		i = parent
	}
}

func (e *eventHeap) peek() (event, bool) {
	if len(e.h) == 0 {
		return event{}, false
	}
	return e.h[0], true
}

func (e *eventHeap) pop() (event, bool) {
	if len(e.h) == 0 {
		return event{}, false
	}
	top := e.h[0]
	last := len(e.h) - 1
	e.h[0] = e.h[last]
	e.h = e.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.h) && e.less(l, small) {
			small = l
		}
		if r < len(e.h) && e.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		e.h[i], e.h[small] = e.h[small], e.h[i]
		i = small
	}
	return top, true
}

// readyQueue is the global ready queue. In ByOrder mode only the task with
// the next expected execution order is dispatchable (the order gate); in
// ByPriority mode the longest ready task goes first.
type readyQueue struct {
	mode  Mode
	tasks []*Task

	// ByOrder: readyByOrder[o] is the index of the ready task with order o.
	readyByOrder []int
	nextOrder    int

	// ByPriority: pq[pqHead:] is the sorted queue of ready task indices,
	// longest WCET first, ties by node ID then arrival. The head index
	// replaces re-slicing on pop so the backing array survives reuse.
	pq     []int
	pqHead int
}

// reset prepares the queue for a new run, reusing buffers.
func (rq *readyQueue) reset(mode Mode, tasks []*Task) {
	rq.mode = mode
	rq.tasks = tasks
	rq.nextOrder = 0
	rq.pq = rq.pq[:0]
	rq.pqHead = 0
	if mode == ByOrder {
		rq.readyByOrder = ensureInts(rq.readyByOrder, len(tasks))
		for i := range rq.readyByOrder {
			rq.readyByOrder[i] = -1
		}
	}
}

func (rq *readyQueue) push(ti int) {
	if rq.mode == ByOrder {
		rq.readyByOrder[rq.tasks[ti].Order] = ti
		return
	}
	// Ordered insertion: place ti before the first queued task it must
	// precede (strictly longer WCET, ties by lower node ID), after any
	// equal tasks — exactly where a stable sort of the appended element
	// would land it. The queue is sorted under this strict weak ordering,
	// so "t precedes pq[i]" is monotone in i and sort.Search finds the
	// same position the linear scan did, in O(log n) comparisons.
	t := rq.tasks[ti]
	n := len(rq.pq) - rq.pqHead
	pos := rq.pqHead + sort.Search(n, func(i int) bool {
		o := rq.tasks[rq.pq[rq.pqHead+i]]
		return t.WorkW > o.WorkW || (t.WorkW == o.WorkW && t.Node < o.Node)
	})
	rq.pq = append(rq.pq, 0)
	copy(rq.pq[pos+1:], rq.pq[pos:])
	rq.pq[pos] = ti
}

// peek returns the next dispatchable task, honoring the order gate.
func (rq *readyQueue) peek() (int, bool) {
	if rq.mode == ByOrder {
		if rq.nextOrder >= len(rq.readyByOrder) {
			return 0, false
		}
		ti := rq.readyByOrder[rq.nextOrder]
		if ti < 0 {
			return 0, false
		}
		return ti, true
	}
	if rq.pqHead >= len(rq.pq) {
		return 0, false
	}
	return rq.pq[rq.pqHead], true
}

func (rq *readyQueue) pop() {
	if rq.mode == ByOrder {
		rq.nextOrder++
		return
	}
	rq.pqHead++
}
