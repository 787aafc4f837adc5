package sim

import (
	"fmt"
	"sort"

	"andorsched/internal/power"
)

// ListSchedule is a section's canonical longest-task-first list schedule,
// from time 0 with every class at its maximum speed: what the off-line
// phase reads from a canonical schedule.
type ListSchedule struct {
	Order            []int     // task indices in dispatch order
	Proc             []int     // each task's processor, by task
	Dispatch, Finish []float64 // each task's dispatch and finish time, by task
	Makespan         float64   // the latest finish, 0 for no tasks
}

// ListScheduler builds canonical list schedules from reused scratch: once
// grown to the largest section, Schedule allocates nothing. The zero value
// is ready to use. A ListScheduler is not safe for concurrent use.
type ListScheduler struct {
	sched  ListSchedule
	work   []float64
	npreds []int // predecessors not yet released through Succs
	freeAt []float64
	pl     placer
	// The ready queue, the pending completions and the clock.
	rq             readyQueue
	events         eventHeap
	seq, remaining int
	now            float64
	// ints and floats back the per-task and per-processor slices, so that
	// a larger section grows two buffers.
	ints   []int
	floats []float64
}

// Schedule builds the list schedule of tasks on machine hp, task i running
// work[i] cycles (one entry per task) at its class's maximum rate.
// Whenever processors are idle, the ready task with the longest WorkW (ties
// by Node, then by the order tasks became ready) goes to the processor
// place (nil is FastestFirst) picks among those idle at that instant; time
// then advances to the next completion. All completions at one instant
// release their successors before the next dispatch, and a task that takes
// no time completes as it is dispatched. Only the tasks' Node, Name, WorkW,
// Preds and Succs, and what place reads, are used: an average-case
// schedule is still ranked by the worst case. Schedule reports Preds or
// Succs out of range, a deadlock and a task released more often than it
// has predecessors. The schedule returned is the scheduler's, valid until
// the next call.
func (l *ListScheduler) Schedule(hp *power.Hetero, place PlacementPolicy, tasks []Task, work []float64) (*ListSchedule, error) {
	n := len(tasks)
	l.size(n, hp.NumProcs())
	for i := range tasks {
		l.npreds[i] = len(tasks[i].Preds)
		if err := checkLinks(&tasks[i], n); err != nil {
			return nil, err
		}
	}
	l.work, l.rq.tasks = work, tasks
	l.pl.reset(hp, place)
	for i := range tasks {
		if l.npreds[i] == 0 {
			l.rq.push(i)
		}
	}
	if err := l.run(); err != nil {
		return nil, err
	}
	return &l.sched, nil
}

// size cuts the scratch for n tasks on m processors from the two buffers,
// growing them if needed, and resets the schedule, the queues and the
// clock. Each slice is cut with a full slice expression, so that an append
// past its share would reallocate rather than overwrite the next; none
// goes past it: each task is queued and dispatched once, and a processor
// has at most one pending completion.
func (l *ListScheduler) size(n, m int) {
	if cap(l.ints) < 4*n {
		l.ints = make([]int, 4*n)
	}
	if cap(l.floats) < m+2*n {
		l.floats = make([]float64, m+2*n)
	}
	if cap(l.events.h) < m {
		l.events.h = make([]event, 0, m)
	}
	ints, floats, s := l.ints, l.floats, &l.sched
	s.Order, s.Proc = ints[:0:n], ints[n:2*n:2*n]
	l.npreds, l.rq.pq, l.rq.pqHead = ints[2*n:3*n:3*n], ints[3*n:3*n:4*n], 0
	l.freeAt, s.Dispatch, s.Finish = floats[:m:m], floats[m:m+n:m+n], floats[m+n:m+2*n:m+2*n]
	clear(l.freeAt)
	l.events.h = l.events.h[:0]
	s.Makespan, l.seq, l.remaining, l.now = 0, 0, n, 0
}

// run is the discrete-event loop: it dispatches ready tasks to idle
// processors until either runs out, then completes every task finishing
// at the next completion instant, until every task has completed.
func (l *ListScheduler) run() error {
	for {
		for {
			ti, ok := l.rq.peek()
			if !ok {
				break
			}
			proc, ci := l.pl.pick(&l.rq.tasks[ti], l.now, l.freeAt)
			if proc < 0 {
				break
			}
			l.rq.pop()
			c := l.pl.hp.Class(ci)
			finish := l.now
			if w := l.work[ti]; w > 0 {
				finish += w / c.Rate(c.Plat.MaxIndex())
			}
			s := &l.sched
			s.Order = append(s.Order, ti)
			s.Proc[ti], s.Dispatch[ti], s.Finish[ti] = proc, l.now, finish
			l.freeAt[proc] = finish
			if finish != l.now {
				l.events.push(event{time: finish, seq: l.seq, task: ti})
				l.seq++
			} else if err := l.complete(ti); err != nil { // the processor stays idle
				return err
			}
		}
		if l.remaining == 0 {
			return nil
		}
		ev, ok := l.events.pop()
		if !ok {
			return fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", l.remaining)
		}
		for l.now = ev.time; ; ev, _ = l.events.pop() {
			if err := l.complete(ev.task); err != nil {
				return err
			}
			if next, ok := l.events.peek(); !ok || next.time != l.now {
				break
			}
		}
	}
}

// complete marks task ti finished now, releasing its successors.
func (l *ListScheduler) complete(ti int) error {
	if l.now > l.sched.Makespan {
		l.sched.Makespan = l.now
	}
	l.remaining--
	for _, s := range l.rq.tasks[ti].Succs {
		l.npreds[s]--
		if l.npreds[s] == 0 {
			l.rq.push(s)
		}
		if l.npreds[s] < 0 {
			return fmt.Errorf("sim: task %q completed more predecessors than it has", l.rq.tasks[s].Name)
		}
	}
	return nil
}

// placer asks a placement policy to pick among the processors idle at an
// instant, from reused view scratch.
type placer struct {
	hp    *power.Hetero
	place PlacementPolicy
	views []ProcView
}

// reset sets the machine and the policy, nil meaning FastestFirst.
func (p *placer) reset(hp *power.Hetero, place PlacementPolicy) {
	if place == nil {
		place = FastestFirst
	}
	p.hp, p.place = hp, place
	if m := hp.NumProcs(); cap(p.views) < m {
		p.views = make([]ProcView, 0, m)
	}
}

// pick returns the processor the policy picks for t among those idle at
// now (freeAt ≤ now) and its class, or -1 and class 0 when none is idle.
func (p *placer) pick(t *Task, now float64, freeAt []float64) (proc, class int) {
	views := p.views[:0]
	for ci := 0; ci < p.hp.NumClasses(); ci++ {
		c := p.hp.Class(ci)
		first, end := c.Procs()
		for i := first; i < end; i++ {
			if freeAt[i] <= now {
				views = append(views, ProcView{
					Proc: i, Class: ci, FreeAt: freeAt[i],
					EffFmax: c.EffFmax(), EnergyPerCycle: c.EnergyPerCycle(),
				})
			}
		}
	}
	p.views = views
	if len(views) == 0 {
		return -1, 0
	}
	k := p.place.Pick(t, now, views)
	if k < 0 || k >= len(views) {
		panic(fmt.Sprintf("sim: placement %q returned pick %d of %d eligible", p.place.Name(), k, len(views)))
	}
	return views[k].Proc, views[k].Class
}

// readyQueue is the list scheduler's ready queue. pq[pqHead:] holds the
// ready task indices sorted longest WCET first, ties by node ID then
// arrival; popping advances pqHead, so the backing array survives reuse.
type readyQueue struct {
	tasks  []Task
	pq     []int
	pqHead int
}

// push inserts ti before the first queued task it must precede (strictly
// longer WCET, ties by lower node ID), after any equal ones: where a stable
// sort would land it. "ti precedes pq[i]" is monotone in i over the sorted
// queue, so sort.Search finds that position.
func (rq *readyQueue) push(ti int) {
	t := &rq.tasks[ti]
	pos := rq.pqHead + sort.Search(len(rq.pq)-rq.pqHead, func(i int) bool {
		o := &rq.tasks[rq.pq[rq.pqHead+i]]
		return t.WorkW > o.WorkW || (t.WorkW == o.WorkW && t.Node < o.Node)
	})
	rq.pq = append(rq.pq, 0)
	copy(rq.pq[pos+1:], rq.pq[pos:])
	rq.pq[pos] = ti
}

// peek returns the next task to dispatch.
func (rq *readyQueue) peek() (int, bool) {
	if rq.pqHead >= len(rq.pq) {
		return 0, false
	}
	return rq.pq[rq.pqHead], true
}

func (rq *readyQueue) pop() { rq.pqHead++ }

// event is a list schedule's pending completion.
type event struct {
	time float64
	seq  int // FIFO tie-break for simultaneous events
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
