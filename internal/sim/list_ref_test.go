package sim

import (
	"container/heap"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// The frozen reference for canonical list schedules: the discrete-event
// loop the engine ran canonical sections with, copied as the off-line
// phase ran it — no level policy, zero overheads, no tracer or metrics,
// from time 0, task i doing work[i] cycles — with the structural checks
// that ran before it. Only the energy and overhead accounting, which such
// a run never reads, is left out of issue. The completion heap is
// container/heap over the same (time, seq) keys, so the reference shares no
// code with the scheduler it checks. Do not change it to follow the code
// under test: it is the contract.

// refListState is the event loop's scratch state.
type refListState struct {
	hp     *power.Hetero
	place  PlacementPolicy
	tasks  []*Task
	work   []float64
	levels []int
	freeAt []float64
	npreds []int

	rq        refReadyQueue
	events    refEvents
	seq       int
	remaining int
	now       float64

	records []Record
	finish  float64
	err     error
}

// refListSchedule runs tasks as one canonical section on hp with the
// placement place (nil is FastestFirst) and returns its records in
// dispatch order and its length, or the first error.
func refListSchedule(hp *power.Hetero, place PlacementPolicy, tasks []*Task, work []float64) ([]Record, float64, error) {
	n := len(tasks)
	rs := &refListState{hp: hp, place: place, tasks: tasks, work: work, npreds: make([]int, n)}
	if rs.place == nil {
		rs.place = FastestFirst
	}
	for i, t := range tasks {
		if !t.Dummy && work[i] > t.WorkW*(1+1e-9) {
			return nil, 0, fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", t.Name, work[i], t.WorkW)
		}
		rs.npreds[i] = len(t.Preds)
		for _, pr := range t.Preds {
			if pr < 0 || pr >= n {
				return nil, 0, fmt.Errorf("sim: task %q has out-of-range predecessor %d", t.Name, pr)
			}
		}
		for _, s := range t.Succs {
			if s < 0 || s >= n {
				return nil, 0, fmt.Errorf("sim: task %q has out-of-range successor %d", t.Name, s)
			}
		}
	}
	m := hp.NumProcs()
	rs.levels = make([]int, m)
	for i := range rs.levels {
		rs.levels[i] = hp.Class(hp.ClassOf(i)).Plat.MaxIndex()
	}
	rs.freeAt = make([]float64, m)
	rs.runByPriority()
	if rs.err != nil {
		return nil, 0, rs.err
	}
	return rs.records, rs.finish, nil
}

// runByPriority is the canonical discipline as a discrete-event loop:
// whenever processors are idle, the longest ready task goes to the one the
// placement picks; time advances to the next completion.
func (rs *refListState) runByPriority() {
	rs.rq.reset(rs.tasks)
	for i := range rs.tasks {
		if rs.npreds[i] == 0 {
			rs.rq.push(i)
		}
	}
	rs.remaining = len(rs.tasks)
	rs.dispatch()
	for rs.remaining > 0 && rs.err == nil {
		if rs.events.Len() == 0 {
			rs.err = fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", rs.remaining)
			return
		}
		ev := heap.Pop(&rs.events).(refEvent)
		rs.now = ev.time
		rs.complete(ev.task, ev.time)
		// Drain every completion at this same instant before dispatching,
		// so that simultaneously freed processors compete for the next
		// task deterministically.
		for rs.events.Len() > 0 && rs.events[0].time == rs.now {
			ev = heap.Pop(&rs.events).(refEvent)
			rs.complete(ev.task, ev.time)
		}
		if rs.err == nil {
			rs.dispatch()
		}
	}
}

// dispatch assigns ready tasks to idle processors until one side runs out.
func (rs *refListState) dispatch() {
	for {
		ti, ok := rs.rq.peek()
		if !ok {
			return
		}
		proc, ci := rs.placeProc(rs.tasks[ti], rs.now)
		if proc < 0 {
			return
		}
		rs.rq.pop()
		finish := rs.issue(ti, proc, ci, rs.now)
		if finish == rs.now {
			// Instantaneous work (synchronization nodes): the scheduler
			// handles them and immediately looks for the next task, so
			// the processor never appears busy.
			rs.complete(ti, rs.now)
			if rs.err != nil {
				return
			}
			continue
		}
		heap.Push(&rs.events, refEvent{time: finish, seq: rs.seq, task: ti})
		rs.seq++
	}
}

// complete marks task's execution finished at time at, releasing its
// successors.
func (rs *refListState) complete(task int, at float64) {
	if at > rs.finish {
		rs.finish = at
	}
	for _, s := range rs.tasks[task].Succs {
		rs.npreds[s]--
		if rs.npreds[s] == 0 {
			rs.rq.push(s)
		}
		if rs.npreds[s] < 0 && rs.err == nil {
			rs.err = fmt.Errorf("sim: task %q completed more predecessors than it has", rs.tasks[s].Name)
		}
	}
	rs.remaining--
}

// placeProc asks the placement policy to pick among the processors idle
// at now and returns the processor and its class, or -1 and class 0 when
// none is idle.
func (rs *refListState) placeProc(t *Task, now float64) (proc, class int) {
	var views []ProcView
	for ci := 0; ci < rs.hp.NumClasses(); ci++ {
		c := rs.hp.Class(ci)
		first, end := c.Procs()
		for i := first; i < end; i++ {
			if rs.freeAt[i] <= now {
				views = append(views, ProcView{
					Proc: i, Class: ci, FreeAt: rs.freeAt[i],
					EffFmax: c.EffFmax(), EnergyPerCycle: c.EnergyPerCycle(),
				})
			}
		}
	}
	if len(views) == 0 {
		return -1, 0
	}
	k := rs.place.Pick(t, now, views)
	if k < 0 || k >= len(views) {
		panic(fmt.Sprintf("sim: placement %q returned pick %d of %d eligible", rs.place.Name(), k, len(views)))
	}
	return views[k].Proc, views[k].Class
}

// issue dispatches task ti on processor proc of class ci at time now: a
// computation task at its class's maximum level, a dummy at the
// processor's current one, with no overheads to charge. It records the
// execution and marks the processor free at the returned finish time.
func (rs *refListState) issue(ti, proc, ci int, now float64) float64 {
	t := rs.tasks[ti]
	c := rs.hp.Class(ci)
	lvl := rs.levels[proc]
	if !t.Dummy {
		lvl = c.Plat.MaxIndex()
	}
	var execT float64
	if w := rs.work[ti]; w > 0 {
		execT = w / c.Rate(lvl)
	}
	finish := now + execT
	rs.records = append(rs.records, Record{
		Task: ti, Proc: proc, Dispatch: now, Start: now, Finish: finish, Level: lvl,
	})
	rs.levels[proc] = lvl
	rs.freeAt[proc] = finish
	return finish
}

// refEvent is a task-completion event.
type refEvent struct {
	time float64
	seq  int // FIFO tie-break for simultaneous events
	task int
}

// refEvents is a container/heap min-heap of events ordered by (time, seq).
type refEvents []refEvent

func (e refEvents) Len() int { return len(e) }
func (e refEvents) Less(i, j int) bool {
	if e[i].time != e[j].time {
		return e[i].time < e[j].time
	}
	return e[i].seq < e[j].seq
}
func (e refEvents) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e *refEvents) Push(x any)   { *e = append(*e, x.(refEvent)) }
func (e *refEvents) Pop() any {
	old := *e
	x := old[len(old)-1]
	*e = old[:len(old)-1]
	return x
}

// refReadyQueue is the ready queue: the longest ready task goes first.
// pq[pqHead:] is the sorted queue of ready task indices, longest WCET
// first, ties by node ID then arrival.
type refReadyQueue struct {
	tasks  []*Task
	pq     []int
	pqHead int
}

func (rq *refReadyQueue) reset(tasks []*Task) {
	rq.tasks = tasks
	rq.pq = rq.pq[:0]
	rq.pqHead = 0
}

func (rq *refReadyQueue) push(ti int) {
	// Place ti before the first queued task it must precede (strictly
	// longer WCET, ties by lower node ID), after any equal tasks.
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

func (rq *refReadyQueue) peek() (int, bool) {
	if rq.pqHead >= len(rq.pq) {
		return 0, false
	}
	return rq.pq[rq.pqHead], true
}

func (rq *refReadyQueue) pop() { rq.pqHead++ }

// listOut is one list schedule in the scheduler's terms: the dispatch
// order, and each task's processor, dispatch and finish time, by task.
type listOut struct {
	order, proc      []int
	dispatch, finish []float64
	makespan         float64
}

// refListOut is refListSchedule's answer as a listOut.
func refListOut(hp *power.Hetero, place PlacementPolicy, tasks []*Task, work []float64) (listOut, error) {
	recs, span, err := refListSchedule(hp, place, tasks, work)
	if err != nil {
		return listOut{}, err
	}
	out := listOut{proc: make([]int, len(tasks)), dispatch: make([]float64, len(tasks)),
		finish: make([]float64, len(tasks)), makespan: span}
	for _, r := range recs {
		out.order = append(out.order, r.Task)
		out.proc[r.Task], out.dispatch[r.Task], out.finish[r.Task] = r.Proc, r.Dispatch, r.Finish
	}
	return out, nil
}

// diffListOut reports where got differs from want, bit for bit, or "".
func diffListOut(got, want listOut) string {
	if len(got.order) != len(want.order) {
		return fmt.Sprintf("%d tasks dispatched, reference dispatches %d", len(got.order), len(want.order))
	}
	for k := range want.order {
		if got.order[k] != want.order[k] {
			return fmt.Sprintf("dispatch %d: task %d, reference %d", k, got.order[k], want.order[k])
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.proc {
		if got.proc[i] != want.proc[i] || !same(got.dispatch[i], want.dispatch[i]) || !same(got.finish[i], want.finish[i]) {
			return fmt.Sprintf("task %d: proc %d, %v–%v; reference proc %d, %v–%v", i,
				got.proc[i], got.dispatch[i], got.finish[i], want.proc[i], want.dispatch[i], want.finish[i])
		}
	}
	if !same(got.makespan, want.makespan) {
		return fmt.Sprintf("makespan %v, reference %v", got.makespan, want.makespan)
	}
	return ""
}

// listUnderTest runs the canonical schedule of tasks, each task's work
// given by work, through the list scheduler l.
func listUnderTest(l *ListScheduler, hp *power.Hetero, place PlacementPolicy, tasks []*Task, work []float64) (listOut, error) {
	vals := make([]Task, len(tasks))
	for i, t := range tasks {
		vals[i] = *t
	}
	ls, err := l.Schedule(hp, place, vals, work)
	if err != nil {
		return listOut{}, err
	}
	return listOut{order: slices.Clone(ls.Order), proc: slices.Clone(ls.Proc),
		dispatch: slices.Clone(ls.Dispatch), finish: slices.Clone(ls.Finish), makespan: ls.Makespan}, nil
}

// FuzzListScheduleDifferential requires the canonical list scheduler to
// build, on every fuzzed section, the schedule the frozen reference builds:
// the same dispatch order, processors, dispatch and finish times and
// makespan, bit for bit, or the same error text. Each workload runs twice,
// as the off-line phase runs a section: with its worst-case work and with
// its average-case work, both ranked by the worst case. Workloads come from
// decodeWorkload — one to three classes, every placement, affinity tags,
// dummies, zero-work tasks, equal worst cases and, from machine byte 27 on,
// malformed raw links; an m byte from 128 on also gives every two
// consecutive tasks one node ID, so that ties fall through to arrival
// order. The scheduler runs on one reused scratch throughout. The corpus is
// seeded with the raw and padded sections of the Figure-3 synthetic
// application, ATR and radar.andor, multi-class variants of the synthetic
// ones, the malformed chains of TestMalformedPrecedence and node-ID ties.
func FuzzListScheduleDifferential(f *testing.F) {
	for _, data := range canonicalSeeds(f) {
		f.Add(data)
		tie := append([]byte(nil), data...)
		tie[0] |= 128
		f.Add(tie)
	}
	for _, data := range multiClassSeeds(f) {
		f.Add(data)
	}
	for _, data := range malformedChainSeeds() {
		f.Add(data)
	}
	var l ListScheduler
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, _, tasks, avg, raw, ok := decodeWorkload(data)
		if !ok {
			t.Skip()
		}
		if data[0] >= 128 {
			for i, tk := range tasks {
				tk.Node = i / 2
			}
		}
		for _, work := range [][]float64{worst(tasks), avg} {
			want, wantErr := refListOut(cfg.Hetero, cfg.Placement, tasks, work)
			got, err := listUnderTest(&l, cfg.Hetero, cfg.Placement, tasks, work)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference error %v", err, wantErr)
			}
			if err != nil {
				if !raw {
					t.Fatalf("decoded workload rejected: %v", err)
				}
				continue
			}
			if d := diffListOut(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// canonicalSeeds are the raw and padded sections of the Figure-3 synthetic
// application and ATR on two and four processors, and of radar.andor on
// three (graphSectionWorkloads).
func canonicalSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, g := range []*andor.Graph{workload.Synthetic(), workload.ATR(workload.DefaultATRConfig())} {
		for _, m := range []int{2, 4} {
			out = append(out, graphSectionWorkloads(tb, g, m)...)
		}
	}
	if src, err := os.ReadFile("../../workloads/radar.andor"); err == nil {
		if g, err := andor.ParseText(string(src)); err == nil {
			out = append(out, graphSectionWorkloads(tb, g, 3)...)
		}
	}
	return out
}

// multiClassSeeds are multi-class variants of the synthetic application's
// sections on four processors: two and three classes, speeds other than
// 1, every placement, tasks spread over the classes by their flag bits.
func multiClassSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for k, data := range graphSectionWorkloads(tb, workload.Synthetic(), 4) {
		data[1] = byte(3 + 3*(k%2) + 9*(k%3)) // 2 or 3 classes, placement k mod 3
		data[2] |= byte(16 * (1 + k%3))       // speed nibble
		for pos := 4; pos+5 <= len(data); {
			data[pos] |= byte(k+pos) << 1 // canonical class bits
			np := int(data[pos+4] % 16)
			pos += 5 + np
		}
		out = append(out, data)
	}
	return out
}

// malformedChainSeeds are the chain a→b→c on two processors in raw-link
// form, then each malformed case of TestMalformedPrecedence: pred without
// succ, succ without pred, duplicated succ, self-pred, and the chain under
// a reversed dispatch order.
func malformedChainSeeds() [][]byte {
	chain := func(machine, linkB byte, extraB ...byte) []byte {
		data := []byte{1, machine, 1, 2, 0, 0, 10, 255, 0, 0, 0, 20, 255, byte(1 + len(extraB)), linkB}
		data = append(data, extraB...)
		return append(data, 0, 0, 30, 255, 1, 0x01)
	}
	return [][]byte{
		chain(27, 0x01), chain(27, 0x41), chain(27, 0x81),
		chain(27, 0xC1), chain(27, 0x01, 0x00), chain(128, 0x01),
	}
}
