package sim

import (
	"math/rand"
	"strings"
	"testing"

	"andorsched/internal/power"
)

// listSchedule builds the list schedule of tasks on hp, each task running
// for its worst case, on a fresh scheduler.
func listSchedule(hp *power.Hetero, place PlacementPolicy, tasks []*Task) (*ListSchedule, error) {
	vals := make([]Task, len(tasks))
	for i, t := range tasks {
		vals[i] = *t
	}
	var l ListScheduler
	return l.Schedule(hp, place, vals, worst(tasks))
}

func TestLTFPriority(t *testing.T) {
	// Three ready tasks, one processor: longest goes first.
	tasks := []*Task{
		task("short", 100, nil, nil),
		task("long", 400, nil, nil),
		task("mid", 200, nil, nil),
	}
	ls, err := listSchedule(machine(testPlat(), 1), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, ti := range ls.Order {
		got = append(got, tasks[ti].Name)
	}
	if strings.Join(got, ",") != "long,mid,short" {
		t.Errorf("dispatch order = %v, want longest first", got)
	}
}

func TestLTFTieBreakByNodeID(t *testing.T) {
	tasks := []*Task{
		{Node: 5, Name: "n5", WorkW: 100},
		{Node: 2, Name: "n2", WorkW: 100},
	}
	ls, err := listSchedule(machine(testPlat(), 1), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[ls.Order[0]].Name != "n2" {
		t.Error("equal-length tie should break by node ID")
	}
}

func TestTwoProcessorsRunInParallel(t *testing.T) {
	tasks := []*Task{
		task("a", 400, nil, nil),
		task("b", 400, nil, nil),
	}
	ls, err := listSchedule(machine(testPlat(), 2), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(ls.Makespan, 1.0) {
		t.Errorf("parallel makespan = %g, want 1", ls.Makespan)
	}
	if ls.Proc[0] == ls.Proc[1] {
		t.Error("tasks should run on different processors")
	}
}

func TestPrecedenceRespected(t *testing.T) {
	// b depends on a; even with two processors, b starts after a ends.
	tasks := []*Task{
		task("a", 200, nil, []int{1}),
		task("b", 200, []int{0}, nil),
	}
	ls, err := listSchedule(machine(testPlat(), 2), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !closeTo(ls.Makespan, 1.0) { // 2×(200Mc at 400MHz = .5s)
		t.Errorf("makespan = %g, want 1", ls.Makespan)
	}
	if ls.Dispatch[1] < ls.Finish[0] {
		t.Errorf("b dispatched at %g, before a finished at %g", ls.Dispatch[1], ls.Finish[0])
	}
}

func TestByPriorityWouldViolateOrder(t *testing.T) {
	// Contrast with TestOrderGateForcesSleep: the list scheduler ignores
	// the order and runs "free" immediately.
	tasks := []*Task{
		{Name: "gate", WorkW: 400e6, Order: 0, Succs: []int{1}},
		{Name: "mid", WorkW: 100e6, Order: 1, Preds: []int{0}},
		{Name: "free", WorkW: 100e6, Order: 2},
	}
	ls, err := listSchedule(machine(testPlat(), 2), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if d := ls.Dispatch[2]; d != 0 {
		t.Errorf("free should dispatch at 0 in the list schedule, got %g", d)
	}
}

// TestListScheduleRanksByWorstCase: an average-case schedule runs each
// task for its given work but still dispatches by WorkW, so the task with
// the longer worst case goes first even when its work is the shorter.
func TestListScheduleRanksByWorstCase(t *testing.T) {
	tasks := []Task{
		{Name: "a", Node: 0, WorkW: 100e6},
		{Name: "b", Node: 1, WorkW: 400e6},
	}
	var l ListScheduler
	ls, err := l.Schedule(machine(testPlat(), 1), nil, tasks, []float64{100e6, 40e6})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Order[0] != 1 || ls.Dispatch[0] != ls.Finish[1] || !closeTo(ls.Makespan, 0.35) {
		t.Errorf("order %v, dispatch %v, makespan %g; want b first, then a, ending at 0.35",
			ls.Order, ls.Dispatch, ls.Makespan)
	}
}

func TestListScheduleErrors(t *testing.T) {
	h := machine(testPlat(), 1)
	var l ListScheduler
	for _, tc := range []struct {
		tasks []Task
		work  []float64
		want  string
	}{
		{[]Task{{Name: "a", Preds: []int{9}}}, []float64{0}, `sim: task "a" has out-of-range predecessor 9`},
		{[]Task{{Name: "a", Succs: []int{-1}}}, []float64{0}, `sim: task "a" has out-of-range successor -1`},
	} {
		if _, err := l.Schedule(h, nil, tc.tasks, tc.work); err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

// TestListScheduleZeroAllocs: once its buffers have grown, the scheduler
// builds a schedule without allocating, on one class and on several.
func TestListScheduleZeroAllocs(t *testing.T) {
	ptrs := layeredTasks(64)
	tasks := make([]Task, len(ptrs))
	work := layeredWork(64)
	for i, tk := range ptrs {
		tasks[i] = *tk
	}
	tasks[5].Dummy, tasks[5].WorkW, work[5] = true, 0, 0
	for _, h := range []*power.Hetero{machine(power.Transmeta5400(), 4), power.BigLittle()} {
		var l ListScheduler
		if _, err := l.Schedule(h, EnergyGreedy, tasks, work); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := l.Schedule(h, EnergyGreedy, tasks, work); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed list schedule allocates %.1f times, want 0", h.Name, allocs)
		}
	}
}

// pushLinear is the pre-optimization reference insertion: scan for the
// first queued task the new one must precede. The binary-search push must
// land every task in exactly this position.
func pushLinear(rq *readyQueue, ti int) {
	t := &rq.tasks[ti]
	pos := len(rq.pq)
	for i := rq.pqHead; i < len(rq.pq); i++ {
		o := &rq.tasks[rq.pq[i]]
		if t.WorkW > o.WorkW || (t.WorkW == o.WorkW && t.Node < o.Node) {
			pos = i
			break
		}
	}
	rq.pq = append(rq.pq, 0)
	copy(rq.pq[pos+1:], rq.pq[pos:])
	rq.pq[pos] = ti
}

// TestReadyQueuePushMatchesLinear drives two ready queues through
// identical random push/pop interleavings — with heavy WorkW ties so the
// node-ID tie-break and the after-equals insertion rule are both exercised —
// and requires identical queue contents at every step. This is the
// differential proof that sort.Search insertion preserves the list
// scheduler's dispatch order exactly.
func TestReadyQueuePushMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		tasks := make([]Task, n)
		for i := range tasks {
			// Few distinct work values → many ties; a few duplicated node
			// IDs would be invalid input, so IDs stay unique but arrive in
			// random order.
			tasks[i] = Task{Node: i, WorkW: float64(1 + rng.Intn(4))}
		}
		perm := rng.Perm(n)

		got, want := readyQueue{tasks: tasks}, readyQueue{tasks: tasks}
		for _, ti := range perm {
			got.push(ti)
			pushLinear(&want, ti)
			// Interleave pops to shift pqHead mid-sequence.
			if rng.Intn(3) == 0 {
				g, okG := got.peek()
				w, okW := want.peek()
				if okG != okW || (okG && g != w) {
					t.Fatalf("trial %d: peek diverged: (%d,%v) vs (%d,%v)", trial, g, okG, w, okW)
				}
				if okG {
					got.pop()
					want.pop()
				}
			}
			if len(got.pq) != len(want.pq) || got.pqHead != want.pqHead {
				t.Fatalf("trial %d: shape diverged: len %d/%d head %d/%d",
					trial, len(got.pq), len(want.pq), got.pqHead, want.pqHead)
			}
			for i := got.pqHead; i < len(got.pq); i++ {
				if got.pq[i] != want.pq[i] {
					t.Fatalf("trial %d: pq[%d] = %d, want %d (queue %v vs %v)",
						trial, i, got.pq[i], want.pq[i], got.pq[got.pqHead:], want.pq[want.pqHead:])
				}
			}
		}
		// Drain both; dispatch order must agree to the end.
		for {
			g, okG := got.peek()
			w, okW := want.peek()
			if okG != okW {
				t.Fatalf("trial %d: drain length diverged", trial)
			}
			if !okG {
				break
			}
			if g != w {
				t.Fatalf("trial %d: drain order diverged: %d vs %d", trial, g, w)
			}
			got.pop()
			want.pop()
		}
	}
}
