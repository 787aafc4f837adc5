// Package sim implements the shared-memory multiprocessor machine model of
// the paper (§2.3) as a deterministic simulator of one program section.
//
// The simulated machine is a power.Hetero: processors grouped into
// classes, each class with its own DVS table and speed multiplier. The
// paper's m identical DVS processors are the single class at Speed 1
// (power.Homogeneous); there is one engine for every machine. A global
// ready queue is kept in shared memory. Each processor runs the scheduler
// independently: when idle it tries to fetch the next task from the queue;
// if the task it expects is not ready yet it goes to sleep and is woken
// when the task becomes available (the wait()/signal() protocol of the
// paper's Figure 2).
//
// The engine has one dispatch discipline, the on-line one: tasks are
// dequeued strictly in a precomputed execution order (Task.Order), which
// makes greedy slack sharing safe on multiprocessors — a processor sleeps
// while the next expected task is not ready, even if later-ordered tasks
// are. Each computation task is pinned to the class its canonical schedule
// ran it on. The engine runs it as a recurrence, one pass over the tasks in
// order: task k is dispatched at
//
//	max(dispatch of task k−1, latest predecessor finish, earliest free time of its processors)
//
// on its class's processor with the lowest free time (ties by index); a
// dummy may use any processor, and on several classes the placement picks
// among those free by then (on one class it is again the lowest free
// time). This is exactly the wait()/signal() protocol. Under the order
// gate, a processor wakes only when a task completes or the previous task
// is taken, so every dispatch instant is an event instant, and each of the
// three terms is one: task k is dispatched at the first instant all three
// conditions hold. A processor is idle at t exactly when its last task
// finished by t, so among the idle processors of a class the one idle
// longest is the argmin of the free times: every busy one frees later.
// Predecessors count as finished only when released through Succs, as in
// an event loop over completions, so malformed precedence fails as it
// would there.
//
// The orders and classes come from the off-line phase's canonical
// schedules, which ListScheduler builds: a timing-only longest-task-first
// list schedule, run as a discrete-event loop over task completions, that
// charges no energy, level or overhead.
//
// A run of several sections does its fixed work once. Compile checks a
// section's structure and keeps its dispatch permutation and predecessor
// counts as a read-only Program, which any number of arenas may share;
// (*Arena).Begin checks and stores the run's configuration once;
// (*Arena).Section runs one program from a start time, carrying the
// processors' levels over from the previous section. The issue step also
// accounts the run's level residency and counts latest-start-time
// violations, so callers need no second pass over the records.
//
// The dispatch loop carries no observation hooks: the records are the
// truth, and an Observer derives a run's structured events and engine
// metrics from them after each section.
//
// Speed selection is delegated to a Policy; the engine charges the speed
// computation overhead (cycles at the current effective rate) and, when the
// chosen level differs from the processor's current one, the voltage/speed
// change overhead, and it integrates active, overhead and idle energy using
// each class's power model.
//
// The engine simulates one program section at a time (between Or
// synchronization barriers); the driver in internal/core compiles each
// section's program once per plan, chains sections together through
// Begin and Section, and resolves Or branches.
package sim

import (
	"fmt"

	"andorsched/internal/power"
)

// Task is one schedulable unit handed to the engine: a computation node or
// a dummy And synchronization node of one program section. Work is measured
// in processor cycles (seconds-at-f_max × f_max), so execution time at
// frequency f is work/f.
type Task struct {
	// Node is the graph node ID, for reporting only.
	Node int
	// Name labels the task in traces.
	Name string
	// Dummy marks And synchronization nodes: zero work, dispatched like a
	// task (the paper treats synchronization nodes as dummy tasks) but with
	// no speed computation and no overheads.
	Dummy bool
	// WorkW is the task's worst-case work in cycles.
	WorkW float64
	// WorkA is the actual work in cycles for this run (0 < WorkA ≤ WorkW
	// for computation tasks; 0 for dummies).
	WorkA float64
	// LFT is the task's absolute latest finish time: the instant by which
	// the task is guaranteed to finish in the shifted canonical schedule.
	// Policies derive the slack-sharing allocation as LFT − now.
	LFT float64
	// Order is the task's canonical dispatch order within its section
	// (0-based, unique): the engine dispatches in this order. The list
	// scheduler ignores it.
	Order int
	// SpecRemain is a policy-owned statistic the engine carries but never
	// interprets: the off-line average-case time from this task's
	// canonical dispatch to the end of its section (used by the per-PMP
	// speculation scheme).
	SpecRemain float64
	// Affinity is the task's preferred processor class plus one; zero
	// means no preference. Only the class-affinity placement policy reads
	// it (assigned from `@class` tags in .andor workloads).
	Affinity int
	// CanonClass is the class the task ran on in the canonical schedule.
	// The engine's feasibility guard pins the dispatch of computation
	// tasks to exactly this class: within a class processors are
	// identical, which is what carries the Theorem-1 safety induction to
	// unequal processors. Zero on a single-class machine; the list
	// scheduler, which builds the canonical schedule, ignores it.
	CanonClass int
	// Preds and Succs are indices into the engine's task slice.
	Preds, Succs []int
}

// Record reports one task execution.
type Record struct {
	// Task is the index of the task in the engine's input slice.
	Task int
	// Proc is the executing processor index.
	Proc int
	// Dispatch is the time the task was dequeued.
	Dispatch float64
	// Start is the time execution proper began (after overheads).
	Start float64
	// Finish is the completion time.
	Finish float64
	// Level is the level index the task ran at, into the DVS table of the
	// processor's class.
	Level int
	// CompOH and ChangeOH are the speed-computation and speed-change
	// overhead durations charged before Start, in seconds.
	CompOH, ChangeOH float64
}

// Result aggregates one engine run (one program section).
type Result struct {
	// Records lists task executions in dispatch order.
	Records []Record
	// Finish is the completion time of the last task (the section end).
	Finish float64
	// BusyTime and OverheadTime are per-processor seconds spent executing
	// tasks and paying power-management overheads.
	BusyTime, OverheadTime []float64
	// ActiveEnergy and OverheadEnergy are the corresponding joules. Idle
	// energy depends on the accounting horizon and is added by the caller.
	ActiveEnergy, OverheadEnergy float64
	// ClassActiveEnergy and ClassOverheadEnergy decompose the two energies
	// by processor class (indexed by class; each class total accumulates
	// the same terms as the scalars above).
	ClassActiveEnergy, ClassOverheadEnergy []float64
	// SpeedChanges counts voltage/speed transitions.
	SpeedChanges int
	// LSTViolations counts computation tasks dispatched after their latest
	// start time, LFT − WorkW/EffFmax of their class (with a 1e-9
	// relative and absolute tolerance).
	LSTViolations int
	// FinalLevels is each processor's level index after the run, to carry
	// into the next section.
	FinalLevels []int
}

// Policy chooses the operating level for each computation task at dispatch
// time. Implementations live in internal/core (the paper's schemes).
type Policy interface {
	// PickLevel returns the level index — into the DVS table of the
	// processor's class — to run task t, dispatched at time now on a
	// processor of the given class currently at level cur. The engine
	// charges the speed-change overhead if the returned level differs
	// from cur.
	PickLevel(t *Task, now float64, cur int, class int) int
}

// Config parameterizes an engine run.
type Config struct {
	// Hetero is the machine: its processor classes, their DVS tables and
	// speed multipliers, and the processor count. Identical processors are
	// the single class at Speed 1 (power.Homogeneous). Required.
	Hetero *power.Hetero
	// Placement picks the processor each dummy task is dispatched on, on
	// machines of more than one class; nil defaults to FastestFirst.
	// Computation tasks are pinned to their canonical class, whose
	// processors are identical, and go to its idle-longest processor
	// without consulting the policy, as do dummies on a one-class machine.
	// (In the canonical schedules, which ListScheduler builds, the
	// placement picks every task's processor.)
	Placement PlacementPolicy
	// Overheads are the power-management costs. Zero values disable them
	// (used for the static schemes, which perform no run-time speed
	// computation).
	Overheads power.Overheads
	// Policy chooses levels; nil runs everything at each class's maximum
	// level (NPM).
	Policy Policy
	// InitialLevels, if non-nil, gives each processor's level at the first
	// section's start, one entry per processor of the machine; nil starts
	// every processor at its class's maximum level.
	InitialLevels []int
}

// Metrics names the Observer updates. Per-processor instruments embed the
// processor index; use the helper functions to construct them.
const (
	// MetricTasks counts non-dummy task dispatches (counter).
	MetricTasks = "sim.tasks.dispatched"
	// MetricDummies counts dummy (And synchronization) dispatches (counter).
	MetricDummies = "sim.tasks.dummy"
	// MetricSpeedChanges counts voltage/speed transitions (counter).
	MetricSpeedChanges = "sim.speed.changes"
	// MetricExecSeconds is the per-task execution time histogram.
	MetricExecSeconds = "sim.task.exec_seconds"
	// MetricIdleSeconds is the per-interval processor idle time histogram.
	MetricIdleSeconds = "sim.idle.seconds"
)

// MetricProcBusy names the gauge accumulating processor i's busy seconds.
func MetricProcBusy(i int) string { return fmt.Sprintf("sim.proc.%d.busy_seconds", i) }

// MetricProcOverhead names the gauge accumulating processor i's
// power-management overhead seconds.
func MetricProcOverhead(i int) string { return fmt.Sprintf("sim.proc.%d.overhead_seconds", i) }

// MetricProcSpeedChanges names the counter of processor i's voltage/speed
// transitions.
func MetricProcSpeedChanges(i int) string { return fmt.Sprintf("sim.proc.%d.speed_changes", i) }
