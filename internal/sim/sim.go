// Package sim implements the shared-memory multiprocessor machine model of
// the paper (§2.3) as a deterministic simulator of one run of a resolved
// script: the program sections an execution visits, back to back.
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
// ran it on. The engine runs a section as a recurrence, one pass over the
// tasks in order: task k is dispatched at
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
// CompileInto checks a section's structure once and keeps its read-only
// task templates, dispatch permutation and predecessor counts as a
// Program, which any number of arenas may share. (*Arena).Run executes a
// script (one Step per section visited: a program and its tasks' actual
// work) in one call: each section starts when the previous one finishes,
// levels carry over, and the Policy is told of every section boundary.
// Section totals add up in dispatch order and are then added to the
// run's, section by section. The dispatch loop carries no observation
// hooks: a run made with Config.Record keeps its records and per-section
// totals, from which an Observer derives events and metrics and
// ValidateSection checks each section.
//
// Speed selection is delegated to a Policy; the engine charges the speed
// computation overhead (cycles at the current effective rate) and, when the
// chosen level differs from the processor's current one, the voltage/speed
// change overhead, and it integrates active, overhead and idle energy using
// each class's power model. The driver in internal/core resolves a run's Or
// branches and actual times into a script and runs it with one Run call.
package sim

import (
	"fmt"

	"andorsched/internal/power"
)

// Task is one schedulable unit of a program section: a computation node or
// a dummy And synchronization node. Work is measured in processor cycles
// (seconds-at-f_max × f_max), so execution time at frequency f is work/f.
// Tasks are read-only templates, shared by every run of a plan: a run's
// actual work comes with its Step.
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
	// LFT is the task's latest finish time relative to the run's deadline
	// (Config.Deadline): the instant, minus the deadline, by which the task
	// is guaranteed to finish in the shifted canonical schedule. The engine
	// resolves it as Deadline + LFT, and policies derive the slack-sharing
	// allocation as that latest finish time − now.
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
	// Preds and Succs are indices into the section's task slice.
	Preds, Succs []int
}

// Record reports one task execution.
type Record struct {
	// Task is the index of the task in its section.
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

// Step is one section of a script: a compiled program and the actual work
// of each of its tasks in cycles, by task index (0 < Work[i] ≤ WorkW for
// computation tasks; dummies' entries are ignored).
type Step struct {
	Prog *Program
	Work []float64
}

// Section is one section of a recorded run (Config.Record): its task
// executions in dispatch order, its start and finish (its last task's),
// and its totals. BusyTime and OverheadTime are per-processor seconds
// spent executing tasks and paying power-management overheads,
// ActiveEnergy and OverheadEnergy the corresponding joules, and the class
// energies decompose those by processor class. LSTViolations counts the
// computation tasks dispatched after their latest start time, their
// latest finish time − WorkW/EffFmax of their class (with a 1e-9 relative
// and absolute tolerance).
type Section struct {
	Records                                []Record
	Start, Finish                          float64
	BusyTime, OverheadTime                 []float64
	ActiveEnergy, OverheadEnergy           float64
	ClassActiveEnergy, ClassOverheadEnergy []float64
	SpeedChanges, LSTViolations            int
}

// Result aggregates one engine run: each total adds the sections' totals
// section by section. ClassEnergy is each class's active plus overhead
// joules; BusyTime and OverheadTime sum the processors' seconds in index
// order, and ProcBusyTime and ProcOverheadTime keep each processor's.
// LevelTime[i] is the execution time at level index i, in dispatch order,
// one entry per level of the machine's largest DVS table. FinalLevels is
// each processor's level after the run, and Sections is filled only on a
// recorded run. Idle energy depends on the accounting horizon and is left
// to the caller.
type Result struct {
	Finish                         float64
	ActiveEnergy, OverheadEnergy   float64
	ClassEnergy                    []float64
	BusyTime, OverheadTime         float64
	ProcBusyTime, ProcOverheadTime []float64
	SpeedChanges, LSTViolations    int
	LevelTime                      []float64
	FinalLevels                    []int
	Sections                       []Section
}

// Policy chooses the operating level for each computation task at dispatch
// time. Implementations live in internal/core (the paper's schemes).
type Policy interface {
	// Boundary is called at every section boundary of a run: with step k
	// before the script's k-th section runs from now, and once more with
	// the step count after the last section, at the run's finish.
	Boundary(step int, now float64)
	// PickLevel returns the level index — into the DVS table of the
	// processor's class — to run task t, whose latest finish time is lft,
	// dispatched at time now on a processor of the given class currently
	// at level cur. The engine charges the speed-change overhead if the
	// returned level differs from cur.
	PickLevel(t *Task, lft, now float64, cur int, class int) int
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
	// Deadline anchors the tasks' relative latest finish times.
	Deadline float64
	// Record keeps the run's records and section totals in Result.Sections.
	Record bool
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
