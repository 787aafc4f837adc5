package sim

import (
	"fmt"

	"andorsched/internal/power"
)

// lstTol is the tolerance of the latest-start-time check, relative and
// absolute, absorbing floating-point noise in the shifted schedule.
const lstTol = 1e-9

// Program is one section's fixed structure, checked once and compiled for
// the order-gate recurrence: the section's task templates, the dispatch
// permutation and each task's predecessor count. A Program is read-only
// once compiled, as are the templates it keeps, and may be shared by any
// number of arenas and goroutines: an arena copies what it mutates.
type Program struct {
	tasks   []Task
	byOrder []int // byOrder[o] is the task with dispatch order o
	npreds  []int // each task's predecessor count
	classes int   // class count of the machine compiled for
}

// CompileInto checks tasks' structure for runs on machine hp — Order a
// permutation of 0..n-1, every computation task pinned to one of hp's
// classes, Preds and Succs in range — and compiles the section's program
// into prog, which keeps tasks: they must not change while the program is
// in use. The program's tables are carved from the front of buf, which
// must hold at least 2·len(tasks) ints, and the unused rest of buf is
// returned, so that the sections of a plan can share one backing array.
// The checks run in one pass in task order, so the first error is the
// first offending task's.
func CompileInto(prog *Program, hp *power.Hetero, tasks []Task, buf []int) ([]int, error) {
	n := len(tasks)
	if len(buf) < 2*n {
		return buf, fmt.Errorf("sim: program buffer holds %d ints, %d tasks need %d", len(buf), n, 2*n)
	}
	prog.tasks, prog.npreds, prog.byOrder, prog.classes = tasks, buf[:n:n], buf[n:2*n:2*n], hp.NumClasses()
	for i := range prog.byOrder {
		prog.byOrder[i] = -1
	}
	for i := range tasks {
		t := &tasks[i]
		if t.Order < 0 || t.Order >= n || prog.byOrder[t.Order] >= 0 {
			return buf, fmt.Errorf("sim: task %q has invalid or duplicate order %d", t.Name, t.Order)
		}
		prog.byOrder[t.Order] = i
		if !t.Dummy && (t.CanonClass < 0 || t.CanonClass >= prog.classes) {
			return buf, fmt.Errorf("sim: task %q pinned to class %d of a %d-class machine", t.Name, t.CanonClass, prog.classes)
		}
		prog.npreds[i] = len(t.Preds)
		if err := checkLinks(t, n); err != nil {
			return buf, err
		}
	}
	return buf[2*n:], nil
}

// checkLinks reports t's first predecessor or successor index outside a
// section of n tasks.
func checkLinks(t *Task, n int) error {
	for _, pr := range t.Preds {
		if pr < 0 || pr >= n {
			return fmt.Errorf("sim: task %q has out-of-range predecessor %d", t.Name, pr)
		}
	}
	for _, s := range t.Succs {
		if s < 0 || s >= n {
			return fmt.Errorf("sim: task %q has out-of-range successor %d", t.Name, s)
		}
	}
	return nil
}
