package sim

import (
	"fmt"
	"math"
	"sort"

	"andorsched/internal/power"
)

// valTol absorbs floating-point accumulation in schedule arithmetic.
const valTol = 1e-9

// ValidateSection is an independent oracle that cross-checks one section
// of a recorded engine run on machine h, with deadline d, against the
// machine model's invariants: start is the time the section should have
// started (the run's start, 0, or the previous section's finish), step is
// the section's script step and res its part of the result. It is used by tests (and by
// core.RunConfig.Validate) to catch scheduling bugs structurally rather
// than through aggregate outcomes. It verifies that:
//
//   - every task executed exactly once, at a valid level of its
//     processor's class, not before start;
//   - each record's arithmetic holds: Start = Dispatch + overheads and
//     Finish − Start = actual work / (Speed·f(level)) on its class;
//   - no two records overlap on the same processor;
//   - every task was dispatched only after all its predecessors finished;
//   - dispatch times are non-decreasing in task order (the order-gate
//     discipline) and every computation task ran on its canonical class;
//   - the per-processor busy/overhead totals match the records;
//   - the reported LST violations are the records' count: the computation
//     tasks dispatched after d + LFT − WorkW/EffFmax of their class (with
//     the engine's tolerance).
func ValidateSection(h *power.Hetero, d, start float64, step Step, res *Section) error {
	tasks := step.Prog.tasks
	if len(res.BusyTime) != h.NumProcs() || len(res.OverheadTime) != h.NumProcs() {
		return fmt.Errorf("sim: result covers %d/%d processors, machine has %d",
			len(res.BusyTime), len(res.OverheadTime), h.NumProcs())
	}
	if len(res.Records) != len(tasks) {
		return fmt.Errorf("sim: %d records for %d tasks", len(res.Records), len(tasks))
	}
	byTask := make([]*Record, len(tasks))
	lstViolations := 0
	for i := range res.Records {
		r := &res.Records[i]
		if r.Task < 0 || r.Task >= len(tasks) {
			return fmt.Errorf("sim: record references task %d", r.Task)
		}
		if byTask[r.Task] != nil {
			return fmt.Errorf("sim: task %q executed twice", tasks[r.Task].Name)
		}
		byTask[r.Task] = r
		if r.Proc < 0 || r.Proc >= len(res.BusyTime) {
			return fmt.Errorf("sim: record on unknown processor %d", r.Proc)
		}
		ci := h.ClassOf(r.Proc)
		platform, speed := h.Class(ci).Plat, h.Class(ci).Speed
		if r.Level < 0 || r.Level >= platform.NumLevels() {
			return fmt.Errorf("sim: task %q ran at invalid level %d", tasks[r.Task].Name, r.Level)
		}
		if t := &tasks[r.Task]; !t.Dummy && ci != t.CanonClass {
			return fmt.Errorf("sim: task %q pinned to class %d ran on processor %d of class %d",
				t.Name, t.CanonClass, r.Proc, ci)
		}
		if r.Dispatch < start-valTol {
			return fmt.Errorf("sim: task %q dispatched at %g before start %g", tasks[r.Task].Name, r.Dispatch, start)
		}
		if math.Abs(r.Start-(r.Dispatch+r.CompOH+r.ChangeOH)) > valTol {
			return fmt.Errorf("sim: task %q start %g ≠ dispatch %g + overheads %g",
				tasks[r.Task].Name, r.Start, r.Dispatch, r.CompOH+r.ChangeOH)
		}
		var wantDur float64
		if !tasks[r.Task].Dummy {
			wantDur = step.Work[r.Task] / (platform.Levels()[r.Level].Freq * speed)
		}
		if math.Abs((r.Finish-r.Start)-wantDur) > valTol {
			return fmt.Errorf("sim: task %q duration %g ≠ work/freq %g",
				tasks[r.Task].Name, r.Finish-r.Start, wantDur)
		}
		if t := &tasks[r.Task]; !t.Dummy &&
			r.Dispatch > (d+t.LFT-t.WorkW/h.Class(ci).EffFmax())*(1+lstTol)+lstTol {
			lstViolations++
		}
	}
	if res.LSTViolations != lstViolations {
		return fmt.Errorf("sim: result reports %d LST violations, records show %d", res.LSTViolations, lstViolations)
	}

	// Processor occupancy: records on one processor must not overlap, and
	// each processor's totals, an idle one's included, must match its
	// records. Processors are checked in index order, so the error names
	// the lowest faulty one.
	byProc := make([][]*Record, len(res.BusyTime))
	for i := range res.Records {
		r := &res.Records[i]
		byProc[r.Proc] = append(byProc[r.Proc], r)
	}
	for proc, rs := range byProc {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Dispatch < rs[j].Dispatch })
		var busy, oh float64
		for i, r := range rs {
			if i > 0 && r.Dispatch < rs[i-1].Finish-valTol {
				return fmt.Errorf("sim: processor %d runs %q before %q finished",
					proc, tasks[r.Task].Name, tasks[rs[i-1].Task].Name)
			}
			busy += r.Finish - r.Start
			oh += r.CompOH + r.ChangeOH
		}
		if math.Abs(busy-res.BusyTime[proc]) > valTol || math.Abs(oh-res.OverheadTime[proc]) > valTol {
			return fmt.Errorf("sim: processor %d busy/overhead totals disagree with records", proc)
		}
	}

	// Precedence: a task may not be dispatched before its predecessors
	// finished.
	for ti := range tasks {
		t := &tasks[ti]
		for _, pi := range t.Preds {
			if byTask[ti].Dispatch < byTask[pi].Finish-valTol {
				return fmt.Errorf("sim: task %q dispatched at %g before predecessor %q finished at %g",
					t.Name, byTask[ti].Dispatch, tasks[pi].Name, byTask[pi].Finish)
			}
		}
	}

	// Order gate: dispatch instants must be non-decreasing in task order.
	inOrder := make([]*Record, len(tasks))
	for ti := range tasks {
		inOrder[tasks[ti].Order] = byTask[ti]
	}
	for i := 1; i < len(inOrder); i++ {
		if inOrder[i].Dispatch < inOrder[i-1].Dispatch-valTol {
			return fmt.Errorf("sim: order gate violated: order %d dispatched at %g before order %d at %g",
				i, inOrder[i].Dispatch, i-1, inOrder[i-1].Dispatch)
		}
	}
	return nil
}
