package sim

import (
	"fmt"
	"sort"
	"strings"

	"andorsched/internal/power"
)

// GanttEntry is one row of a rendered schedule. Entries are produced from
// Records by the run driver (which knows task names across sections).
type GanttEntry struct {
	Proc             int
	Name             string
	Dispatch, Finish float64
	Level            int
	CompOH, ChangeOH float64
}

// Entries converts one section's records to Gantt entries using the
// section's program for names.
func Entries(prog *Program, records []Record) []GanttEntry {
	tasks := prog.tasks
	out := make([]GanttEntry, len(records))
	for i, r := range records {
		out[i] = GanttEntry{
			Proc: r.Proc, Name: tasks[r.Task].Name,
			Dispatch: r.Dispatch, Finish: r.Finish,
			Level: r.Level, CompOH: r.CompOH, ChangeOH: r.ChangeOH,
		}
	}
	return out
}

// Gantt renders entries as a per-processor text timeline, one line per task
// execution, for debugging and the example programs:
//
//	P0  [    0.000ms ->     5.210ms] B            467MHz@1.39V
//
// Entries from several engine runs (sections) may be concatenated; they are
// sorted by dispatch time within each processor. Levels are read on the DVS
// table of each processor's class on machine h.
func Gantt(h *power.Hetero, entries []GanttEntry) string {
	byProc := map[int][]GanttEntry{}
	var procs []int
	for _, e := range entries {
		if _, ok := byProc[e.Proc]; !ok {
			procs = append(procs, e.Proc)
		}
		byProc[e.Proc] = append(byProc[e.Proc], e)
	}
	sort.Ints(procs)
	var b strings.Builder
	for _, p := range procs {
		es := byProc[p]
		sort.Slice(es, func(i, j int) bool { return es[i].Dispatch < es[j].Dispatch })
		for _, e := range es {
			lv := classPlat(h, p).Levels()[e.Level]
			fmt.Fprintf(&b, "P%-2d [%9.3fms -> %9.3fms] %-12s %4.0fMHz@%.2fV",
				p, e.Dispatch*1e3, e.Finish*1e3, e.Name, lv.Freq/1e6, lv.Volt)
			if e.CompOH > 0 || e.ChangeOH > 0 {
				fmt.Fprintf(&b, "  (+comp %.1fµs, +change %.1fµs)", e.CompOH*1e6, e.ChangeOH*1e6)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// classPlat returns the DVS table of processor proc's class.
func classPlat(h *power.Hetero, proc int) *power.Platform {
	return h.Class(h.ClassOf(proc)).Plat
}
