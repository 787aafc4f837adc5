package sim

import (
	"testing"

	"andorsched/internal/power"
)

// TestMalformedPrecedence pins the error contract on inconsistent
// Preds/Succs and on order gates that contradict precedence, with exact
// error strings, for the engine's order gate (the ByOrder subtests) and
// the canonical list scheduler (the ByPriority subtests, which ignore the
// order). Every case starts from the well-formed chain a→b→c on two
// processors and breaks one link. The order-gate cases also run compiled,
// through CompileInto, Begin and Section, which must fail the same way.
func TestMalformedPrecedence(t *testing.T) {
	const (
		deadlock2 = "sim: deadlock with 2 tasks unfinished (bad precedence or order gating)"
		deadlock3 = "sim: deadlock with 3 tasks unfinished (bad precedence or order gating)"
		overB     = `sim: task "b" completed more predecessors than it has`
	)
	chain := func() []*Task {
		return []*Task{
			{Name: "a", WorkW: 1e6, Order: 0, Succs: []int{1}},
			{Name: "b", WorkW: 2e6, Order: 1, Preds: []int{0}, Succs: []int{2}},
			{Name: "c", WorkW: 3e6, Order: 2, Preds: []int{1}},
		}
	}
	cases := []struct {
		name          string
		mutate        func(ts []*Task)
		byOrder, byPr string // "" = runs without error
	}{
		{"pred without matching succ", func(ts []*Task) { ts[0].Succs = nil }, deadlock2, deadlock2},
		{"succ without matching pred", func(ts []*Task) { ts[1].Preds = nil }, overB, overB},
		{"duplicated succ", func(ts []*Task) { ts[0].Succs = []int{1, 1} }, overB, overB},
		{"self-pred", func(ts []*Task) {
			ts[1].Preds = []int{0, 1}
			ts[1].Succs = []int{1, 2}
		}, deadlock2, deadlock2},
		{"pred ordered after its successor", func(ts []*Task) {
			ts[0].Order, ts[2].Order = 2, 0
		}, deadlock3, ""},
	}
	errText := func(err error) string {
		if err != nil {
			return err.Error()
		}
		return ""
	}
	for _, tc := range cases {
		t.Run(tc.name+"/ByOrder", func(t *testing.T) {
			tasks := chain()
			tc.mutate(tasks)
			_, err := runSection(NewArena(), &Config{Hetero: machine(testPlat(), 2), Policy: fixedPolicy(1)}, 0, tasks, nil)
			if got := errText(err); got != tc.byOrder {
				t.Errorf("error = %q, want %q", got, tc.byOrder)
			}
			if got := compiledError(machine(testPlat(), 2), tasks); got != tc.byOrder {
				t.Errorf("compiled: error = %q, want %q", got, tc.byOrder)
			}
		})
		t.Run(tc.name+"/ByPriority", func(t *testing.T) {
			tasks := chain()
			tc.mutate(tasks)
			_, err := listSchedule(machine(testPlat(), 2), nil, tasks)
			if got := errText(err); got != tc.byPr {
				t.Errorf("error = %q, want %q", got, tc.byPr)
			}
		})
	}
}

// compiledError runs tasks as a one-step script through CompileInto and
// Run on a fresh arena and returns the first error's text, or "" when the
// section runs.
func compiledError(h *power.Hetero, tasks []*Task) string {
	prog, err := compile(h, tasks)
	if err == nil {
		_, err = NewArena().Run(&Config{Hetero: h, Policy: fixedPolicy(1)}, []Step{{prog, worst(tasks)}})
	}
	if err != nil {
		return err.Error()
	}
	return ""
}
