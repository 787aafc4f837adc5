package sim

import (
	"testing"

	"andorsched/internal/power"
)

var modeNames = map[Mode]string{ByOrder: "ByOrder", ByPriority: "ByPriority"}

// TestMalformedPrecedence pins the engine's error contract on inconsistent
// Preds/Succs and on order gates that contradict precedence, in both
// dispatch modes, with exact error strings. Every case starts from the
// well-formed chain a→b→c on two processors and breaks one link. The
// ByOrder cases also run compiled, through Compile, Begin and Section,
// which must fail the same way.
func TestMalformedPrecedence(t *testing.T) {
	const (
		deadlock2 = "sim: deadlock with 2 tasks unfinished (bad precedence or order gating)"
		deadlock3 = "sim: deadlock with 3 tasks unfinished (bad precedence or order gating)"
		overB     = `sim: task "b" completed more predecessors than it has`
	)
	chain := func() []*Task {
		return []*Task{
			{Name: "a", WorkW: 1e6, WorkA: 1e6, Order: 0, Succs: []int{1}},
			{Name: "b", WorkW: 2e6, WorkA: 2e6, Order: 1, Preds: []int{0}, Succs: []int{2}},
			{Name: "c", WorkW: 3e6, WorkA: 3e6, Order: 2, Preds: []int{1}},
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
	for _, tc := range cases {
		for _, mode := range []Mode{ByOrder, ByPriority} {
			want := tc.byOrder
			if mode == ByPriority {
				want = tc.byPr
			}
			t.Run(tc.name+"/"+modeNames[mode], func(t *testing.T) {
				tasks := chain()
				tc.mutate(tasks)
				_, err := Run(Config{Hetero: machine(testPlat(), 2), Mode: mode, Policy: fixedPolicy(1)}, tasks)
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != want {
					t.Errorf("error = %q, want %q", got, want)
				}
				if mode == ByOrder {
					if got := compiledError(machine(testPlat(), 2), tasks); got != want {
						t.Errorf("compiled: error = %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// compiledError runs tasks as one ByOrder section through Compile, Begin
// and Section on a fresh arena and returns the first error's text, or ""
// when the section runs.
func compiledError(h *power.Hetero, tasks []*Task) string {
	prog, err := Compile(h, tasks)
	if err == nil {
		a := NewArena()
		if err = a.Begin(&Config{Hetero: h, Mode: ByOrder, Policy: fixedPolicy(1)}, nil); err == nil {
			_, err = a.Section(prog, tasks, 0)
		}
	}
	if err != nil {
		return err.Error()
	}
	return ""
}
