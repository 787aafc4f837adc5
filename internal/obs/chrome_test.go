package obs_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// levelHopPolicy forces deterministic speed changes so the trace contains
// dvs-overhead slices and speed-change instants.
type levelHopPolicy struct{ n int }

func (p levelHopPolicy) Boundary(int, float64) {}

func (p levelHopPolicy) PickLevel(t *sim.Task, _, _ float64, _ int, _ int) int {
	return (t.Node * 3) % p.n
}

// twoProcRun executes a small deterministic diamond (A → B,C → D with an
// And join) on two processors and returns the event stream an Observer
// derives from it.
func twoProcRun(t *testing.T) []obs.Event {
	t.Helper()
	plat := power.Transmeta5400()
	tasks := []sim.Task{
		{Node: 0, Name: "A", WorkW: 6e6, Order: 0, LFT: 1, Succs: []int{1, 2}},
		{Node: 1, Name: "B", WorkW: 8e6, Order: 1, LFT: 1, Preds: []int{0}, Succs: []int{3}},
		{Node: 2, Name: "C", WorkW: 4e6, Order: 2, LFT: 1, Preds: []int{0}, Succs: []int{3}},
		{Node: 3, Name: "J", Dummy: true, Order: 3, Preds: []int{1, 2}, Succs: []int{4}},
		{Node: 4, Name: "D", WorkW: 5e6, Order: 4, LFT: 1, Preds: []int{3}},
	}
	work := []float64{5e6, 6e6, 4e6, 0, 2e6}
	machine, err := power.Homogeneous(plat, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Hetero:    machine,
		Overheads: power.DefaultOverheads(),
		Policy:    levelHopPolicy{plat.NumLevels()},
		Record:    true,
	}
	prog := new(sim.Program)
	if _, err := sim.CompileInto(prog, machine, tasks, make([]int, 2*len(tasks))); err != nil {
		t.Fatal(err)
	}
	step := sim.Step{Prog: prog, Work: work}
	res, err := sim.NewArena().Run(&cfg, []sim.Step{step})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	var o sim.Observer
	o.Begin(machine, []int{plat.MaxIndex(), plat.MaxIndex()}, col, nil)
	o.Section(step, &res.Sections[0], nil)
	return col.Events()
}

// TestChromeTraceGolden pins the exporter's exact output for a small
// two-processor run and validates it against the trace_event schema:
// required keys, known phases, and non-overlapping slices per track.
func TestChromeTraceGolden(t *testing.T) {
	data, err := obs.ChromeTrace(twoProcRun(t))
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_two_proc.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if string(data) != string(want) {
		t.Errorf("chrome trace differs from golden file %s (re-run with -update after intentional changes)\ngot:\n%s", golden, data)
	}

	validateChromeTrace(t, data, []string{"A", "B", "C", "J", "D"})
}

type chromeEv struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

// validateChromeTrace checks trace_event schema validity: the JSON object
// form, known phase types, nonnegative durations, every expected task name
// present, and per-track slices that never overlap.
func validateChromeTrace(t *testing.T, data []byte, wantTasks []string) {
	t.Helper()
	var tf struct {
		TraceEvents []chromeEv `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	names := map[string]bool{}
	type track struct{ pid, tid int }
	slices := map[track][]chromeEv{}
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Errorf("slice %q has negative duration %g", e.Name, e.Dur)
			}
			slices[track{e.Pid, e.Tid}] = append(slices[track{e.Pid, e.Tid}], e)
			names[e.Name] = true
		case "i", "M":
			// instants and metadata carry no duration constraints
		default:
			t.Errorf("unknown phase %q on event %q", e.Ph, e.Name)
		}
		if e.Name == "" {
			t.Error("event with empty name")
		}
	}
	for _, task := range wantTasks {
		if !names[task] {
			t.Errorf("executed task %q missing from trace slices", task)
		}
	}
	const eps = 1e-6 // µs; slices may touch but not overlap
	for tr, evs := range slices {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].Ts + evs[i-1].Dur
			if evs[i].Ts < prevEnd-eps {
				t.Errorf("track pid=%d tid=%d: slice %q@%g overlaps %q ending %g",
					tr.pid, tr.tid, evs[i].Name, evs[i].Ts, evs[i-1].Name, prevEnd)
			}
		}
	}
}

// TestChromeTraceUnbalanced ensures malformed streams are rejected rather
// than silently exported.
func TestChromeTraceUnbalanced(t *testing.T) {
	cases := [][]obs.Event{
		{{Kind: obs.EvTaskFinish, Proc: 0, Task: 1}},                                               // finish without dispatch
		{{Kind: obs.EvTaskDispatch, Proc: 0, Task: 1, Name: "X"}},                                  // dispatch without finish
		{{Kind: obs.EvSectionEnd, Node: 3}},                                                        // end without begin
		{{Kind: obs.EvSectionBegin, Node: 1}},                                                      // begin without end
		{{Kind: obs.EvTaskDispatch, Proc: 0, Task: 1}, {Kind: obs.EvTaskFinish, Proc: 0, Task: 2}}, // wrong pairing
	}
	for i, evs := range cases {
		if _, err := obs.ChromeTrace(evs); err == nil {
			t.Errorf("case %d: want error for unbalanced stream", i)
		}
	}
}
