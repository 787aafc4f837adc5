package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"andorsched/internal/power"
)

func exportEntries(t *testing.T) (*power.Hetero, []GanttEntry) {
	t.Helper()
	p := testPlat()
	ov := power.Overheads{SpeedCompCycles: 10e6, SpeedChangeTime: 0.01}
	tasks := []*Task{
		{Name: "alpha", WorkW: 200e6, WorkA: 150e6, Order: 0, LFT: 10},
		{Name: "beta", WorkW: 300e6, WorkA: 200e6, Order: 1, LFT: 10},
	}
	h := machine(p, 2)
	res, err := runSection(NewArena(), &Config{
		Hetero: h, Overheads: ov, Policy: fixedPolicy(0),
	}, 0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return h, Entries(tasks, res.Records)
}

func TestChromeTrace(t *testing.T) {
	p, entries := exportEntries(t)
	data, err := ChromeTrace(p, entries)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 task events + 2 overhead events (both tasks change speed from max
	// to level 0 and pay computation overhead).
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	names := map[string]int{}
	for _, e := range events {
		names[e["name"].(string)]++
		if e["ph"] != "X" {
			t.Errorf("event phase = %v", e["ph"])
		}
		if e["dur"].(float64) <= 0 {
			t.Error("non-positive duration")
		}
	}
	if names["alpha"] != 1 || names["beta"] != 1 || names["dvs-overhead"] != 2 {
		t.Errorf("event names = %v", names)
	}
}

func TestSVG(t *testing.T) {
	p, entries := exportEntries(t)
	svg := SVG(p, entries, 5.0)
	for _, want := range []string{
		"<svg", "</svg>", "P0", "P1", "alpha", "beta", "D=5000.00ms", "rect",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Overheads render as red slivers.
	if !strings.Contains(svg, "#d33") {
		t.Error("SVG missing overhead markers")
	}
}

func TestSVGEmpty(t *testing.T) {
	p, _ := exportEntries(t)
	svg := SVG(p, nil, 0)
	if !strings.Contains(svg, "empty schedule") {
		t.Error("empty SVG placeholder missing")
	}
}

// TestRenderBigLittle renders a run on a machine of two classes with
// different DVS tables: every renderer must read each entry's level on the
// table of its own processor's class.
func TestRenderBigLittle(t *testing.T) {
	h := power.BigLittle()
	little := h.ClassIndex("little")
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &Task{
			Name: fmt.Sprintf("t%d", i), Node: i, Order: i,
			WorkW: 40e6, WorkA: 40e6, LFT: 10, CanonClass: i % 2 * little,
		})
	}
	res, err := runSection(NewArena(), &Config{Hetero: h}, 0, tasks) // every class at its maximum
	if err != nil {
		t.Fatal(err)
	}
	entries := Entries(tasks, res.Records)
	const bigTop, littleTop = "700MHz@1.65V", "400MHz@1.05V"
	want := func(proc int) string {
		if h.ClassOf(proc) == little {
			return littleTop
		}
		return bigTop
	}

	for _, line := range strings.Split(strings.TrimSpace(Gantt(h, entries)), "\n") {
		var proc int
		if _, err := fmt.Sscanf(line, "P%d", &proc); err != nil {
			t.Fatalf("Gantt line %q: %v", line, err)
		}
		if !strings.Contains(line, want(proc)) {
			t.Errorf("Gantt line for P%d lacks %s: %q", proc, want(proc), line)
		}
	}

	data, err := ChromeTrace(h, entries)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	onLittle := 0
	for _, e := range events {
		if e.Args["level"] != want(e.Tid) {
			t.Errorf("trace event %s on P%d at level %q, want %q", e.Name, e.Tid, e.Args["level"], want(e.Tid))
		}
		if h.ClassOf(e.Tid) == little {
			onLittle++
			plat := h.Class(little).Plat
			if p := fmt.Sprintf("%.3gW", plat.PowerAt(plat.MaxIndex())); e.Args["power"] != p {
				t.Errorf("little-core power %q, want %q", e.Args["power"], p)
			}
		}
	}
	if onLittle != 2 {
		t.Errorf("%d trace events on little cores, want 2", onLittle)
	}

	svg := SVG(h, entries, 1)
	for _, s := range []string{"big.LITTLE", "P3", bigTop, littleTop} {
		if !strings.Contains(svg, s) {
			t.Errorf("SVG missing %q", s)
		}
	}
}
