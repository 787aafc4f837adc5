package sim

import (
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
		{Name: "alpha", WorkW: 200e6, Order: 0, LFT: 10},
		{Name: "beta", WorkW: 300e6, Order: 1, LFT: 10},
	}
	h := machine(p, 2)
	res, err := runSection(NewArena(), &Config{
		Hetero: h, Overheads: ov, Policy: fixedPolicy(0),
	}, 0, tasks, []float64{150e6, 200e6})
	if err != nil {
		t.Fatal(err)
	}
	return h, Entries(res.step.Prog, res.Records)
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
			WorkW: 40e6, LFT: 10, CanonClass: i % 2 * little,
		})
	}
	res, err := runSection(NewArena(), &Config{Hetero: h}, 0, tasks, nil) // every class at its maximum
	if err != nil {
		t.Fatal(err)
	}
	entries := Entries(res.step.Prog, res.Records)
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

	svg := SVG(h, entries, 1)
	for _, s := range []string{"big.LITTLE", "P3", bigTop, littleTop} {
		if !strings.Contains(svg, s) {
			t.Errorf("SVG missing %q", s)
		}
	}
}
