package andor

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// nonFiniteTexts are .andor sources whose times or probabilities are NaN
// or infinite. Every comparison with NaN is false, so range checks of the
// form "x <= 0 → reject" used to let these through.
var nonFiniteTexts = []string{
	"task A NaNms NaNms\ntask B 2ms 1ms\nedge A -> B",
	"task A 2ms NaNms",
	"task A NaNs 1ms",
	"task A Infms Infms",
	"task A +Infs 1ms",
	"task A 2ms -Infms",
	"loop L NaNms NaNms : 0.5 0.5",
	"loop L Infms 1ms : 0.5 0.5",
	"task A 1ms 1ms\nor O\ntask B 1ms 1ms\ntask C 1ms 1ms\nedge A -> O\nedge O -> B C\nprob O NaN NaN",
	"task A 1ms 1ms\nor O\ntask B 1ms 1ms\ntask C 1ms 1ms\nedge A -> O\nedge O -> B C\nprob O Inf% -Inf%",
	"loop L 1ms 1ms : NaN 1",
}

// shortProbText gives the Or node O two branch probabilities and then a
// third successor: it used to parse, and compiling it then panicked on the
// missing probability.
const shortProbText = "task A 1ms 1ms\nor O\ntask B 1ms 1ms\ntask C 1ms 1ms\ntask D 1ms 1ms\n" +
	"edge A -> O\nedge O -> B C\nprob O 0.5 0.5\nedge O -> D"

func TestParseTextRejectsShortBranchProbs(t *testing.T) {
	g, err := ParseText(shortProbText)
	if err == nil {
		t.Fatalf("ParseText accepted %q:\n%s", shortProbText, FormatText(g))
	}
	const want = `andor: OR node "O" has 2 branch probabilities for 3 successors`
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestParseTextRejectsNonFinite(t *testing.T) {
	for _, src := range nonFiniteTexts {
		if g, err := ParseText(src); err == nil {
			t.Errorf("ParseText accepted %q:\n%s", src, FormatText(g))
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	build := func() (*Graph, *Node, *Node) {
		g := NewGraph("g")
		a := g.AddTask("A", 2e-3, 1e-3)
		or := g.AddOr("O")
		b := g.AddTask("B", 1e-3, 1e-3)
		c := g.AddTask("C", 1e-3, 1e-3)
		g.AddEdge(a, or)
		g.AddEdge(or, b)
		g.AddEdge(or, c)
		g.SetBranchProbs(or, 0.5, 0.5)
		return g, a, or
	}
	if g, _, _ := build(); g.Validate() != nil {
		t.Fatal("the finite base graph must validate")
	}
	cases := map[string]func(g *Graph, a, or *Node){
		"NaN WCET":     func(g *Graph, a, _ *Node) { a.WCET = nan },
		"NaN ACET":     func(g *Graph, a, _ *Node) { a.ACET = nan },
		"NaN both":     func(g *Graph, a, _ *Node) { a.WCET, a.ACET = nan, nan },
		"Inf WCET":     func(g *Graph, a, _ *Node) { a.WCET = inf },
		"Inf both":     func(g *Graph, a, _ *Node) { a.WCET, a.ACET = inf, inf },
		"NaN probs":    func(g *Graph, _, or *Node) { g.SetBranchProbs(or, nan, nan) },
		"Inf prob":     func(g *Graph, _, or *Node) { g.SetBranchProbs(or, inf, 0.5) },
		"prob above 1": func(g *Graph, _, or *Node) { g.SetBranchProbs(or, 1.5, -0.5) },
		"NaN beside 1": func(g *Graph, _, or *Node) { g.SetBranchProbs(or, nan, 1) },
	}
	for name, mutate := range cases {
		g, a, or := build()
		mutate(g, a, or)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the graph", name)
		}
	}
	for _, times := range [][2]float64{{nan, nan}, {inf, 1}, {inf, inf}, {1, nan}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTask accepted times %v", times)
				}
			}()
			NewGraph("g").AddTask("A", times[0], times[1])
		}()
	}
	// JSON has no NaN or Inf literal and rejects overflowing numbers, so
	// the decoder's own check only needs the same range as AddTask.
	var g Graph
	src := `{"name":"g","nodes":[{"name":"A","kind":"compute","wcet":1,"acet":2}],"edges":[]}`
	if err := json.Unmarshal([]byte(src), &g); err == nil || !strings.Contains(err.Error(), "invalid times") {
		t.Errorf("UnmarshalJSON accepted ACET > WCET: %v", err)
	}
}
