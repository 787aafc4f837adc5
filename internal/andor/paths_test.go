package andor

import (
	"math"
	"strings"
	"testing"
)

func TestPathsSingle(t *testing.T) {
	g, _, _, _, _, _ := diamond(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := s.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if p.Prob != 1 || len(p.Choices) != 0 || len(p.Sections) != 1 {
		t.Errorf("unexpected path %+v", p)
	}
	if !close(p.WCETSum(), 19e-3) || !close(p.ACETSum(), 11e-3) {
		t.Errorf("path sums wrong: %g/%g", p.WCETSum(), p.ACETSum())
	}
	if s.NumPaths() != 1 {
		t.Errorf("NumPaths = %d", s.NumPaths())
	}
}

func TestPathsOrFork(t *testing.T) {
	g := orFork(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := s.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	var sum float64
	for _, p := range paths {
		sum += p.Prob
		if len(p.Sections) != 3 { // {A}, branch, {D}
			t.Errorf("path sections = %d, want 3", len(p.Sections))
		}
		if len(p.Choices) != 2 { // O1 fork + O2 join
			t.Errorf("path choices = %d, want 2", len(p.Choices))
		}
	}
	if !close(sum, 1) {
		t.Errorf("path probabilities sum to %g", sum)
	}
	if s.NumPaths() != 2 {
		t.Errorf("NumPaths = %d", s.NumPaths())
	}
	if str := paths[0].String(); !strings.Contains(str, "O1/0") || !strings.Contains(str, "p=0.3") {
		t.Errorf("path String = %q", str)
	}
	// WCET of branch-0 path: A(8) + B(8) + D(2).
	if !close(paths[0].WCETSum(), 18e-3) {
		t.Errorf("branch-0 WCETSum = %g", paths[0].WCETSum())
	}
	if !close(paths[1].WCETSum(), 15e-3) {
		t.Errorf("branch-1 WCETSum = %g", paths[1].WCETSum())
	}
}

func TestPathsLimit(t *testing.T) {
	g := orFork(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Paths(1); err == nil {
		t.Error("want ErrTooManyPaths")
	}
	if paths, err := s.Paths(2); err != nil || len(paths) != 2 {
		t.Errorf("Paths(2) = %d paths, err %v", len(paths), err)
	}
}

func TestNumPathsExponentialGraphIsLinearTime(t *testing.T) {
	// A chain of k independent binary OR diamonds has 2^k paths; NumPaths
	// must still answer via memoization.
	g := NewGraph("expo")
	prev := g.AddTask("t0", 1e-3, 1e-3)
	const k = 20
	for i := 0; i < k; i++ {
		or := g.AddOr("O" + string(rune('a'+i)))
		g.AddEdge(prev, or)
		l := g.AddTask("l"+string(rune('a'+i)), 1e-3, 1e-3)
		r := g.AddTask("r"+string(rune('a'+i)), 1e-3, 1e-3)
		g.AddEdge(or, l)
		g.AddEdge(or, r)
		g.SetBranchProbs(or, 0.5, 0.5)
		join := g.AddOr("J" + string(rune('a'+i)))
		g.AddEdge(l, join)
		g.AddEdge(r, join)
		next := g.AddTask("t"+string(rune('1'+i)), 1e-3, 1e-3)
		g.AddEdge(join, next)
		prev = next
	}
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumPaths(), 1<<k; got != want {
		t.Errorf("NumPaths = %d, want %d", got, want)
	}
	if _, err := s.Paths(100); err == nil {
		t.Error("Paths should hit the limit")
	}
}

func TestCriticalPathWCET(t *testing.T) {
	g, _, _, _, _, _ := diamond(t)
	// A(8) + B(5) + D(2) = 15ms (And node weightless).
	if got := g.CriticalPathWCET(); !close(got, 15e-3) {
		t.Errorf("CriticalPathWCET = %g, want 15ms", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g, _, _, _, _, _ := diamond(t)
	order, ok := g.TopoOrder()
	if !ok || len(order) != g.Len() {
		t.Fatalf("TopoOrder failed: ok=%v len=%d", ok, len(order))
	}
	pos := map[*Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range g.Nodes() {
		for _, s := range n.Succs() {
			if pos[s] <= pos[n] {
				t.Errorf("topo order violates %q -> %q", n.Name, s.Name)
			}
		}
	}
	// Cyclic graph: not ok.
	bad := NewGraph("cyc")
	a := bad.AddTask("a", 1, 1)
	b := bad.AddTask("b", 1, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, ok := bad.TopoOrder(); ok {
		t.Error("cycle not detected")
	}
	if bad.CriticalPathWCET() != 0 {
		t.Error("CriticalPathWCET on cycle should be 0")
	}
}

func TestPathProbabilitiesSumToOneOnLoops(t *testing.T) {
	g := NewGraph("loop")
	entry, exit := ExpandLoop(g, "L", 2e-3, 1e-3, []float64{0.5, 0.25, 0.25})
	end := g.AddTask("end", 1e-3, 1e-3)
	g.AddEdge(exit, end)
	_ = entry
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := s.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("loop paths = %d, want 3", len(paths))
	}
	var sum float64
	wantProbs := map[int]float64{1: 0.5, 2: 0.25, 3: 0.25}
	for _, p := range paths {
		sum += p.Prob
		// Count loop bodies on the path via WCET: k iterations cost
		// k·2ms + 1ms.
		k := int(math.Round((p.WCETSum() - 1e-3) / 2e-3))
		if !close(p.Prob, wantProbs[k]) {
			t.Errorf("path with %d iterations has prob %g, want %g", k, p.Prob, wantProbs[k])
		}
	}
	if !close(sum, 1) {
		t.Errorf("loop path probabilities sum to %g", sum)
	}
}
