package andor

import (
	"testing"

	"andorsched/internal/exectime"
)

func TestDecomposeSingleSection(t *testing.T) {
	g, _, _, _, _, _ := diamond(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.All) != 1 {
		t.Fatalf("sections = %d, want 1", len(s.All))
	}
	sec := s.First
	if sec.Exit != nil {
		t.Errorf("terminal section has exit %v", sec.Exit)
	}
	if len(sec.Nodes) != 5 {
		t.Errorf("section nodes = %d, want 5", len(sec.Nodes))
	}
	if got, want := sec.WCETSum(), 19e-3; !close(got, want) {
		t.Errorf("WCETSum = %g, want %g", got, want)
	}
	if got, want := sec.ACETSum(), 11e-3; !close(got, want) {
		t.Errorf("ACETSum = %g, want %g", got, want)
	}
	// Topological order within the section.
	pos := map[*Node]int{}
	for i, n := range sec.Nodes {
		pos[n] = i
	}
	for _, n := range sec.Nodes {
		for _, p := range n.Preds() {
			if pos[p] >= pos[n] {
				t.Errorf("section order violates precedence %q -> %q", p.Name, n.Name)
			}
		}
	}
}

func TestDecomposeOrFork(t *testing.T) {
	g := orFork(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	// Sections: {A}, {B}, {C}, {D}.
	if len(s.All) != 4 {
		t.Fatalf("sections = %d, want 4", len(s.All))
	}
	if s.First.Exit != g.NodeByName("O1") {
		t.Errorf("first section exit = %v", s.First.Exit)
	}
	o1 := g.NodeByName("O1")
	branches := s.Branch[o1.ID]
	if len(branches) != 2 {
		t.Fatalf("O1 branches = %d", len(branches))
	}
	if branches[0].Nodes[0] != g.NodeByName("B") || branches[1].Nodes[0] != g.NodeByName("C") {
		t.Error("branch sections wrong")
	}
	if branches[0].Exit != g.NodeByName("O2") || branches[1].Exit != g.NodeByName("O2") {
		t.Error("branches must exit at the join O2")
	}
	o2 := g.NodeByName("O2")
	after := s.Branch[o2.ID]
	if len(after) != 1 || after[0].Nodes[0] != g.NodeByName("D") {
		t.Error("section after join wrong")
	}
	if after[0].Exit != nil {
		t.Error("final section should be terminal")
	}
	// SectionOf coverage.
	for _, n := range g.Nodes() {
		if n.Kind == Or {
			if s.SectionOf[n.ID] != nil {
				t.Errorf("Or node %q assigned to a section", n.Name)
			}
			continue
		}
		if s.SectionOf[n.ID] == nil {
			t.Errorf("node %q not assigned to a section", n.Name)
		}
	}
}

func TestDecomposeOrChain(t *testing.T) {
	// A → O1 ─→ O2 → B : an Or branch leading directly to another Or gives
	// a zero-length section.
	g := NewGraph("orchain")
	a := g.AddTask("A", 1e-3, 1e-3)
	o1 := g.AddOr("O1")
	o2 := g.AddOr("O2")
	b := g.AddTask("B", 1e-3, 1e-3)
	g.AddEdge(a, o1)
	g.AddEdge(o1, o2)
	g.AddEdge(o2, b)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	br := s.Branch[o1.ID]
	if len(br) != 1 || len(br[0].Nodes) != 0 || br[0].Exit != o2 {
		t.Fatalf("empty section between Or nodes not built: %+v", br)
	}
}

func TestDecomposeTerminalOr(t *testing.T) {
	// A → O1 with no successors: a terminal barrier is allowed.
	g := NewGraph("terminalor")
	a := g.AddTask("A", 1e-3, 1e-3)
	o1 := g.AddOr("O1")
	g.AddEdge(a, o1)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.First.Exit != o1 {
		t.Error("first section should exit at O1")
	}
	if got := s.Branch[o1.ID]; len(got) != 0 {
		t.Errorf("terminal Or should have no branches, got %d", len(got))
	}
}

func TestDecomposeSharedJoinSectionIsMemoized(t *testing.T) {
	g := orFork(t)
	s, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	o2 := g.NodeByName("O2")
	// Both O1 branches exit at O2; the section after O2 must be a single
	// shared object.
	if s.Branch[o2.ID][0] == nil {
		t.Fatal("join continuation missing")
	}
	count := 0
	for _, sec := range s.All {
		if len(sec.Nodes) == 1 && sec.Nodes[0] == g.NodeByName("D") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("join section duplicated %d times", count)
	}
}

func TestDecomposeErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := Decompose(NewGraph("empty")); err == nil {
			t.Error("want error")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g := NewGraph("cycle")
		a := g.AddTask("a", 1, 1)
		b := g.AddTask("b", 1, 1)
		g.AddEdge(a, b)
		g.AddEdge(b, a)
		if _, err := Decompose(g); err == nil {
			t.Error("want cycle error")
		}
	})
	t.Run("two exits", func(t *testing.T) {
		// A → O1, A → B → O2: one section reaching two OR nodes.
		g := NewGraph("twoexits")
		a := g.AddTask("A", 1, 1)
		b := g.AddTask("B", 1, 1)
		o1 := g.AddOr("O1")
		o2 := g.AddOr("O2")
		c := g.AddTask("C", 1, 1)
		d := g.AddTask("D", 1, 1)
		g.AddEdge(a, o1)
		g.AddEdge(a, b)
		g.AddEdge(b, o2)
		g.AddEdge(o1, c)
		g.AddEdge(o2, d)
		if _, err := Decompose(g); err == nil {
			t.Error("want multiple-exit error")
		}
	})
	t.Run("or root", func(t *testing.T) {
		g := NewGraph("orroot")
		o := g.AddOr("O")
		a := g.AddTask("A", 1, 1)
		g.AddEdge(o, a)
		if _, err := Decompose(g); err == nil {
			t.Error("want or-root error")
		}
	})
	t.Run("branch entry with extra pred", func(t *testing.T) {
		// B follows O1 but also depends on A directly: crosses the barrier.
		g := NewGraph("extrapred")
		a := g.AddTask("A", 1, 1)
		o1 := g.AddOr("O1")
		b := g.AddTask("B", 1, 1)
		g.AddEdge(a, o1)
		g.AddEdge(a, b)
		g.AddEdge(o1, b)
		if _, err := Decompose(g); err == nil {
			t.Error("want branch-entry error")
		}
	})
	t.Run("cross-branch edge", func(t *testing.T) {
		// An edge from one OR branch into the other: the target could wait
		// forever on a task that never executes.
		g := NewGraph("crossbranch")
		a := g.AddTask("A", 1, 1)
		o1 := g.AddOr("O1")
		b := g.AddTask("B", 1, 1)
		c := g.AddTask("C", 1, 1)
		c2 := g.AddTask("C2", 1, 1)
		g.AddEdge(a, o1)
		g.AddEdge(o1, b)
		g.AddEdge(o1, c)
		g.SetBranchProbs(o1, 0.5, 0.5)
		g.AddEdge(c, c2)
		g.AddEdge(b, c2)
		if _, err := Decompose(g); err == nil {
			t.Error("want cross-section error")
		}
	})
}

// crossingText has two edges, C -> D and C -> E, that enter the first
// section from the branch after O.
const crossingText = `task A 1ms 1ms
task B 1ms 1ms
or O
task C 1ms 1ms
task D 1ms 1ms
task E 1ms 1ms
edge A -> O
edge A -> B
edge O -> C
edge C -> D
edge C -> E
edge B -> D
edge B -> E`

// TestCrossingEdgeErrorIsDeterministic: a graph with several
// boundary-crossing edges is refused for the first of them in the
// section's topological order, every time.
func TestCrossingEdgeErrorIsDeterministic(t *testing.T) {
	const want = `andor: edge "C" -> "D" crosses a section boundary`
	for i := 0; i < 100; i++ {
		_, err := ParseText(crossingText)
		if err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %s", i, err, want)
		}
	}
}

// TestDecomposeMatchesReference holds Decompose and Validate to the
// reference decomposition on random applications and on every graph the
// other tests of this file build.
func TestDecomposeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		checkAgainstReference(t, RandomGraph(exectime.NewSource(seed), DefaultRandomOpts()).Clone())
	}
	g, _, _, _, _, _ := diamond(t)
	checkAgainstReference(t, g)
	checkAgainstReference(t, orFork(t))
}
