package andor

import (
	"strings"
	"testing"
)

// diamond builds A → {B, C} → And → D, a minimal AND-parallel graph.
func diamond(t *testing.T) (*Graph, *Node, *Node, *Node, *Node, *Node) {
	t.Helper()
	g := NewGraph("diamond")
	a := g.AddTask("A", 8e-3, 5e-3)
	b := g.AddTask("B", 5e-3, 3e-3)
	c := g.AddTask("C", 4e-3, 2e-3)
	and := g.AddAnd("And")
	d := g.AddTask("D", 2e-3, 1e-3)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, and)
	g.AddEdge(c, and)
	g.AddEdge(and, d)
	return g, a, b, c, and, d
}

// orFork builds A → O1 ─30%→ B ─┐
//
//	└70%→ C ─┴→ O2 → D  (Figure 1b's shape).
func orFork(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("orfork")
	a := g.AddTask("A", 8e-3, 5e-3)
	o1 := g.AddOr("O1")
	b := g.AddTask("B", 8e-3, 6e-3)
	c := g.AddTask("C", 5e-3, 3e-3)
	o2 := g.AddOr("O2")
	d := g.AddTask("D", 2e-3, 1e-3)
	g.AddEdge(a, o1)
	g.AddEdge(o1, b)
	g.AddEdge(o1, c)
	g.SetBranchProbs(o1, 0.3, 0.7)
	g.AddEdge(b, o2)
	g.AddEdge(c, o2)
	g.AddEdge(o2, d)
	return g
}

func TestGraphBasics(t *testing.T) {
	g, a, b, c, and, d := diamond(t)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if g.Node(a.ID) != a {
		t.Error("Node(id) did not return the node")
	}
	if g.NodeByName("C") != c {
		t.Error("NodeByName failed")
	}
	if g.NodeByName("nope") != nil {
		t.Error("NodeByName on missing name should be nil")
	}
	if got := g.ComputeNodes(); len(got) != 4 {
		t.Errorf("ComputeNodes count = %d, want 4", len(got))
	}
	if len(a.Preds()) != 0 || len(a.Succs()) == 0 || len(d.Succs()) != 0 {
		t.Error("source/sink adjacency wrong")
	}
	if len(and.Preds()) != 2 || len(and.Succs()) != 1 {
		t.Error("And node arity wrong")
	}
	if len(b.Preds()) != 1 || b.Preds()[0] != a {
		t.Error("edge bookkeeping wrong")
	}
	_ = c
}

func TestTotalAndScaleACET(t *testing.T) {
	g, _, _, _, _, _ := diamond(t)
	if got, want := g.TotalWCET(), 19e-3; !close(got, want) {
		t.Errorf("TotalWCET = %g, want %g", got, want)
	}
	if got, want := g.TotalACET(), 11e-3; !close(got, want) {
		t.Errorf("TotalACET = %g, want %g", got, want)
	}
	g.ScaleACET(0.5)
	if got, want := g.TotalACET(), 9.5e-3; !close(got, want) {
		t.Errorf("TotalACET after ScaleACET(0.5) = %g, want %g", got, want)
	}
	mustPanic(t, func() { g.ScaleACET(0) })
	mustPanic(t, func() { g.ScaleACET(1.5) })
}

func TestAddTaskRejectsBadTimes(t *testing.T) {
	g := NewGraph("bad")
	mustPanic(t, func() { g.AddTask("x", 0, 0) })
	mustPanic(t, func() { g.AddTask("x", 1, 0) })
	mustPanic(t, func() { g.AddTask("x", 1, 2) })
}

func TestAddEdgeRejectsDuplicatesAndSelfLoops(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	g.AddEdge(a, b)
	mustPanic(t, func() { g.AddEdge(a, b) })
	mustPanic(t, func() { g.AddEdge(a, a) })
}

func TestBranchProb(t *testing.T) {
	g := orFork(t)
	o1 := g.NodeByName("O1")
	if got := o1.BranchProb(0); !close(got, 0.3) {
		t.Errorf("BranchProb(0) = %g", got)
	}
	if got := o1.BranchProb(1); !close(got, 0.7) {
		t.Errorf("BranchProb(1) = %g", got)
	}
	o2 := g.NodeByName("O2")
	if got := o2.BranchProb(0); got != 1 {
		t.Errorf("single-successor BranchProb = %g, want 1", got)
	}
	mustPanic(t, func() { o1.BranchProb(2) })
	mustPanic(t, func() { g.NodeByName("A").BranchProb(0) })
}

func TestSetBranchProbsChecks(t *testing.T) {
	g := orFork(t)
	o1 := g.NodeByName("O1")
	mustPanic(t, func() { g.SetBranchProbs(o1, 0.5) }) // wrong count
	a := g.NodeByName("A")
	mustPanic(t, func() { g.SetBranchProbs(a, 1.0) }) // not an Or
}

func TestClone(t *testing.T) {
	g := orFork(t)
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	for _, n := range g.Nodes() {
		cn := c.Node(n.ID)
		if cn.Name != n.Name || cn.Kind != n.Kind || cn.WCET != n.WCET || cn.ACET != n.ACET {
			t.Fatalf("clone node %q differs", n.Name)
		}
		if len(cn.Succs()) != len(n.Succs()) || len(cn.Preds()) != len(n.Preds()) {
			t.Fatalf("clone node %q edges differ", n.Name)
		}
		if cn == n {
			t.Fatal("clone shares nodes with original")
		}
	}
	// Mutating the clone must not affect the original.
	c.ScaleACET(0.1)
	if g.NodeByName("A").ACET != 5e-3 {
		t.Error("ScaleACET on clone mutated original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestChain(t *testing.T) {
	g := NewGraph("chain")
	a := g.AddTask("a", 1, 1)
	b := g.AddTask("b", 1, 1)
	c := g.AddTask("c", 1, 1)
	g.Chain(a, b, c)
	if len(a.Succs()) != 1 || len(b.Succs()) != 1 || len(b.Preds()) != 1 || len(c.Preds()) != 1 {
		t.Error("Chain did not add edges a→b→c")
	}
}

func TestNodeAndKindString(t *testing.T) {
	g := orFork(t)
	if s := g.NodeByName("A").String(); !strings.Contains(s, "A(") {
		t.Errorf("compute String = %q", s)
	}
	if s := g.NodeByName("O1").String(); !strings.Contains(s, "[or]") {
		t.Errorf("or String = %q", s)
	}
	if Compute.String() != "compute" || And.String() != "and" || Or.String() != "or" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "kind(9)") {
		t.Error("unknown Kind.String wrong")
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12+1e-9*abs(b)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
