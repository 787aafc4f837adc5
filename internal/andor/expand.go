package andor

import (
	"fmt"
	"math"
)

// ExpandLoopFunc unrolls a loop with a bounded iteration count into the
// equivalent Or structure described in §2.1 of the paper. iterProbs[k] is
// the probability that the loop executes exactly k+1 iterations; the
// probabilities must sum to 1 and the last must be reachable (the loop runs
// at least once and at most len(iterProbs) times).
//
// body is called once per unrolled iteration (1-based) and must create the
// iteration's subgraph inside g, returning its entry node (which must have
// no predecessors yet and must remain the only entry) and its exit node.
//
// The generated structure is:
//
//	body(1) → O₁ ─exit──────────────┐
//	           └cont→ body(2) → O₂ ─┤→ Join (Or)
//	                     ⋮           │
//	                  body(N) ──────┘
//
// where Oₖ continues with conditional probability P(N>k)/P(N≥k). The
// returned entry is body(1)'s entry (connect the loop's predecessors to it,
// or leave it as an application root) and the returned exit is the Join Or
// node (connect it to the loop's successor, or leave it as a sink).
func ExpandLoopFunc(g *Graph, name string, iterProbs []float64,
	body func(iter int) (entry, exit *Node)) (entry, exit *Node) {
	n := len(iterProbs)
	if n == 0 {
		panic(fmt.Sprintf("andor: ExpandLoopFunc(%q): empty iteration distribution", name))
	}
	var sum float64
	for k, p := range iterProbs {
		if p < 0 {
			panic(fmt.Sprintf("andor: ExpandLoopFunc(%q): negative probability for %d iterations", name, k+1))
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("andor: ExpandLoopFunc(%q): iteration probabilities sum to %g, want 1", name, sum))
	}

	join := g.AddOr(name + ".join")
	// tail[k] = P(N >= k+1 iterations).
	tail := sum
	var first *Node
	var prevOr *Node // the "continue" Or of the previous iteration
	for k := 0; k < n; k++ {
		e, x := body(k + 1)
		if len(e.Preds()) != 0 {
			panic(fmt.Sprintf("andor: ExpandLoopFunc(%q): body %d entry %q already has predecessors", name, k+1, e.Name))
		}
		if first == nil {
			first = e
		}
		if prevOr != nil {
			g.AddEdge(prevOr, e)
		}
		if k == n-1 {
			// Last iteration: no decision left, go straight to the join.
			g.AddEdge(x, join)
			break
		}
		or := g.AddOr(fmt.Sprintf("%s.it%d", name, k+1))
		g.AddEdge(x, or)
		// Successor order: exit first (edge to join), continue second
		// (edge added at the top of the next loop turn).
		g.AddEdge(or, join)
		pStop := iterProbs[k] / tail
		tail -= iterProbs[k]
		prevOr = or
		// prob for [exit, continue]; continue edge appended next turn, so
		// record now and rely on SetBranchProbs length check afterwards.
		or.prob = &[]float64{pStop, 1 - pStop}
	}
	return first, join
}

// ExpandLoop is the single-task convenience form of ExpandLoopFunc: the
// loop body is one computation task with the given per-iteration WCET and
// ACET. Iteration k's task is named "<name>#k".
func ExpandLoop(g *Graph, name string, wcet, acet float64, iterProbs []float64) (entry, exit *Node) {
	return ExpandLoopFunc(g, name, iterProbs, func(iter int) (*Node, *Node) {
		t := g.AddTask(fmt.Sprintf("%s#%d", name, iter), wcet, acet)
		return t, t
	})
}
