// Package andor implements the extended AND/OR graph application model of
// Zhu, AbouGhazaleh, Mossé and Melhem, "Power Aware Scheduling for AND/OR
// Graphs in Multi-Processor Real-Time Systems" (ICPP 2002), section 2.1.
//
// An application is a directed acyclic graph whose vertices are either
// computation nodes or dummy synchronization nodes:
//
//   - A Compute node carries a worst-case execution time (WCET) and an
//     average-case execution time (ACET), both expressed in seconds at the
//     maximum processor speed.
//   - An And node becomes ready when all of its predecessors have finished;
//     all of its successors depend on it. It exposes parallelism.
//   - An Or node becomes ready when any one of its predecessors finishes,
//     and exactly one of its successors executes after it, chosen according
//     to the branch probabilities annotated on the outgoing edges. It
//     encodes data-dependent control flow (different execution paths).
//
// Following the paper's simplification, an Or node cannot be processed
// concurrently with other work: all processors synchronize (drain) at an Or
// node. Execution therefore decomposes into "program sections" — AND-only
// subgraphs separated by Or nodes — which this package computes (see
// Sections). The application as a whole carries a deadline, supplied to the
// scheduler rather than stored on the graph.
//
// Loops are not representable directly (the graph has no back edges); use
// ExpandLoop to unroll a loop with a known maximum iteration count and an
// iteration-count probability distribution into an equivalent Or structure,
// as described in section 2.1 of the paper.
package andor

import "fmt"

// Kind discriminates the three vertex kinds of the extended AND/OR model.
type Kind uint8

const (
	// Compute is a real task with WCET/ACET attributes.
	Compute Kind = iota
	// And is a dummy synchronization node that waits for all predecessors.
	And
	// Or is a dummy synchronization node that waits for one predecessor and
	// selects one successor (a global synchronization point).
	Or
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case And:
		return "and"
	case Or:
		return "or"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a vertex of an AND/OR graph. Nodes are created through the Graph
// methods (AddTask, AddAnd, AddOr) and must not be shared between graphs.
type Node struct {
	// ID is the node's index in its Graph, assigned at creation, stable for
	// the graph's lifetime and usable as a dense array index.
	ID int
	// Name is a human-readable label used in traces, DOT output and errors.
	Name string
	// Kind is the vertex kind.
	Kind Kind
	// nsucc counts the successors at the front of adj.
	nsucc int32
	// WCET is the worst-case execution time in seconds at maximum processor
	// speed. Zero for synchronization nodes.
	WCET float64
	// ACET is the average-case execution time in seconds at maximum
	// processor speed. Zero for synchronization nodes.
	ACET float64
	// Class is the node's preferred processor class on heterogeneous
	// platforms (the `@class` tag of the .andor format). Empty means no
	// preference; homogeneous schedulers ignore it. Set via
	// Graph.SetClass so the graph's memoized analyses are invalidated.
	Class string

	// adj holds the successors, then the predecessors, each in the order
	// their edges were added.
	adj []*Node
	// prob, on an Or node, holds the branch probability of each successor,
	// parallel to the successors. Nil on other kinds and on Or nodes with a
	// single successor (implicitly probability 1). Few nodes have any, so
	// the slice is held by a pointer, which keeps Node a word smaller.
	prob *[]float64
}

// probs returns the node's branch probabilities, nil if it has none.
func (n *Node) probs() []float64 {
	if n.prob == nil {
		return nil
	}
	return *n.prob
}

// Succs returns the node's successors. The returned slice is owned by the
// graph and must not be modified.
func (n *Node) Succs() []*Node { return n.adj[:n.nsucc:n.nsucc] }

// Preds returns the node's predecessors. The returned slice is owned by the
// graph and must not be modified.
func (n *Node) Preds() []*Node { return n.adj[n.nsucc:len(n.adj):len(n.adj)] }

// BranchProb returns the probability that successor i is taken after this
// Or node. It panics if the node is not an Or node or i is out of range.
// For an Or node with a single successor it returns 1.
func (n *Node) BranchProb(i int) float64 {
	if n.Kind != Or {
		panic(fmt.Sprintf("andor: BranchProb on %s node %q", n.Kind, n.Name))
	}
	if i < 0 || i >= len(n.Succs()) {
		panic(fmt.Sprintf("andor: BranchProb index %d out of range on %q", i, n.Name))
	}
	if n.prob == nil {
		return 1
	}
	return (*n.prob)[i]
}

// String returns a compact description such as "B(5ms/3ms)" or "O1[or]".
func (n *Node) String() string {
	switch n.Kind {
	case Compute:
		return fmt.Sprintf("%s(%.4g/%.4g)", n.Name, n.WCET, n.ACET)
	default:
		return fmt.Sprintf("%s[%s]", n.Name, n.Kind)
	}
}
