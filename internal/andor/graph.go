package andor

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Graph is a mutable AND/OR application graph. Build it with AddTask,
// AddAnd, AddOr, AddEdge and SetBranchProbs, then call Validate before
// handing it to a scheduler. A Graph is not safe for concurrent mutation;
// once built and validated it may be shared read-only between goroutines.
//
// Validation and section decomposition are memoized on the graph: the
// first successful Validate / Decompose records its result, every mutating
// method discards it, and repeated compiles of an unchanged graph (sizing
// searches, experiment grids) skip both passes. The memo fields are
// atomics so concurrent read-only users — several NewPlan calls on one
// shared graph — stay race-free.
type Graph struct {
	// Name labels the application in traces and reports.
	Name  string
	nodes []*Node

	validated atomic.Bool
	secs      atomic.Pointer[Sections]
}

// invalidate discards the memoized validation and decomposition after a
// mutation.
func (g *Graph) invalidate() {
	g.validated.Store(false)
	g.secs.Store(nil)
}

// NewGraph returns an empty graph with the given application name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// Len returns the number of nodes in the graph.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all nodes in creation (ID) order. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Node returns the node with the given ID. It panics on out-of-range IDs.
func (g *Graph) Node(id int) *Node {
	return g.nodes[id]
}

// NodeByName returns the first node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

func (g *Graph) add(n *Node) *Node {
	g.invalidate()
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// AddTask adds a computation node with the given worst-case and
// average-case execution times (seconds at maximum speed).
// It panics unless 0 < acet <= wcet < +Inf (NaN included); use Validate for
// error reporting on programmatically built graphs instead of relying on
// this programming-error check.
func (g *Graph) AddTask(name string, wcet, acet float64) *Node {
	if !validTimes(wcet, acet) {
		panic(fmt.Sprintf("andor: task %q has invalid times wcet=%g acet=%g", name, wcet, acet))
	}
	return g.add(&Node{Name: name, Kind: Compute, WCET: wcet, ACET: acet})
}

// AddAnd adds an AND synchronization node.
func (g *Graph) AddAnd(name string) *Node {
	return g.add(&Node{Name: name, Kind: And})
}

// AddOr adds an OR synchronization node. If the node ends up with more than
// one successor, branch probabilities must be assigned with SetBranchProbs.
func (g *Graph) AddOr(name string) *Node {
	return g.add(&Node{Name: name, Kind: Or})
}

// AddEdge adds the dependence edge from → to, meaning `to` depends on
// `from`. Duplicate edges and self-loops panic (they are always bugs in the
// builder, never data-dependent).
func (g *Graph) AddEdge(from, to *Node) {
	g.invalidate()
	if from == to {
		panic(fmt.Sprintf("andor: self-loop on %q", from.Name))
	}
	for _, s := range from.Succs() {
		if s == to {
			panic(fmt.Sprintf("andor: duplicate edge %q -> %q", from.Name, to.Name))
		}
	}
	from.adj = slices.Insert(from.adj, int(from.nsucc), to)
	from.nsucc++
	to.adj = append(to.adj, from)
}

// Chain adds edges linking each node to the next: Chain(a,b,c) adds a→b and
// b→c. It is a convenience for building pipelines.
func (g *Graph) Chain(nodes ...*Node) {
	for i := 1; i < len(nodes); i++ {
		g.AddEdge(nodes[i-1], nodes[i])
	}
}

// SetBranchProbs assigns the probability of each successor branch of an Or
// node, in successor order (the order the edges were added). It panics if
// or is not an Or node or the count does not match the successor count;
// probability values themselves are checked by Validate.
func (g *Graph) SetBranchProbs(or *Node, probs ...float64) {
	if or.Kind != Or {
		panic(fmt.Sprintf("andor: SetBranchProbs on %s node %q", or.Kind, or.Name))
	}
	if len(probs) != len(or.Succs()) {
		panic(fmt.Sprintf("andor: SetBranchProbs on %q: %d probs for %d successors",
			or.Name, len(probs), len(or.Succs())))
	}
	g.invalidate()
	p := append([]float64(nil), probs...)
	or.prob = &p
}

// SetClass tags a computation node with a preferred processor class for
// heterogeneous platforms (see Node.Class). It panics on synchronization
// nodes, which are placement-free.
func (g *Graph) SetClass(n *Node, class string) {
	if n.Kind != Compute {
		panic(fmt.Sprintf("andor: SetClass on %s node %q", n.Kind, n.Name))
	}
	g.invalidate()
	n.Class = class
}

// ComputeNodes returns all computation nodes in ID order.
func (g *Graph) ComputeNodes() []*Node {
	var tasks []*Node
	for _, n := range g.nodes {
		if n.Kind == Compute {
			tasks = append(tasks, n)
		}
	}
	return tasks
}

// TotalWCET returns the sum of all computation nodes' worst-case execution
// times — an upper bound on the total work of any single execution path.
func (g *Graph) TotalWCET() float64 {
	var sum float64
	for _, n := range g.nodes {
		sum += n.WCET
	}
	return sum
}

// TotalACET returns the sum of all computation nodes' average-case
// execution times.
func (g *Graph) TotalACET() float64 {
	var sum float64
	for _, n := range g.nodes {
		sum += n.ACET
	}
	return sum
}

// ScaleACET sets every computation node's ACET to alpha times its WCET,
// clamped to (0, WCET]. It is used by experiments that sweep the
// average-to-worst-case ratio α of an application. Alpha must be in (0, 1].
func (g *Graph) ScaleACET(alpha float64) {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("andor: ScaleACET alpha %g outside (0,1]", alpha))
	}
	g.invalidate()
	for _, n := range g.nodes {
		if n.Kind == Compute {
			n.ACET = alpha * n.WCET
		}
	}
}

// Clone returns a deep copy of the graph. The copy's nodes have the same
// IDs, names, kinds, attributes and edges as the original's, so analyses
// performed on the clone (e.g. ACET scaling sweeps) do not disturb the
// original.
//
// The copy is built as a few slabs: one array of nodes, one array of node
// pointers that also backs every node's successors and predecessors, one
// array of branch probabilities and one of the Or nodes' slices of them,
// and one string holding every name. Each node's part is carved with a
// full slice expression, so a later AddEdge reallocates the list it grows
// instead of overwriting a neighbour's.
func (g *Graph) Clone() *Graph {
	n, ends, ors, probs, size := len(g.nodes), 0, 0, 0, len(g.Name)
	for _, v := range g.nodes {
		ends += len(v.adj)
		if p := v.probs(); len(p) > 0 {
			ors, probs = ors+1, probs+len(p)
		}
		size += len(v.Name) + len(v.Class)
	}
	var names strings.Builder
	names.Grow(size)
	names.WriteString(g.Name)
	for _, v := range g.nodes {
		names.WriteString(v.Name)
		names.WriteString(v.Class)
	}
	text := names.String()
	cut := func(k int) string {
		s := text[:k]
		text = text[k:]
		return s
	}

	c := &Graph{Name: cut(len(g.Name))}
	slab, ptrs := make([]Node, n), make([]*Node, n+ends)
	rows, probBuf := make([][]float64, ors), make([]float64, probs)
	c.nodes = carve(&ptrs, n)
	for i := range slab {
		c.nodes[i] = &slab[i]
	}
	for i, v := range g.nodes {
		slab[i] = Node{ID: i, Name: cut(len(v.Name)), Kind: v.Kind, WCET: v.WCET, ACET: v.ACET,
			Class: cut(len(v.Class)), nsucc: v.nsucc}
		slab[i].adj = carve(&ptrs, len(v.adj))
		for j, e := range v.adj {
			slab[i].adj[j] = c.nodes[e.ID]
		}
		if p := v.probs(); len(p) > 0 {
			row := carve(&rows, 1)
			row[0] = carve(&probBuf, len(p))
			copy(row[0], p)
			slab[i].prob = &row[0]
		}
	}
	return c
}
