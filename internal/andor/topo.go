package andor

// TopoOrder returns the graph's nodes in a topological order (every node
// after all of its predecessors). The order is deterministic: among nodes
// whose predecessors are all placed, the one with the smallest ID goes
// first. It returns false if the graph contains a cycle.
func (g *Graph) TopoOrder() ([]*Node, bool) {
	order := make([]*Node, len(g.nodes))
	placed := g.topoInto(order, make([]int32, len(g.nodes)))
	return order[:placed], placed == len(g.nodes)
}

// topoInto writes TopoOrder's order into order, which holds len(g.nodes)
// nodes, with indeg as in-degree scratch of the same length, and returns
// the number of nodes placed: all of them unless the graph has a cycle.
// The frontier lives in order behind the placed nodes, sorted by ID; every
// node is pushed at most once, so it never outgrows the array.
func (g *Graph) topoInto(order []*Node, indeg []int32) int {
	head, tail := 0, 0
	push := func(v *Node) {
		i := tail
		tail++
		for i > head && order[i-1].ID > v.ID {
			order[i] = order[i-1]
			i--
		}
		order[i] = v
	}
	for _, v := range g.nodes {
		indeg[v.ID] = int32(len(v.Preds()))
		if len(v.Preds()) == 0 {
			push(v)
		}
	}
	for head < tail {
		v := order[head]
		head++
		for _, s := range v.Succs() {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				push(s)
			}
		}
	}
	return head
}

// CriticalPathWCET returns the length in seconds of the longest
// WCET-weighted path through the graph, treating Or branches like And
// branches (i.e. the structural worst case with every branch present). It is
// a quick lower bound on the canonical schedule length of the longest
// execution path; the scheduler's section analysis computes the exact value.
// It returns 0 for cyclic graphs.
func (g *Graph) CriticalPathWCET() float64 {
	order, ok := g.TopoOrder()
	if !ok {
		return 0
	}
	finish := make([]float64, len(g.nodes))
	var longest float64
	for _, v := range order {
		var start float64
		for _, p := range v.Preds() {
			if finish[p.ID] > start {
				start = finish[p.ID]
			}
		}
		finish[v.ID] = start + v.WCET
		if finish[v.ID] > longest {
			longest = finish[v.ID]
		}
	}
	return longest
}
