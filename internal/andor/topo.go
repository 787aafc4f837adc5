package andor

// TopoOrder returns the graph's nodes in a topological order (every node
// after all of its predecessors). The order is deterministic: among nodes
// whose predecessors are all placed, the one with the smallest ID goes
// first. It returns false if the graph contains a cycle.
func (g *Graph) TopoOrder() ([]*Node, bool) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for _, v := range g.nodes {
		indeg[v.ID] = len(v.pred)
	}
	// A simple ordered frontier. Graph sizes here are small (at most a few
	// thousand nodes), so an O(V²) scan would also do; we keep a sorted
	// insertion for determinism with O(V·width) behaviour. Every node is
	// pushed at most once and pops only advance the start, so the
	// frontier never outgrows a backing array of n.
	frontier := make([]*Node, 0, n)
	push := func(v *Node) {
		i := len(frontier)
		frontier = append(frontier, nil)
		for i > 0 && frontier[i-1].ID > v.ID {
			frontier[i] = frontier[i-1]
			i--
		}
		frontier[i] = v
	}
	for _, v := range g.nodes {
		if indeg[v.ID] == 0 {
			push(v)
		}
	}
	order := make([]*Node, 0, n)
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		for _, s := range v.succ {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				push(s)
			}
		}
	}
	return order, len(order) == n
}

// reachableForward returns the set of nodes reachable from the given seeds
// (inclusive), optionally stopping traversal at Or nodes (the Or node itself
// is included but its successors are not followed).
func reachableForward(seeds []*Node, stopAtOr bool) map[*Node]bool {
	seen := make(map[*Node]bool)
	stack := append([]*Node(nil), seeds...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if stopAtOr && v.Kind == Or {
			continue
		}
		stack = append(stack, v.succ...)
	}
	return seen
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
		for _, p := range v.pred {
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
