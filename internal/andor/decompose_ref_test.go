package andor

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file freezes the pointer-map decomposition that Decompose replaced,
// as a reference the slab-built one is differentially tested against
// (FuzzDecompose, FuzzParseText). It is the earlier code with one change:
// a section's boundary-crossing edge is looked for in the section's
// topological order, not in map order, so its error is deterministic.

// refTopoOrder is the earlier TopoOrder.
func refTopoOrder(g *Graph) ([]*Node, bool) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for _, v := range g.nodes {
		indeg[v.ID] = len(v.Preds())
	}
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
		for _, s := range v.Succs() {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				push(s)
			}
		}
	}
	return order, len(order) == n
}

// refDecompose is the earlier Decompose, without the graph memo.
func refDecompose(g *Graph) (*Sections, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("andor: graph %q is empty", g.Name)
	}
	topo, ok := refTopoOrder(g)
	if !ok {
		return nil, fmt.Errorf("andor: graph %q contains a cycle", g.Name)
	}
	topoIdx := make([]int, g.Len())
	for i, n := range topo {
		topoIdx[n.ID] = i
	}

	s := &Sections{
		Graph:     g,
		Branch:    make([][]*Section, g.Len()),
		SectionOf: make([]*Section, g.Len()),
	}
	byEntry := make(map[*Node]*Section)
	byEmptyExit := make(map[*Node]*Section)

	var build func(entries []*Node) (*Section, error)
	build = func(entries []*Node) (*Section, error) {
		sec := &Section{ID: len(s.All), Entries: entries}
		s.All = append(s.All, sec)

		entrySet := make(map[*Node]bool, len(entries))
		for _, e := range entries {
			entrySet[e] = true
		}
		members := make(map[*Node]bool)
		var exits []*Node
		stack := append([]*Node(nil), entries...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.Kind == Or {
				dup := false
				for _, e := range exits {
					if e == v {
						dup = true
					}
				}
				if !dup {
					exits = append(exits, v)
				}
				continue
			}
			if members[v] {
				continue
			}
			members[v] = true
			stack = append(stack, v.Succs()...)
		}
		if len(exits) > 1 {
			names := make([]string, len(exits))
			for i, e := range exits {
				names[i] = e.Name
			}
			return nil, fmt.Errorf("andor: section starting at %v reaches %d OR nodes %v; processors can only synchronize at one",
				nodeNames(entries), len(exits), names)
		}
		if len(exits) == 1 {
			sec.Exit = exits[0]
		}

		sec.Nodes = make([]*Node, 0, len(members))
		for v := range members {
			sec.Nodes = append(sec.Nodes, v)
		}
		sort.Slice(sec.Nodes, func(i, j int) bool {
			return topoIdx[sec.Nodes[i].ID] < topoIdx[sec.Nodes[j].ID]
		})
		// The ordering fix: the first crossing edge in topological order.
		for _, v := range sec.Nodes {
			if entrySet[v] {
				continue
			}
			for _, p := range v.Preds() {
				if !members[p] {
					return nil, fmt.Errorf("andor: edge %q -> %q crosses a section boundary",
						p.Name, v.Name)
				}
			}
		}
		for _, v := range sec.Nodes {
			if s.SectionOf[v.ID] != nil {
				return nil, fmt.Errorf("andor: node %q belongs to two sections", v.Name)
			}
			s.SectionOf[v.ID] = sec
		}

		if sec.Exit != nil {
			if err := refBuildBranches(sec.Exit, s, byEntry, byEmptyExit, build); err != nil {
				return nil, err
			}
		}
		return sec, nil
	}

	var roots []*Node
	for _, n := range g.Nodes() {
		if len(n.Preds()) == 0 {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("andor: graph %q has no source nodes", g.Name)
	}
	for _, r := range roots {
		if r.Kind == Or {
			return nil, fmt.Errorf("andor: root node %q is an OR node; the application must start with computation or AND nodes", r.Name)
		}
	}
	first, err := build(roots)
	if err != nil {
		return nil, err
	}
	s.First = first

	for _, n := range g.nodes {
		if n.Kind == Or {
			if s.Branch[n.ID] == nil && len(n.Succs()) > 0 {
				return nil, fmt.Errorf("andor: OR node %q is unreachable from the roots", n.Name)
			}
			continue
		}
		if s.SectionOf[n.ID] == nil {
			return nil, fmt.Errorf("andor: node %q is unreachable from the roots", n.Name)
		}
	}
	return s, nil
}

// refBuildBranches is the earlier buildBranches.
func refBuildBranches(or *Node, s *Sections, byEntry, byEmptyExit map[*Node]*Section,
	build func([]*Node) (*Section, error)) error {
	if s.Branch[or.ID] != nil {
		return nil
	}
	branches := make([]*Section, len(or.Succs()))
	s.Branch[or.ID] = branches
	for i, succ := range or.Succs() {
		if succ.Kind == Or {
			sec, ok := byEmptyExit[succ]
			if !ok {
				sec = &Section{ID: len(s.All), Exit: succ}
				s.All = append(s.All, sec)
				byEmptyExit[succ] = sec
				if err := refBuildBranches(succ, s, byEntry, byEmptyExit, build); err != nil {
					return err
				}
			}
			branches[i] = sec
			continue
		}
		if sec, ok := byEntry[succ]; ok {
			branches[i] = sec
			continue
		}
		if len(succ.Preds()) != 1 {
			return fmt.Errorf("andor: node %q follows OR node %q but has %d predecessors; a branch entry may only depend on its OR node",
				succ.Name, or.Name, len(succ.Preds()))
		}
		sec, err := build([]*Node{succ})
		if err != nil {
			return err
		}
		byEntry[succ] = sec
		branches[i] = sec
	}
	return nil
}

// refValidate is the earlier Validate, on the reference decomposition.
func refValidate(g *Graph) error {
	if g.Len() == 0 {
		return fmt.Errorf("andor: graph %q is empty", g.Name)
	}
	if _, ok := refTopoOrder(g); !ok {
		return fmt.Errorf("andor: graph %q contains a cycle", g.Name)
	}
	if err := g.checkNodes(); err != nil {
		return err
	}
	_, err := refDecompose(g)
	return err
}

// sectionsShape renders everything a decomposition says by IDs: each
// section's ID, entries, nodes in order and exit, the first section, every
// Or node's branch sections and every node's section.
func sectionsShape(s *Sections) string {
	var b strings.Builder
	secID := func(sec *Section) int {
		if sec == nil {
			return -1
		}
		return sec.ID
	}
	nodeIDs := func(ns []*Node) []int {
		ids := make([]int, len(ns))
		for i, n := range ns {
			ids[i] = n.ID
		}
		return ids
	}
	for i, sec := range s.All {
		exit := -1
		if sec.Exit != nil {
			exit = sec.Exit.ID
		}
		fmt.Fprintf(&b, "S%d id=%d entries=%v nodes=%v exit=%d\n", i, sec.ID, nodeIDs(sec.Entries), nodeIDs(sec.Nodes), exit)
	}
	fmt.Fprintf(&b, "first=%d\n", secID(s.First))
	for id, row := range s.Branch {
		if row == nil {
			continue
		}
		ids := make([]int, len(row))
		for i, sec := range row {
			ids[i] = secID(sec)
		}
		fmt.Fprintf(&b, "branch %d: %v\n", id, ids)
	}
	for id, sec := range s.SectionOf {
		fmt.Fprintf(&b, "node %d in S%d\n", id, secID(sec))
	}
	return b.String()
}

// checkAgainstReference fails t unless Decompose and Validate answer for g
// exactly as the reference does: the same error text, or the same
// sections. g is decomposed as it is and validated as a clone, so both
// paths build their own decomposition; the reference runs first, so no
// memo can answer for it.
func checkAgainstReference(t *testing.T, g *Graph) {
	t.Helper()
	want, wantErr := refDecompose(g)
	wantValid := refValidate(g)
	v := g.Clone()
	got, err := Decompose(g)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Decompose: %v\nreference: %v", err, wantErr)
	}
	if want != nil {
		if got.Graph != g {
			t.Fatal("Decompose names another graph")
		}
		if a, b := sectionsShape(got), sectionsShape(want); a != b {
			t.Fatalf("decomposition differs from the reference\ngot:\n%s\nwant:\n%s", a, b)
		}
	}
	if err := v.Validate(); fmt.Sprint(err) != fmt.Sprint(wantValid) {
		t.Fatalf("Validate: %v\nreference: %v", err, wantValid)
	}
	if wantValid == nil {
		vs, err := Decompose(v)
		if err != nil {
			t.Fatalf("validated graph does not decompose: %v", err)
		}
		if a, b := sectionsShape(vs), sectionsShape(want); a != b {
			t.Fatalf("Validate's decomposition differs from the reference\ngot:\n%s\nwant:\n%s", a, b)
		}
	}
}

// rebuild builds g again through the builder API: nodes in ID order, then
// the edges in an order that reproduces every successor and predecessor
// order (an edge u → v is added once it heads both u's remaining
// successors and v's remaining predecessors), then the probabilities.
func rebuild(t *testing.T, g *Graph) *Graph {
	t.Helper()
	b := NewGraph(g.Name)
	edges := 0
	for _, n := range g.Nodes() {
		switch n.Kind {
		case Compute:
			c := b.AddTask(n.Name, n.WCET, n.ACET)
			if n.Class != "" {
				b.SetClass(c, n.Class)
			}
		case And:
			b.AddAnd(n.Name)
		default:
			b.AddOr(n.Name)
		}
		edges += len(n.Succs())
	}
	nextSucc, nextPred := make([]int, g.Len()), make([]int, g.Len())
	for added := 0; added < edges; {
		progress := false
		for _, u := range g.Nodes() {
			for nextSucc[u.ID] < len(u.Succs()) {
				v := u.Succs()[nextSucc[u.ID]]
				if v.Preds()[nextPred[v.ID]] != u {
					break
				}
				b.AddEdge(b.Node(u.ID), b.Node(v.ID))
				nextSucc[u.ID]++
				nextPred[v.ID]++
				added++
				progress = true
			}
		}
		if !progress {
			t.Fatal("no edge order reproduces the successor and predecessor orders")
		}
	}
	for _, n := range g.Nodes() {
		if p := n.probs(); len(p) == len(n.Succs()) && len(p) > 0 {
			b.SetBranchProbs(b.Node(n.ID), p...)
		} else if p != nil {
			// A prob line followed by more edges: SetBranchProbs refuses
			// the count, but the parser kept it.
			q := append([]float64(nil), p...)
			b.Node(n.ID).prob = &q
		}
	}
	return b
}

// sameGraph fails t unless a and b have the same name and the same nodes
// with the same attributes, successor and predecessor orders and branch
// probabilities, bit for bit.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	ids := func(ns []*Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	if a.Name != b.Name || a.Len() != b.Len() {
		t.Fatalf("graph %q with %d nodes, rebuilt %q with %d", a.Name, a.Len(), b.Name, b.Len())
	}
	for i, x := range a.Nodes() {
		y := b.Node(i)
		if x.ID != y.ID || x.Name != y.Name || x.Kind != y.Kind || x.Class != y.Class ||
			math.Float64bits(x.WCET) != math.Float64bits(y.WCET) || math.Float64bits(x.ACET) != math.Float64bits(y.ACET) {
			t.Fatalf("node %d: %+v, rebuilt %+v", i, x, y)
		}
		if !slices.Equal(ids(x.Succs()), ids(y.Succs())) || !slices.Equal(ids(x.Preds()), ids(y.Preds())) {
			t.Fatalf("node %q: edges %v <- %v, rebuilt %v <- %v", x.Name,
				ids(x.Succs()), ids(x.Preds()), ids(y.Succs()), ids(y.Preds()))
		}
		if !slices.Equal(x.probs(), y.probs()) {
			t.Fatalf("node %q: probabilities %v, rebuilt %v", x.Name, x.probs(), y.probs())
		}
	}
}

// checkBuilderEquivalent fails t unless g equals its rebuild through the
// builder API, and still does after both gain a node that every other node
// precedes: that appends to every node's successors, which must reallocate
// each carved list rather than write into its neighbour's.
func checkBuilderEquivalent(t *testing.T, g *Graph) {
	t.Helper()
	b := rebuild(t, g)
	sameGraph(t, g, b)
	for _, h := range []*Graph{g, b} {
		x := h.AddTask("sink", 1e-3, 1e-3)
		for _, n := range h.Nodes()[:x.ID] {
			h.AddEdge(n, x)
		}
	}
	sameGraph(t, g, b)
}
