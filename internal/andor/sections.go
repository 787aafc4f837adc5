package andor

import (
	"fmt"
	"slices"
	"sync"
)

// Section is a maximal AND-only program section: the computation and And
// nodes executed between two Or synchronization points (or between the
// application's start/end and an Or node). Because all processors
// synchronize at Or nodes, sections execute one at a time, and the off-line
// phase of the scheduler builds one canonical schedule per section (paper
// §3.2).
type Section struct {
	// ID indexes the section in Sections.All.
	ID int
	// Entries are the section's entry nodes: the application roots for the
	// first section, or the single successor of an Or branch otherwise.
	// Empty for a zero-length section (an Or branch leading directly to
	// another Or node).
	Entries []*Node
	// Nodes lists the section's Compute and And nodes in topological order.
	Nodes []*Node
	// Exit is the Or node that terminates the section, or nil if the
	// section ends the application.
	Exit *Node

	// digest memoizes Digest(), computed once under digestOnce: sections
	// are immutable once Decompose returns, and concurrent compiles may
	// ask for the digest of one section together.
	digestOnce sync.Once
	digest     SectionDigest
}

// WCETSum returns the total worst-case work (seconds at maximum speed) of
// the section's computation nodes.
func (s *Section) WCETSum() float64 {
	var sum float64
	for _, n := range s.Nodes {
		sum += n.WCET
	}
	return sum
}

// ACETSum returns the total average-case work of the section's computation
// nodes.
func (s *Section) ACETSum() float64 {
	var sum float64
	for _, n := range s.Nodes {
		sum += n.ACET
	}
	return sum
}

// Sections is the decomposition of an AND/OR graph into program sections
// separated by Or nodes, plus the branching structure connecting them. It
// is produced by Decompose and is immutable afterwards.
type Sections struct {
	// Graph is the graph the decomposition was computed from.
	Graph *Graph
	// All lists every section; All[i].ID == i. The first section has ID 0.
	All []*Section
	// First is the section containing the application roots (ID 0).
	First *Section
	// Branch[or.ID][i] is the section executed when Or node `or` selects
	// its i-th successor. Indexed by node ID; nil entries for non-Or nodes.
	Branch [][]*Section
	// SectionOf[node.ID] is the section containing the (non-Or) node;
	// nil for Or nodes.
	SectionOf []*Section
}

// Decompose splits the graph into program sections. It returns an error if
// the graph violates the structural restrictions of the paper's model:
//
//   - the graph must be a non-empty DAG;
//   - from a section's entries, forward traversal (stopping at Or nodes)
//     must reach at most one Or node — the section's exit — so that all
//     processors can synchronize at a single point;
//   - every dependence edge must stay within one section or be incident to
//     an Or node: a non-entry node may not depend on nodes outside its
//     section (such an edge would cross a synchronization barrier, or worse,
//     reference a sibling branch that never executes);
//   - the successor of an Or branch must have that Or node as its only
//     predecessor (it is the entry of a fresh section).
//
// A successful decomposition is memoized on the graph (discarded by any
// mutating Graph method): Sections are immutable, so every compile of an
// unchanged graph can share one instance.
func Decompose(g *Graph) (*Sections, error) {
	if s := g.secs.Load(); s != nil {
		return s, nil
	}
	return g.decompose(nil)
}

// decompose decomposes g and memoizes the result. check, if not nil, runs
// once g is known to be acyclic and before the structural checks: Validate
// passes its per-node checks, so that it sorts g once for both.
func (g *Graph) decompose(check func() error) (*Sections, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("andor: graph %q is empty", g.Name)
	}
	d := decomposerPool.Get().(*decomposer)
	defer d.release()
	s, err := d.run(g, check)
	if err != nil {
		return nil, err
	}
	g.secs.Store(s)
	return s, nil
}

// decomposer is one decomposition's working state: the graph's topological
// order and node-ID-indexed scratch, pooled, and the slabs the sections
// are carved from.
type decomposer struct {
	order []*Node // topological order
	// pos[id] is node id's index in order; mark[id] is 1 + the section
	// whose traversal last reached the node; entry[id] is 1 + the section
	// node id starts as a branch entry or as an empty section's exit Or.
	pos, mark, entry []int32
	stack, exits     []*Node
	members          []int32 // a section's members, as positions in order

	s     *Sections
	slab  []Section  // the sections, by ID
	nodes []*Node    // the unused rest of the Entries and Nodes backing
	rows  []*Section // the unused rest of the Branch rows backing
}

var decomposerPool = sync.Pool{New: func() any { return new(decomposer) }}

// release drops d's references to the graph and returns it to the pool.
func (d *decomposer) release() {
	clear(d.order)
	clear(d.stack[:cap(d.stack)])
	clear(d.exits[:cap(d.exits)])
	d.s, d.slab, d.nodes, d.rows = nil, nil, nil, nil
	decomposerPool.Put(d)
}

// run sorts g, runs check and builds the sections into slabs sized up
// front. Every section but the first starts at an Or node's successor, so
// the Or nodes' successor counts bound the sections and their entries and
// size the Branch rows exactly.
func (d *decomposer) run(g *Graph, check func() error) (*Sections, error) {
	n := g.Len()
	d.order = slices.Grow(d.order[:0], n)[:n]
	d.pos = slices.Grow(d.pos[:0], n)[:n]
	d.mark = slices.Grow(d.mark[:0], n)[:n]
	d.entry = slices.Grow(d.entry[:0], n)[:n]
	clear(d.mark)
	clear(d.entry)
	if g.topoInto(d.order, d.pos) < n {
		return nil, fmt.Errorf("andor: graph %q contains a cycle", g.Name)
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}
	nodes, rows, roots := 0, 0, 0
	for i, v := range d.order {
		d.pos[v.ID] = int32(i)
		if v.Kind == Or {
			rows += len(v.Succs())
		} else {
			nodes++
		}
		if len(v.Preds()) == 0 {
			roots++
		}
	}
	ptrs := make([]*Section, n+2*rows+1)
	d.s = &Sections{Graph: g, All: ptrs[n+rows : n+rows], Branch: make([][]*Section, n), SectionOf: ptrs[:n:n]}
	d.slab, d.rows = make([]Section, rows+1), ptrs[n:n+rows]
	d.nodes = make([]*Node, nodes+roots+rows)

	entries := carve(&d.nodes, roots)[:0]
	for _, v := range g.nodes {
		if len(v.Preds()) == 0 {
			if v.Kind == Or {
				return nil, fmt.Errorf("andor: root node %q is an OR node; the application must start with computation or AND nodes", v.Name)
			}
			entries = append(entries, v)
		}
	}
	s := d.s
	var err error
	if s.First, err = d.build(entries); err != nil {
		return nil, err
	}
	// Every node must be covered: non-Or nodes by a section, Or nodes by
	// having their branches resolved.
	for _, v := range g.nodes {
		if v.Kind == Or {
			if s.Branch[v.ID] == nil && len(v.Succs()) > 0 {
				return nil, fmt.Errorf("andor: OR node %q is unreachable from the roots", v.Name)
			}
		} else if s.SectionOf[v.ID] == nil {
			return nil, fmt.Errorf("andor: node %q is unreachable from the roots", v.Name)
		}
	}
	return s, nil
}

// newSection appends the next section of the slab to Sections.All.
func (d *decomposer) newSection() *Section {
	sec := &d.slab[len(d.s.All)]
	sec.ID = len(d.s.All)
	d.s.All = append(d.s.All, sec)
	return sec
}

// build adds the section starting at entries, then the sections its exit's
// branches lead to.
func (d *decomposer) build(entries []*Node) (*Section, error) {
	sec := d.newSection()
	sec.Entries = entries
	stamp := int32(sec.ID + 1)
	members, exits := d.members[:0], d.exits[:0]
	stack := append(d.stack[:0], entries...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.Kind == Or {
			if !slices.Contains(exits, v) {
				exits = append(exits, v)
			}
		} else if d.mark[v.ID] != stamp {
			d.mark[v.ID] = stamp
			members = append(members, d.pos[v.ID])
			stack = append(stack, v.Succs()...)
		}
	}
	d.stack, d.exits, d.members = stack, exits, members
	if len(exits) > 1 {
		return nil, fmt.Errorf("andor: section starting at %v reaches %d OR nodes %v; processors can only synchronize at one",
			nodeNames(entries), len(exits), nodeNames(exits))
	}
	if len(exits) == 1 {
		sec.Exit = exits[0]
	}
	// Membership checks, in topological order: non-entry nodes must depend
	// only on section members. Entries are exempt: the first section's are
	// roots, and a branch section's only entry depends on its Or node. A
	// section that passes owns its nodes: an entry is in no other section.
	slices.Sort(members)
	sec.Nodes = carve(&d.nodes, len(members))
	for i, k := range members {
		v := d.order[k]
		for _, p := range v.Preds() {
			if v != entries[0] && d.mark[p.ID] != stamp {
				return nil, fmt.Errorf("andor: edge %q -> %q crosses a section boundary", p.Name, v.Name)
			}
		}
		sec.Nodes[i] = v
		d.s.SectionOf[v.ID] = sec
	}
	if sec.Exit == nil {
		return sec, nil
	}
	return sec, d.branches(sec.Exit)
}

// branches resolves the sections reached by each successor branch of an Or
// node, sharing join sections.
func (d *decomposer) branches(or *Node) error {
	s := d.s
	if s.Branch[or.ID] != nil {
		return nil
	}
	row := carve(&d.rows, len(or.Succs()))
	s.Branch[or.ID] = row // set before recursing; DAG guarantees no revisit loop
	for i, succ := range or.Succs() {
		if e := d.entry[succ.ID]; e != 0 {
			row[i] = s.All[e-1]
			continue
		}
		if succ.Kind == Or {
			// Zero-length section: the branch leads directly to another
			// barrier.
			sec := d.newSection()
			sec.Exit, row[i] = succ, sec
			d.entry[succ.ID] = int32(sec.ID + 1)
			if err := d.branches(succ); err != nil {
				return err
			}
			continue
		}
		if len(succ.Preds()) != 1 {
			return fmt.Errorf("andor: node %q follows OR node %q but has %d predecessors; a branch entry may only depend on its OR node",
				succ.Name, or.Name, len(succ.Preds()))
		}
		entries := carve(&d.nodes, 1)
		entries[0] = succ
		sec, err := d.build(entries)
		if err != nil {
			return err
		}
		d.entry[succ.ID], row[i] = int32(sec.ID+1), sec
	}
	return nil
}

func nodeNames(nodes []*Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}

// carve cuts the next k elements off the front of the slab *buf, with a
// full slice expression, so that appending to the carved slice reallocates
// it instead of overwriting the slab's next piece.
func carve[T any](buf *[]T, k int) []T {
	out := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return out
}
