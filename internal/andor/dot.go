package andor

import (
	"fmt"
	"strings"
)

// DOT renders the graph in Graphviz DOT format. Computation nodes are
// ellipses labeled "name\nwcet/acet" (milliseconds), And nodes diamonds and
// Or nodes double circles, matching the paper's Figure 1 conventions. Or
// branch edges are labeled with their probabilities.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n")
	for _, n := range g.nodes {
		switch n.Kind {
		case Compute:
			fmt.Fprintf(&b, "  n%d [shape=ellipse, label=\"%s\\n%.3g/%.3g ms\"];\n",
				n.ID, n.Name, n.WCET*1e3, n.ACET*1e3)
		case And:
			fmt.Fprintf(&b, "  n%d [shape=diamond, label=%q];\n", n.ID, n.Name)
		case Or:
			fmt.Fprintf(&b, "  n%d [shape=doublecircle, label=%q];\n", n.ID, n.Name)
		}
	}
	for _, n := range g.nodes {
		for i, s := range n.Succs() {
			if n.Kind == Or && len(n.Succs()) > 1 {
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.0f%%\"];\n", n.ID, s.ID, n.BranchProb(i)*100)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", n.ID, s.ID)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
