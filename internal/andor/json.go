package andor

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire form of a Graph.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

type jsonNode struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	WCET  float64   `json:"wcet,omitempty"`
	ACET  float64   `json:"acet,omitempty"`
	Class string    `json:"class,omitempty"`
	Probs []float64 `json:"probs,omitempty"`
}

// MarshalJSON encodes the graph as {"name", "nodes", "edges"} with node
// kinds spelled out ("compute", "and", "or"), execution times in seconds,
// edges as [from, to] ID pairs, and Or branch probabilities stored on the
// Or node in successor order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name, Nodes: make([]jsonNode, g.Len())}
	for _, n := range g.nodes {
		jg.Nodes[n.ID] = jsonNode{
			Name: n.Name, Kind: n.Kind.String(),
			WCET: n.WCET, ACET: n.ACET, Class: n.Class,
			Probs: n.probs(),
		}
		for _, s := range n.Succs() {
			jg.Edges = append(jg.Edges, [2]int{n.ID, s.ID})
		}
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph previously encoded by MarshalJSON into g,
// replacing its contents. The decoded graph is not validated; call Validate
// afterwards.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	fresh := NewGraph(jg.Name)
	for i, jn := range jg.Nodes {
		var n *Node
		switch jn.Kind {
		case "compute":
			if !validTimes(jn.WCET, jn.ACET) {
				return fmt.Errorf("andor: node %d (%q): invalid times wcet=%g acet=%g", i, jn.Name, jn.WCET, jn.ACET)
			}
			n = fresh.AddTask(jn.Name, jn.WCET, jn.ACET)
			n.Class = jn.Class
		case "and":
			n = fresh.AddAnd(jn.Name)
		case "or":
			n = fresh.AddOr(jn.Name)
		default:
			return fmt.Errorf("andor: node %d (%q): unknown kind %q", i, jn.Name, jn.Kind)
		}
		if len(jn.Probs) > 0 {
			p := append([]float64(nil), jn.Probs...)
			n.prob = &p
		}
	}
	for _, e := range jg.Edges {
		if e[0] < 0 || e[0] >= fresh.Len() || e[1] < 0 || e[1] >= fresh.Len() {
			return fmt.Errorf("andor: edge %v references unknown node", e)
		}
		fresh.AddEdge(fresh.nodes[e[0]], fresh.nodes[e[1]])
	}
	// Field-wise, not *g = *fresh: Graph carries atomic memo fields that
	// must not be copied. Replacing the nodes resets the memo.
	g.Name = fresh.Name
	g.nodes = fresh.nodes
	g.invalidate()
	return nil
}
