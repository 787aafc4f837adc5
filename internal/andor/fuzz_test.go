package andor

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzGraphJSON checks that arbitrary bytes never panic the JSON decoder
// and that everything surviving Unmarshal+Validate round-trips and
// decomposes cleanly.
func FuzzGraphJSON(f *testing.F) {
	seed, err := json.Marshal(RandomGraph(&fakeRand{state: 1}, DefaultRandomOpts()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"x","nodes":[{"name":"a","kind":"compute","wcet":1,"acet":1}],"edges":[]}`))
	f.Add([]byte(`{"name":"x","nodes":[],"edges":[[0,0]]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return // malformed input rejected: fine
		}
		if err := g.Validate(); err != nil {
			return // structurally invalid: fine
		}
		// Valid graphs must decompose, enumerate, clone and re-encode.
		s, err := Decompose(&g)
		if err != nil {
			t.Fatalf("validated graph failed to decompose: %v", err)
		}
		_ = s.NumPaths()
		c := g.Clone()
		if c.Len() != g.Len() {
			t.Fatal("clone changed size")
		}
		if _, err := json.Marshal(&g); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		_ = g.DOT()
	})
}

// FuzzDecompose drives the decomposition with structured inputs: random
// node kinds and edges from fuzz bytes. Decompose must either reject the
// graph with an error or produce a consistent section cover — never panic
// — and Decompose and Validate must answer exactly as the reference
// decomposition does.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := NewGraph("fuzz")
		n := int(data[0]%12) + 1
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			kind := data[(i+1)%len(data)] % 3
			switch kind {
			case 0:
				nodes[i] = g.AddTask("t", 1e-3, 0.5e-3)
			case 1:
				nodes[i] = g.AddAnd("a")
			default:
				nodes[i] = g.AddOr("o")
			}
		}
		// Forward edges only (keeps the graph acyclic), selected by bits.
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				idx := 1 + bit/8
				if idx >= len(data) {
					break
				}
				if data[idx]>>(bit%8)&1 == 1 {
					g.AddEdge(nodes[i], nodes[j])
				}
				bit++
			}
		}
		// Assign uniform probabilities to multi-successor Or nodes so
		// probability errors don't mask structural ones.
		for _, nd := range g.Nodes() {
			if nd.Kind == Or && len(nd.Succs()) > 1 {
				probs := make([]float64, len(nd.Succs()))
				for i := range probs {
					probs[i] = 1 / float64(len(probs))
				}
				g.SetBranchProbs(nd, probs...)
			}
		}
		checkAgainstReference(t, g)
		s, err := Decompose(g)
		if err != nil {
			return // rejected: fine
		}
		// Accepted graphs must cover every non-Or node exactly once.
		for _, nd := range g.Nodes() {
			if nd.Kind != Or && s.SectionOf[nd.ID] == nil {
				t.Fatalf("accepted decomposition misses node %d", nd.ID)
			}
		}
	})
}

// FuzzParseText drives arbitrary bytes through the .andor text parser —
// the same path the serve package exposes over the network — and checks
// the round-trip property on everything that parses: FormatText must
// render a form that reparses to a graph of identical shape. Every text
// that parses must validate and decompose exactly as the reference
// decomposition does, and every valid one must equal its rebuild through
// the builder API.
func FuzzParseText(f *testing.F) {
	f.Add("task A 1ms 0.5ms\ntask B 2ms 1ms\nedge A -> B")
	f.Add(FormatText(RandomGraph(&fakeRand{state: 3}, DefaultRandomOpts())))
	f.Add("or O\ntask A 1ms 1ms\nedge O -> A\nprob O 100%")
	f.Add("loop L 1ms 1ms : 0.5 0.5")
	f.Add("# comment only")
	f.Add("task A 1ms")
	f.Add("edge A -> B")
	f.Add("task A 1ms 1ms\ntask A 1ms 1ms")
	f.Add("task A 1ms 1ms @accel\ntask B 2ms 1ms @big")
	f.Add("task A 1ms 1ms @")
	for _, src := range nonFiniteTexts {
		f.Add(src)
	}
	f.Add(crossingText)
	f.Add(shortProbText)
	f.Fuzz(func(t *testing.T, src string) {
		if ug, err := parseText(src); err == nil {
			checkAgainstReference(t, ug)
		}
		g, err := ParseText(src)
		if err != nil {
			return // rejected input: fine
		}
		// Every comparison with NaN is false, so range checks alone let
		// non-finite values through; the parser must not.
		for _, n := range g.Nodes() {
			if n.Kind == Compute && !(isFinite(n.WCET) && isFinite(n.ACET)) {
				t.Fatalf("task %q parsed with times %g/%g", n.Name, n.WCET, n.ACET)
			}
			if n.Kind == Or {
				for i := range n.Succs() {
					if p := n.BranchProb(i); !isFinite(p) {
						t.Fatalf("OR node %q parsed with probability %g", n.Name, p)
					}
				}
			}
		}
		// ParseText validates, so the graph must decompose or be rejected
		// for a documented structural reason — never panic.
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseText returned an invalid graph: %v", err)
		}
		text := FormatText(g)
		if want := fmtFormatText(g); text != want {
			t.Fatalf("FormatText differs from the fmt renderer\ngot:\n%q\nwant:\n%q", text, want)
		}
		back, err := ParseText(text)
		if err != nil {
			t.Fatalf("format→parse failed: %v\n%s", err, text)
		}
		if back.Len() != g.Len() {
			t.Fatalf("round-trip changed node count: %d vs %d", back.Len(), g.Len())
		}
		for _, n := range g.Nodes() {
			bn := back.NodeByName(n.Name)
			if bn == nil || bn.Kind != n.Kind || len(bn.Succs()) != len(n.Succs()) {
				t.Fatalf("round-trip changed node %q", n.Name)
			}
			if bn.Class != n.Class {
				t.Fatalf("round-trip changed node %q class %q to %q", n.Name, n.Class, bn.Class)
			}
		}
		// Unit scaling in the text form may perturb times by 1 ulp, so
		// exact text equality is too strong; totals must agree to within
		// floating-point noise.
		if w, bw := g.TotalWCET(), back.TotalWCET(); bw < w*(1-1e-12) || bw > w*(1+1e-12) {
			t.Fatalf("round-trip changed total WCET: %g vs %g", w, bw)
		}
		checkBuilderEquivalent(t, g)
	})
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
