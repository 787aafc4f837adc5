package andor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fmtFormatText is a frozen copy of the fmt-based renderer AppendText
// replaced. The serve package content-addresses plans by a hash of the
// rendering, so AppendText must reproduce it byte for byte.
func fmtFormatText(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s\n\n", fmtSanitizeName(g.Name))
	for _, n := range g.Nodes() {
		switch n.Kind {
		case Compute:
			if n.Class != "" {
				fmt.Fprintf(&b, "task %s %s %s @%s\n", fmtSanitizeName(n.Name),
					fmtFormatDuration(n.WCET), fmtFormatDuration(n.ACET), fmtSanitizeName(n.Class))
				continue
			}
			fmt.Fprintf(&b, "task %s %s %s\n", fmtSanitizeName(n.Name), fmtFormatDuration(n.WCET), fmtFormatDuration(n.ACET))
		case And:
			fmt.Fprintf(&b, "and %s\n", fmtSanitizeName(n.Name))
		case Or:
			fmt.Fprintf(&b, "or %s\n", fmtSanitizeName(n.Name))
		}
	}
	b.WriteByte('\n')
	for _, n := range g.Nodes() {
		if len(n.Succs()) == 0 {
			continue
		}
		names := make([]string, len(n.Succs()))
		for i, s := range n.Succs() {
			names[i] = fmtSanitizeName(s.Name)
		}
		fmt.Fprintf(&b, "edge %s -> %s\n", fmtSanitizeName(n.Name), strings.Join(names, " "))
	}
	var ors []*Node
	for _, n := range g.Nodes() {
		if n.Kind == Or && len(n.Succs()) > 1 {
			ors = append(ors, n)
		}
	}
	sort.Slice(ors, func(i, j int) bool { return ors[i].ID < ors[j].ID })
	if len(ors) > 0 {
		b.WriteByte('\n')
	}
	for _, or := range ors {
		fmt.Fprintf(&b, "prob %s", fmtSanitizeName(or.Name))
		for i := range or.Succs() {
			fmt.Fprintf(&b, " %g", or.BranchProb(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtFormatDuration(sec float64) string {
	switch {
	case sec >= 1:
		return strconv.FormatFloat(sec, 'g', -1, 64) + "s"
	case sec >= 1e-3:
		return strconv.FormatFloat(sec*1e3, 'g', -1, 64) + "ms"
	default:
		return strconv.FormatFloat(sec*1e6, 'g', -1, 64) + "us"
	}
}

func fmtSanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, name)
}

// awkwardGraph builds a graph from arbitrary names and times without
// ParseText's checks: names are cycled through nodes, and the times are
// written straight into the node fields, so non-finite values reach the
// renderer too.
func awkwardGraph(names []string, wcet, acet, prob float64) *Graph {
	name := func(i int) string { return names[i%len(names)] }
	g := NewGraph(name(0))
	a := g.AddTask(name(1), 2e-3, 1e-3)
	a.WCET, a.ACET = wcet, acet
	g.SetClass(a, name(2))
	or := g.AddOr(name(3))
	b := g.AddTask(name(4), 1.5, 250e-6)
	c := g.AddTask(name(5), 7e-6, 7e-6)
	and := g.AddAnd(name(6))
	g.AddEdge(a, or)
	g.AddEdge(or, b)
	g.AddEdge(or, c)
	g.SetBranchProbs(or, prob, 1-prob)
	g.AddEdge(b, and)
	g.AddEdge(c, and)
	return g
}

func TestAppendTextMatchesFmtRenderer(t *testing.T) {
	graphs := []*Graph{
		awkwardGraph([]string{"", "with space", "tab\there", "bad\xffutf8\xc3", "ok#1", "�", "日本 語"}, 8e-3, 5e-3, 0.7),
		awkwardGraph([]string{"x"}, math.NaN(), math.Inf(1), math.NaN()),
		awkwardGraph([]string{" ", "\t\t"}, math.Inf(-1), -0.0, math.Inf(1)),
		awkwardGraph([]string{"big"}, 1e308, 5e-324, 1e-9),
	}
	for seed := uint64(1); seed <= 64; seed++ {
		graphs = append(graphs, RandomGraph(&fakeRand{state: seed}, DefaultRandomOpts()))
	}
	for i, g := range graphs {
		want := fmtFormatText(g)
		if got := FormatText(g); got != want {
			t.Errorf("graph %d: FormatText differs from the fmt renderer\ngot:\n%q\nwant:\n%q", i, got, want)
		}
		// Appending must leave dst's prefix alone.
		if got := string(AppendText([]byte("prefix"), g)); got != "prefix"+want {
			t.Errorf("graph %d: AppendText clobbered its destination", i)
		}
	}
}

// TestAppendTextAllocs pins the point of AppendText: rendering into a
// buffer with room to spare allocates nothing.
func TestAppendTextAllocs(t *testing.T) {
	g := RandomGraph(&fakeRand{state: 5}, DefaultRandomOpts())
	buf := make([]byte, 0, 64<<10)
	if allocs := testing.AllocsPerRun(50, func() { buf = AppendText(buf[:0], g) }); allocs != 0 {
		t.Errorf("AppendText into a large enough buffer allocates %.1f times", allocs)
	}
}

// FuzzAppendText checks AppendText against the frozen fmt renderer on
// graphs with arbitrary names (invalid UTF-8, whitespace, empty) and
// arbitrary float64 times and probabilities.
func FuzzAppendText(f *testing.F) {
	f.Add("app\x00with space\x00tab\there\x00\xff\xfe\x00", uint64(0x3f60624dd2f1a9fc), uint64(0x3f50624dd2f1a9fc), uint64(0x3fe6666666666666))
	f.Add("", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add("a\x00b", uint64(1), uint64(0x7fefffffffffffff), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, names string, wcet, acet, prob uint64) {
		g := awkwardGraph(strings.Split(names, "\x00"),
			math.Float64frombits(wcet), math.Float64frombits(acet), math.Float64frombits(prob))
		if got, want := FormatText(g), fmtFormatText(g); got != want {
			t.Fatalf("FormatText differs from the fmt renderer\ngot:\n%q\nwant:\n%q", got, want)
		}
	})
}
