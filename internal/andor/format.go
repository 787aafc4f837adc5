package andor

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// This file implements the ".andor" text format: a small line-oriented
// language for authoring AND/OR applications without writing Go, read by
// ParseText and written by FormatText. Example:
//
//	# ATR-like fragment                (comments run to end of line)
//	app demo
//
//	task Detect  8ms 5ms               # name, WCET, ACET (s/ms/us suffix)
//	task Filter  6ms 4ms @accel        # optional processor-class affinity
//	or   Branch
//	task Fast 3ms 2ms
//	task Slow 9ms 7ms
//	or   Done
//	task Report 2ms 1ms
//
//	edge Detect -> Branch
//	edge Branch -> Fast Slow           # fan-out shorthand
//	prob Branch 70% 30%                # branch probabilities, order of edges
//	edge Fast Slow -> Done             # fan-in shorthand
//	edge Done -> Report
//
//	loop Retry 4ms 2ms : 50% 20% 5% 25%   # unrolled loop; creates Retry#k
//	edge Report -> Retry#1                # loop entry is <name>#1
//	                                      # loop exit is <name>.join
//
// Directives: app, task, and, or, edge, chain (chain A B C ≡ A→B→C),
// prob, loop. Durations accept the suffixes s, ms, us/µs. Probabilities
// accept "30%" or "0.3". A '#' starts a comment only at the beginning of a
// line or after whitespace, so loop-generated names like "Retry#1" remain
// addressable.

// stripComment removes a trailing comment: a '#' at the start of the line
// or preceded by whitespace. A '#' inside a token (the unrolled-loop names
// such as "Retry#1") is part of the name.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
			return line[:i]
		}
	}
	return line
}

// ParseText parses the .andor format. The returned graph is validated.
// Neither the graph nor an error keeps a reference to src, so src may be
// a view of a buffer that is reused once ParseText returns.
func ParseText(src string) (*Graph, error) {
	g, err := parseText(src)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// parseText is ParseText without the validation. The directives build a
// pooled scratch graph, whose names are substrings of src; the returned
// graph is its Clone, built in slabs with the names copied, so that it
// keeps no reference to src.
func parseText(src string) (*Graph, error) {
	p := parserPool.Get().(*textParser)
	defer p.release()
	p.g.Name = "unnamed"
	fields := p.fieldBuf[:0]
	rest, more := src, true
	for lineNo := 1; more; lineNo++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		fields = appendFields(fields[:0], stripComment(line))
		if len(fields) == 0 {
			continue
		}
		if err := p.directive(fields); err != nil {
			return nil, fmt.Errorf("andor: line %d: %w", lineNo, err)
		}
	}
	return p.g.Clone(), nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of s to dst, exactly as strings.Fields
// splits them: maximal runs of characters that are not unicode.IsSpace.
// Each field is a substring of s.
func appendFields(dst []string, s string) []string {
	start := -1 // start of the current field, or -1 between fields
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		space := false
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			c, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(c)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

type textParser struct {
	// g is the scratch graph the directives build. Its nodes come from
	// spare, whose nodes keep their edge lists' capacity for the next
	// parse.
	g     Graph
	spare []*Node
	used  int // spare nodes in g
	// nodes is the name table, emptied and reused by the next parse.
	nodes map[string]*Node
	// fieldBuf backs the fields of each line; a line with more fields
	// than it holds grows a slice that the following lines reuse.
	fieldBuf [8]string
	// probs backs the branch probabilities of the prob lines, and rows
	// the Or nodes' slices of them.
	probs []float64
	rows  [][]float64
}

// parserPool recycles parsers, so a parse reuses an earlier one's scratch
// graph and name table.
var parserPool = sync.Pool{New: func() any { return &textParser{nodes: make(map[string]*Node)} }}

// maxPooledNames bounds the name tables parserPool keeps: a rare huge
// application should not pin its table for the life of the process.
const maxPooledNames = 1024

// release empties p, which must not reference the parsed graph or its
// text afterwards, and returns it to the pool.
func (p *textParser) release() {
	if len(p.nodes) > maxPooledNames {
		return
	}
	clear(p.nodes)
	clear(p.fieldBuf[:])
	clear(p.g.nodes)
	p.g.Name, p.g.nodes = "", p.g.nodes[:0]
	for _, n := range p.spare[:p.used] {
		clear(n.adj)
		*n = Node{adj: n.adj[:0]}
	}
	clear(p.rows)
	p.used, p.probs, p.rows = 0, p.probs[:0], p.rows[:0]
	parserPool.Put(p)
}

// node adds a node to the scratch graph, reusing a spare node.
func (p *textParser) node(kind Kind, name string, wcet, acet float64) *Node {
	if p.used == len(p.spare) {
		p.spare = append(p.spare, new(Node))
	}
	n := p.spare[p.used]
	p.used++
	n.Name, n.Kind, n.WCET, n.ACET = name, kind, wcet, acet
	return p.g.add(n)
}

// validName rejects names that cannot survive a format round-trip: invalid
// UTF-8 is transcoded to U+FFFD by every encoder in the system (text, JSON,
// DOT), so such a name would silently change identity.
func validName(name string) error {
	if !utf8.ValidString(name) {
		return fmt.Errorf("name %q is not valid UTF-8", name)
	}
	return nil
}

func (p *textParser) define(name string, n *Node) error {
	if err := validName(name); err != nil {
		return err
	}
	if _, dup := p.nodes[name]; dup {
		return fmt.Errorf("node %q defined twice", name)
	}
	p.nodes[name] = n
	return nil
}

func (p *textParser) lookup(name string) (*Node, error) {
	n, ok := p.nodes[name]
	if !ok {
		return nil, fmt.Errorf("unknown node %q", name)
	}
	return n, nil
}

func (p *textParser) directive(f []string) error {
	switch f[0] {
	case "app":
		if len(f) != 2 {
			return fmt.Errorf("app wants one name")
		}
		if err := validName(f[1]); err != nil {
			return err
		}
		p.g.Name = f[1]
		return nil

	case "task":
		if len(f) != 4 && len(f) != 5 {
			return fmt.Errorf("task wants: task NAME WCET ACET [@CLASS]")
		}
		w, err := parseDuration(f[2])
		if err != nil {
			return err
		}
		a, err := parseDuration(f[3])
		if err != nil {
			return err
		}
		if !validTimes(w, a) {
			return fmt.Errorf("task %q needs 0 < ACET ≤ WCET, got %v/%v", f[1], f[2], f[3])
		}
		n := p.node(Compute, f[1], w, a)
		if len(f) == 5 {
			// Optional processor-class affinity tag for heterogeneous
			// platforms: "@accel" prefers the class named "accel".
			if len(f[4]) < 2 || f[4][0] != '@' {
				return fmt.Errorf("task %q class tag %q must be @CLASS", f[1], f[4])
			}
			class := f[4][1:]
			if err := validName(class); err != nil {
				return err
			}
			n.Class = class
		}
		return p.define(f[1], n)

	case "and":
		if len(f) != 2 {
			return fmt.Errorf("and wants one name")
		}
		return p.define(f[1], p.node(And, f[1], 0, 0))

	case "or":
		if len(f) != 2 {
			return fmt.Errorf("or wants one name")
		}
		return p.define(f[1], p.node(Or, f[1], 0, 0))

	case "edge":
		// edge A [B C] -> X [Y Z]: full bipartite between sources and
		// targets.
		arrow := -1
		for i, tok := range f {
			if tok == "->" {
				arrow = i
			}
		}
		if arrow < 2 || arrow == len(f)-1 {
			return fmt.Errorf("edge wants: edge SRC... -> DST...")
		}
		for _, sn := range f[1:arrow] {
			src, err := p.lookup(sn)
			if err != nil {
				return err
			}
			for _, dn := range f[arrow+1:] {
				dst, err := p.lookup(dn)
				if err != nil {
					return err
				}
				if src == dst {
					return fmt.Errorf("self-loop on %q", sn)
				}
				for _, s := range src.Succs() {
					if s == dst {
						return fmt.Errorf("duplicate edge %q -> %q", sn, dn)
					}
				}
				p.g.AddEdge(src, dst)
			}
		}
		return nil

	case "chain":
		if len(f) < 3 {
			return fmt.Errorf("chain wants at least two nodes")
		}
		prev, err := p.lookup(f[1])
		if err != nil {
			return err
		}
		for _, name := range f[2:] {
			next, err := p.lookup(name)
			if err != nil {
				return err
			}
			p.g.AddEdge(prev, next)
			prev = next
		}
		return nil

	case "prob":
		if len(f) < 3 {
			return fmt.Errorf("prob wants: prob ORNAME p1 p2 ...")
		}
		or, err := p.lookup(f[1])
		if err != nil {
			return err
		}
		if or.Kind != Or {
			return fmt.Errorf("%q is not an OR node", f[1])
		}
		start := len(p.probs)
		for _, tok := range f[2:] {
			v, err := parseProb(tok)
			if err != nil {
				return err
			}
			p.probs = append(p.probs, v)
		}
		probs := p.probs[start:len(p.probs):len(p.probs)]
		if len(probs) != len(or.Succs()) {
			return fmt.Errorf("%q has %d successors but %d probabilities (declare edges first)",
				f[1], len(or.Succs()), len(probs))
		}
		p.rows = append(p.rows, probs)
		or.prob = &p.rows[len(p.rows)-1]
		return nil

	case "loop":
		// loop NAME WCET ACET : p1 p2 ... pN  (N = max iterations)
		colon := -1
		for i, tok := range f {
			if tok == ":" {
				colon = i
			}
		}
		if colon != 4 || colon == len(f)-1 {
			return fmt.Errorf("loop wants: loop NAME WCET ACET : p1 p2 ...")
		}
		if err := validName(f[1]); err != nil {
			return err
		}
		w, err := parseDuration(f[2])
		if err != nil {
			return err
		}
		a, err := parseDuration(f[3])
		if err != nil {
			return err
		}
		probs := make([]float64, len(f)-colon-1)
		var sum float64
		for i, tok := range f[colon+1:] {
			v, err := parseProb(tok)
			if err != nil {
				return err
			}
			probs[i] = v
			sum += v
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return fmt.Errorf("loop %q iteration probabilities sum to %g, want 1", f[1], sum)
		}
		if !validTimes(w, a) {
			return fmt.Errorf("loop %q needs 0 < ACET ≤ WCET", f[1])
		}
		ExpandLoop(&p.g, f[1], w, a, probs)
		// Register the generated names so edges can target them.
		for _, n := range p.g.Nodes() {
			if strings.HasPrefix(n.Name, f[1]+"#") || strings.HasPrefix(n.Name, f[1]+".") {
				if _, taken := p.nodes[n.Name]; !taken {
					p.nodes[n.Name] = n
				}
			}
		}
		return nil
	}
	return fmt.Errorf("unknown directive %q", f[0])
}

// parseDuration parses "8ms", "600us", "0.5s" into seconds.
func parseDuration(tok string) (float64, error) {
	unit := 1.0
	num := tok
	switch {
	case strings.HasSuffix(tok, "ms"):
		unit, num = 1e-3, tok[:len(tok)-2]
	case strings.HasSuffix(tok, "us"):
		unit, num = 1e-6, tok[:len(tok)-2]
	case strings.HasSuffix(tok, "µs"):
		unit, num = 1e-6, strings.TrimSuffix(tok, "µs")
	case strings.HasSuffix(tok, "s"):
		unit, num = 1, tok[:len(tok)-1]
	default:
		return 0, fmt.Errorf("duration %q needs a unit (s, ms, us)", tok)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", tok)
	}
	return v * unit, nil
}

// parseProb parses "30%" or "0.3".
func parseProb(tok string) (float64, error) {
	scale := 1.0
	num := tok
	if strings.HasSuffix(tok, "%") {
		scale, num = 0.01, tok[:len(tok)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q", tok)
	}
	v *= scale
	if !(v >= 0 && v <= 1) {
		return 0, fmt.Errorf("probability %q outside [0,1]", tok)
	}
	return v, nil
}

// FormatText renders a graph in the .andor format, parseable by ParseText.
// Loops that were expanded programmatically are emitted as their unrolled
// nodes (the loop shorthand is input sugar only).
func FormatText(g *Graph) string {
	return string(AppendText(nil, g))
}

// AppendText appends FormatText's rendering of g to dst and returns the
// extended slice. Nodes, edges and probabilities appear in node-ID order,
// so the rendering is canonical: the serve package hashes it as the
// graph's content address.
func AppendText(dst []byte, g *Graph) []byte {
	dst = appendName(append(dst, "app "...), g.Name)
	dst = append(dst, "\n\n"...)
	for _, n := range g.Nodes() {
		switch n.Kind {
		case Compute:
			dst = appendName(append(dst, "task "...), n.Name)
			dst = appendDuration(append(dst, ' '), n.WCET)
			dst = appendDuration(append(dst, ' '), n.ACET)
			// The class tag is emitted only when present, so class-free
			// graphs render byte-identically to before the tag existed
			// (their content-addressed digests are stable).
			if n.Class != "" {
				dst = appendName(append(dst, " @"...), n.Class)
			}
		case And:
			dst = appendName(append(dst, "and "...), n.Name)
		case Or:
			dst = appendName(append(dst, "or "...), n.Name)
		default:
			continue
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, '\n')
	hasProbs := false
	for _, n := range g.Nodes() {
		if len(n.Succs()) == 0 {
			continue
		}
		hasProbs = hasProbs || (n.Kind == Or && len(n.Succs()) > 1)
		dst = appendName(append(dst, "edge "...), n.Name)
		dst = append(dst, " ->"...)
		for _, s := range n.Succs() {
			dst = appendName(append(dst, ' '), s.Name)
		}
		dst = append(dst, '\n')
	}
	if hasProbs {
		dst = append(dst, '\n')
	}
	for _, n := range g.Nodes() {
		if n.Kind != Or || len(n.Succs()) < 2 {
			continue
		}
		dst = appendName(append(dst, "prob "...), n.Name)
		for i := range n.Succs() {
			dst = strconv.AppendFloat(append(dst, ' '), n.BranchProb(i), 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendDuration appends a time in seconds with the largest unit (s, ms,
// us) that keeps the number at or above 1.
func appendDuration(dst []byte, sec float64) []byte {
	switch {
	case sec >= 1:
		return append(strconv.AppendFloat(dst, sec, 'g', -1, 64), 's')
	case sec >= 1e-3:
		return append(strconv.AppendFloat(dst, sec*1e3, 'g', -1, 64), "ms"...)
	default:
		return append(strconv.AppendFloat(dst, sec*1e6, 'g', -1, 64), "us"...)
	}
}

// appendName appends a name as one token: the line format cannot quote,
// so spaces and tabs become underscores and the empty name becomes "_".
// Invalid UTF-8 bytes become U+FFFD, as every other encoder in the system
// renders them. '#' is fine mid-token (comments require a preceding
// space).
func appendName(dst []byte, name string) []byte {
	if name == "" {
		return append(dst, '_')
	}
	for _, r := range name {
		switch {
		case r == ' ' || r == '\t':
			dst = append(dst, '_')
		case r < utf8.RuneSelf:
			dst = append(dst, byte(r))
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
