package andor

import "fmt"

// Rand is the source of randomness the graph generator draws from. It is
// satisfied by exectime.Source (and by math/rand.Rand), keeping this
// package free of a concrete RNG dependency.
type Rand interface {
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
	// Intn returns a uniform value in [0, n). It panics if n <= 0.
	Intn(n int) int
}

// RandomOpts parameterizes RandomGraph. The zero value is not useful; start
// from DefaultRandomOpts.
type RandomOpts struct {
	// MaxDepth bounds the nesting depth of Or forks.
	MaxDepth int
	// ForkProb is the probability that a stage is an Or fork rather than a
	// plain section.
	ForkProb float64
	// MaxBranches is the maximum number of successors of a fork Or node
	// (at least 2).
	MaxBranches int
	// MaxStages is the maximum number of stages (section or fork) composed
	// in sequence at each level.
	MaxStages int
	// MaxLayers and MaxWidth bound a section's internal AND-parallel
	// structure: up to MaxLayers layers with up to MaxWidth tasks each.
	MaxLayers, MaxWidth int
	// WCETMin and WCETMax bound task worst-case execution times (seconds).
	WCETMin, WCETMax float64
	// Alpha is the ACET/WCET ratio of generated tasks.
	Alpha float64
}

// DefaultRandomOpts returns generation parameters that produce applications
// of roughly the paper's scale: a handful of sections with 2–3-way Or
// branching and sections of up to a dozen tasks with millisecond-range
// execution times.
func DefaultRandomOpts() RandomOpts {
	return RandomOpts{
		MaxDepth:    2,
		ForkProb:    0.5,
		MaxBranches: 3,
		MaxStages:   3,
		MaxLayers:   3,
		MaxWidth:    4,
		WCETMin:     1e-3,
		WCETMax:     10e-3,
		Alpha:       0.6,
	}
}

// RandomGraph generates a random valid AND/OR application: a sequence of
// stages, each either a plain AND section or an Or fork whose branches are
// themselves (recursively) stage sequences joined by an Or node. The result
// always passes Validate; generation is deterministic given the Rand state.
func RandomGraph(r Rand, opts RandomOpts) *Graph {
	g := NewGraph("random")
	gen := &randomGen{g: g, r: r, o: opts}

	// First stage is always a plain section so the roots are tasks.
	sinks := gen.section(nil, true)
	n := 1 + r.Intn(opts.MaxStages)
	for i := 1; i < n; i++ {
		sinks = gen.stage(sinks, 0)
	}
	return g
}

type randomGen struct {
	g    *Graph
	r    Rand
	o    RandomOpts
	seq  int
	orID int
}

func (gen *randomGen) task() *Node {
	gen.seq++
	w := gen.o.WCETMin + gen.r.Float64()*(gen.o.WCETMax-gen.o.WCETMin)
	return gen.g.AddTask(fmt.Sprintf("t%d", gen.seq), w, gen.o.Alpha*w)
}

// section builds a plain AND section. If entry is non-nil, the section hangs
// off that Or node through a single entry task; if multiRoot is set (first
// section only) it may have several root tasks. It returns the section's
// sink nodes.
func (gen *randomGen) section(entry *Node, multiRoot bool) []*Node {
	var created, prev []*Node
	layers := 1 + gen.r.Intn(gen.o.MaxLayers)
	for l := 0; l < layers; l++ {
		width := 1 + gen.r.Intn(gen.o.MaxWidth)
		if l == 0 && !multiRoot {
			width = 1 // branch sections have a single entry node
		}
		cur := make([]*Node, width)
		for i := range cur {
			cur[i] = gen.task()
			created = append(created, cur[i])
			if l == 0 {
				if entry != nil {
					gen.g.AddEdge(entry, cur[i])
				}
				continue
			}
			// Every task depends on at least one task of the previous
			// layer; extra dependences are added at random.
			p := prev[gen.r.Intn(len(prev))]
			gen.g.AddEdge(p, cur[i])
			for _, q := range prev {
				if q != p && gen.r.Float64() < 0.3 {
					gen.g.AddEdge(q, cur[i])
				}
			}
		}
		prev = cur
	}
	// The section's sinks are its tasks without successors; layered
	// construction can leave earlier-layer tasks childless, which is fine —
	// they are sinks too.
	var sinks []*Node
	for _, n := range created {
		if len(n.Succs()) == 0 {
			sinks = append(sinks, n)
		}
	}
	return sinks
}

// stage appends one stage after the given sink set: with probability
// ForkProb an Or fork with 2..MaxBranches branches re-joined by an Or node,
// otherwise an Or barrier followed by a plain section. It returns the new
// sink set.
func (gen *randomGen) stage(sinks []*Node, depth int) []*Node {
	gen.orID++
	or := gen.g.AddOr(fmt.Sprintf("O%d", gen.orID))
	for _, s := range sinks {
		gen.g.AddEdge(s, or)
	}
	if depth < gen.o.MaxDepth && gen.r.Float64() < gen.o.ForkProb {
		branches := 2 + gen.r.Intn(gen.o.MaxBranches-1)
		gen.orID++
		join := gen.g.AddOr(fmt.Sprintf("O%d", gen.orID))
		probs := make([]float64, branches)
		var sum float64
		for i := range probs {
			probs[i] = 0.1 + gen.r.Float64()
			sum += probs[i]
		}
		for i := range probs {
			probs[i] /= sum
		}
		for i := 0; i < branches; i++ {
			for _, s := range gen.branchBody(or, depth+1) {
				gen.g.AddEdge(s, join)
			}
		}
		gen.g.SetBranchProbs(or, probs...)
		// Optionally continue with a section after the join.
		if gen.r.Float64() < 0.5 {
			return gen.section(join, false)
		}
		return []*Node{join}
	}
	return gen.section(or, false)
}

// branchBody builds one branch of a fork: a section, optionally followed by
// nested stages. It returns the branch's sink nodes (to wire into the join).
func (gen *randomGen) branchBody(fork *Node, depth int) []*Node {
	sinks := gen.section(fork, false)
	if depth < gen.o.MaxDepth {
		n := gen.r.Intn(2)
		for i := 0; i < n; i++ {
			sinks = gen.stage(sinks, depth)
		}
	}
	return sinks
}
