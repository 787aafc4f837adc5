package core

import (
	"fmt"
	"math"

	"andorsched/internal/andor"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// Plan is the result of the off-line phase for one application on one
// system configuration (processor count, platform, overheads). It is
// deadline-independent: the shifting step only moves schedules rigidly, so
// latest finish times are stored relative to the deadline and resolved when
// Run is called.
//
// A Plan is immutable once NewPlan returns: no method mutates it, its
// graph, its sections or its platform. It may therefore be shared freely —
// cached, handed to any number of goroutines, published through a service —
// and Run, RunInto, RunStream and the read-only accessors may be called
// concurrently on the same Plan at any scale, provided each goroutine
// brings its own Arena and Sampler (both are single-owner scratch state).
// Callers must likewise not mutate the Graph they passed to NewPlan
// afterwards. TestPlanSharedAcrossGoroutines exercises this contract under
// the race detector.
type Plan struct {
	// Graph is the application.
	Graph *andor.Graph
	// Sections is its program-section decomposition.
	Sections *andor.Sections
	// Procs is the number of processors m.
	Procs int
	// Hetero is the machine the plan was compiled for and runs on; never
	// nil. Identical-processor plans (NewPlan) run on power.Homogeneous:
	// one class of Procs processors at Speed 1.
	Hetero *power.Hetero
	// Platform is the identical processors' DVS table when the plan was
	// compiled by NewPlan, and nil on plans compiled by NewHeteroPlan. It
	// marks the paper's configuration for reporting: such plans ignore
	// `@class` tags, and their runs report no per-class energy breakdown.
	Platform *power.Platform
	// Placement is the placement policy the canonical schedules were built
	// with; never nil (sim.FastestFirst on identical-processor plans, where
	// every placement builds the same schedules). It is a plan parameter,
	// not a run parameter: the policy decides which class each task's
	// canonical schedule runs it on, and the online phase pins every task
	// to that class — that pinning is what carries Theorem 1's safety
	// argument to unequal processors, so two placements genuinely compare
	// two plans (see NewHeteroPlan).
	Placement sim.PlacementPolicy
	// Overheads are the power-management costs assumed by the dynamic
	// schemes. The off-line phase pads every task's worst case by
	// Overheads.PadTime so run-time speed management can never cause a
	// deadline miss.
	Overheads power.Overheads

	// CTWorst is the canonical completion time of the longest execution
	// path (the paper's T_worst stored in the first PMP): the minimum
	// feasible deadline.
	CTWorst float64
	// CTAvg is the probability-weighted average-case completion time over
	// all execution paths (the paper's T_avg), used by the speculative
	// schemes.
	CTAvg float64

	secs []*secPlan // indexed by section ID
	// numTasks counts the tasks of all sections.
	numTasks int
	fmax     float64
	// maxChange is each class's worst-case cost of one voltage/speed
	// change, which the dynamic schemes budget before the target level
	// (and thus the actual voltage swing) is known.
	maxChange []float64
	// maxPower is the highest maximum power of any class (EnergyBound).
	maxPower float64
	// alphaTask is the work-weighted mean ACET/WCET ratio over all compute
	// tasks (Σ ACET / Σ WCET), each section counted once: the task-level
	// static workload assumption ORA's online estimator is seeded from and
	// judged against. Distinct from CTAvg/CTWorst, which is a
	// schedule-length ratio skewed by barriers and overhead padding.
	alphaTask float64
}

// secPlan is the off-line data of one program section.
type secPlan struct {
	sec *andor.Section
	// taskOff is the index of the section's first task in the plan-wide
	// numbering of all sections' tasks (see Plan.numTasks).
	taskOff int
	// lenW and lenA are the canonical schedule lengths using padded worst-
	// and average-case execution times.
	lenW, lenA float64
	// remWorst and remAvg are the completion times of the work remaining
	// after this section's exit barrier: the max (resp. probability-
	// weighted mean) over the exit Or node's branches of that branch's
	// length plus its own remainder. Zero for terminal sections. These are
	// the per-path PMP values of §2.2.
	remWorst, remAvg float64
	// tasks are the section's schedulable units in section-node order
	// (tasks[i] is sec.Nodes[i]); each template's Order is the task's
	// canonical dispatch position.
	tasks []taskPlan
	// prog is the section's engine program, compiled from the templates
	// once their orders and classes are final; read-only, shared by every
	// run of the plan.
	prog sim.Program
	// computeIdx indexes the Compute entries of tasks, in task order, and
	// wcets/acets hold their execution-time parameters contiguously — the
	// layout exectime.Sampler.SampleBatch consumes when the on-line phase
	// draws a whole section's actual times in one call.
	computeIdx   []int
	wcets, acets []float64
}

// taskPlan pairs a graph node with its engine-task template.
type taskPlan struct {
	node *andor.Node
	// tmpl has every field but the run-specific WorkA and LFT filled in.
	tmpl sim.Task
	// relLFT is the task's latest finish time minus the deadline (always
	// ≤ 0): LFT = D + relLFT. It equals the task's finish time in the
	// section's canonical schedule minus the worst-case time from the
	// section's start to the application's end.
	relLFT float64
}

// DefaultScheduleCacheCapacity bounds the process-wide section-schedule
// cache NewPlan consults by default. Entries are small (a few slices per
// section), so the default is generous enough that realistic workload mixes
// never evict.
const DefaultScheduleCacheCapacity = 4096

// scheduleCache is the process-wide section-schedule memoization used by
// NewPlan; see docs/COMPILE_CACHE.md.
var scheduleCache = schedcache.New(DefaultScheduleCacheCapacity)

// ScheduleCacheStats snapshots the process-wide section-schedule cache
// counters.
func ScheduleCacheStats() schedcache.Stats { return scheduleCache.Stats() }

// NewPlan runs the off-line phase on m identical processors: it validates
// the application, decomposes it into program sections, builds each
// section's canonical longest-task-first schedule on m processors at
// maximum speed, aggregates worst- and average-case completion times over
// the section graph, and derives each task's canonical dispatch order and
// relative latest finish time. The machine is the single-class
// power.Homogeneous(platform, m); `@class` tags in the graph are ignored.
//
// Canonical section schedules are memoized in a process-wide cache keyed by
// the section's structural digest and the scheduling parameters, so
// recompiling the same (section, m, f_max, pad) problem skips the
// simulation runs; results are bit-identical to an uncached compile (see
// NewPlanWithCache and docs/COMPILE_CACHE.md).
//
// It returns an error if the graph is invalid or m is not positive.
// Deadline feasibility (CTWorst ≤ D) is checked by Run, which knows the
// deadline.
func NewPlan(g *andor.Graph, m int, platform *power.Platform, ov power.Overheads) (*Plan, error) {
	return NewPlanWithCache(g, m, platform, ov, scheduleCache)
}

// NewPlanWithCache is NewPlan against an explicit section-schedule cache
// instead of the process-wide one. A nil cache disables memoization. The
// compiled Plan does not retain the cache; it only reads (and populates)
// it during compilation.
func NewPlanWithCache(g *andor.Graph, m int, platform *power.Platform, ov power.Overheads,
	cache *schedcache.Cache) (*Plan, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: processor count %d must be positive", m)
	}
	if platform == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	hp, err := power.Homogeneous(platform, m)
	if err != nil {
		return nil, err
	}
	return compile(g, hp, platform, ov, sim.FastestFirst, cache)
}

// NewHeteroPlan runs the off-line phase for a heterogeneous platform: the
// canonical longest-task-first schedules are built on the platform's actual
// processor mix (every class at its own maximum speed, processors chosen by
// the given placement policy; nil defaults to sim.FastestFirst), work is
// measured in cycles at the reference rate Hetero.RefFmax, and every task
// additionally records the class its canonical schedule ran it on. The
// online phase pins each task to that class: within a class the processors
// are identical, so the paper's Theorem-1 argument applies class by class
// and deadline safety survives unequal processors — whereas letting the
// online run migrate a task to any other class, even a faster one, admits
// Graham-style timing anomalies (docs/MODEL.md). Placement is therefore a
// plan parameter: sim.EnergyGreedy steers canonical work onto cheaper
// classes (usually lengthening CTWorst, the minimum feasible deadline, in
// exchange for energy), and sim.ClassAffinity honors `@class` tags.
//
// Task nodes tagged with a class name (andor's `@class`) must name one of
// the platform's classes; the tag becomes the task's placement affinity.
// On a 1-class platform every placement policy compiles the same plan.
//
// Heterogeneous canonical schedules are memoized in the same process-wide
// section cache as identical-processor ones, under a key that additionally
// carries the platform's content hash (power.Hetero.Key), the placement
// policy name and the section's class-affinity tags — the parts a
// heterogeneous schedule depends on that the structural digest omits — so
// placement-sensitive entries can never poison identical-platform ones.
// Cached compiles are bit-identical to uncached ones (differential-tested).
func NewHeteroPlan(g *andor.Graph, hp *power.Hetero, ov power.Overheads, place sim.PlacementPolicy) (*Plan, error) {
	return NewHeteroPlanWithCache(g, hp, ov, place, scheduleCache)
}

// NewHeteroPlanWithCache is NewHeteroPlan against an explicit
// section-schedule cache instead of the process-wide one (the serve layer's
// shared-nothing workers each bring their own). A nil cache disables
// memoization. The compiled Plan does not retain the cache.
func NewHeteroPlanWithCache(g *andor.Graph, hp *power.Hetero, ov power.Overheads,
	place sim.PlacementPolicy, cache *schedcache.Cache) (*Plan, error) {
	if hp == nil {
		return nil, fmt.Errorf("core: nil heterogeneous platform")
	}
	if place == nil {
		place = sim.FastestFirst
	}
	return compile(g, hp, nil, ov, place, cache)
}

// compile is the off-line phase on machine hp. platform is the identical
// processors' table when hp is its power.Homogeneous wrapper (NewPlan), nil
// otherwise.
func compile(g *andor.Graph, hp *power.Hetero, platform *power.Platform, ov power.Overheads,
	place sim.PlacementPolicy, cache *schedcache.Cache) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	secs, err := andor.Decompose(g)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Graph:     g,
		Sections:  secs,
		Procs:     hp.NumProcs(),
		Hetero:    hp,
		Platform:  platform,
		Placement: place,
		Overheads: ov,
		fmax:      hp.RefFmax(),
		secs:      make([]*secPlan, len(secs.All)),
	}
	p.maxChange = make([]float64, hp.NumClasses())
	for c := range p.maxChange {
		p.maxChange[c] = ov.MaxChangeTime(hp.Class(c).Plat)
		p.maxPower = math.Max(p.maxPower, hp.Class(c).Plat.MaxPower())
	}
	cc := &compileScratch{pad: ov.PadTimeHetero(hp), cache: cache}
	// The schedule-cache key's machine part, computed once per compile:
	// canonical schedules on identical processors are fully determined by
	// the section, m, f_max and the pad, so identical-processor plans share
	// entries across DVS tables; other machines add the platform's content
	// hash and the placement.
	if cache != nil && platform == nil {
		cc.machine = hp.Key() + "/" + place.Name()
	}
	for _, sec := range secs.All {
		sp, err := p.planSection(sec, cc)
		if err != nil {
			return nil, err
		}
		sp.taskOff = p.numTasks
		p.numTasks += len(sp.tasks)
		p.secs[sec.ID] = sp
	}
	p.aggregate()
	for _, sp := range p.secs {
		base := sp.remWorst + sp.lenW // worst time from section start to app end
		for i := range sp.tasks {
			sp.tasks[i].relLFT -= base
		}
	}
	p.CTWorst = p.secs[secs.First.ID].lenW + p.secs[secs.First.ID].remWorst
	p.CTAvg = p.secs[secs.First.ID].lenA + p.secs[secs.First.ID].remAvg
	if !finite(p.CTWorst) || !finite(p.CTAvg) {
		return nil, fmt.Errorf("core: canonical completion times %g (worst case) and %g (average) are not both finite",
			p.CTWorst, p.CTAvg)
	}
	if err := p.compilePrograms(); err != nil {
		return nil, err
	}
	var sumW, sumA float64
	for _, sp := range p.secs {
		for j := range sp.wcets {
			sumW += sp.wcets[j]
			sumA += sp.acets[j]
		}
	}
	if sumW > 0 {
		p.alphaTask = sumA / sumW
	}
	return p, nil
}

// compilePrograms compiles every section's engine program from its
// templates, all into one backing array.
func (p *Plan) compilePrograms() error {
	buf := make([]int, 2*p.numTasks)
	// The engine takes a section as task pointers; sections of up to 64
	// tasks point from a stack array.
	var stack [64]*sim.Task
	for _, sp := range p.secs {
		ptrs := stack[:0]
		for i := range sp.tasks {
			ptrs = append(ptrs, &sp.tasks[i].tmpl)
		}
		var err error
		if buf, err = sim.CompileInto(&sp.prog, p.Hetero, ptrs, buf); err != nil {
			return fmt.Errorf("core: section %d: %w", sp.sec.ID, err)
		}
	}
	return nil
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// compileScratch is what the section compiles of one plan share.
type compileScratch struct {
	// pad is the per-task worst-case allowance for power-management
	// overheads.
	pad float64
	// cache, when non-nil, memoizes the canonical engine runs; machine is
	// its key's machine part (empty on identical processors).
	cache   *schedcache.Cache
	machine string
	// arena runs the canonical schedules under canon, allocated on the
	// first cache miss; each result is consumed before the next run.
	arena *sim.Arena
	canon sim.Config
	// tasks and ptrs hold the section the next canonical run schedules
	// (canonicalTasks), reused across runs.
	tasks []sim.Task
	ptrs  []*sim.Task
}

// planSection builds one section's canonical schedules and task templates.
// When cc.cache is non-nil the canonical engine runs are memoized under the
// section's structural digest and the machine key: a hit reuses the cached
// dispatch orders, finish times, lengths and canonical classes
// (bit-identical to recomputing them) and skips both simulations.
func (p *Plan) planSection(sec *andor.Section, cc *compileScratch) (*secPlan, error) {
	pad, machine, cache := cc.pad, cc.machine, cc.cache
	sp := &secPlan{sec: sec}
	if len(sec.Nodes) == 0 {
		return sp, nil // zero-length section (Or chained to Or)
	}
	local := make(map[*andor.Node]int, len(sec.Nodes))
	for i, n := range sec.Nodes {
		local[n] = i
	}
	sp.tasks = make([]taskPlan, len(sec.Nodes))
	for i, n := range sec.Nodes {
		t := sim.Task{Node: n.ID, Name: n.Name, Dummy: n.Kind == andor.And}
		if n.Kind == andor.Compute {
			t.WorkW = (n.WCET + pad) * p.fmax
			// Cycle counts that overflow would enter the canonical runs
			// and the schedule cache as infinite schedules.
			if w, a := t.WorkW, (n.ACET+pad)*p.fmax; !finite(w) || !finite(a) {
				return nil, fmt.Errorf("core: task %q: padded times (%gs worst, %gs average) overflow at %g cycles/s",
					n.Name, n.WCET+pad, n.ACET+pad, p.fmax)
			}
			if p.Platform == nil && n.Class != "" {
				ci := p.Hetero.ClassIndex(n.Class)
				if ci < 0 {
					return nil, fmt.Errorf("core: task %q: platform %q has no processor class %q",
						n.Name, p.Hetero.Name, n.Class)
				}
				t.Affinity = ci + 1
			}
		}
		for _, pr := range n.Preds() {
			if j, ok := local[pr]; ok {
				t.Preds = append(t.Preds, j)
			}
			// Predecessors outside the section are Or nodes (entries);
			// the barrier discipline satisfies them implicitly.
		}
		for _, su := range n.Succs() {
			if j, ok := local[su]; ok {
				t.Succs = append(t.Succs, j)
			}
		}
		sp.tasks[i] = taskPlan{node: n, tmpl: t}
		if n.Kind == andor.Compute {
			sp.computeIdx = append(sp.computeIdx, i)
			sp.wcets = append(sp.wcets, n.WCET)
			sp.acets = append(sp.acets, n.ACET)
		}
	}

	var key schedcache.Key
	if cache != nil {
		key = schedcache.Key{
			Section:  sec.Digest(),
			Procs:    p.Procs,
			FMaxBits: math.Float64bits(p.fmax),
			PadBits:  math.Float64bits(pad),
		}
		if machine != "" {
			// The structural digest covers neither the processor mix, the
			// placement, nor the `@class` tags (identical-processor
			// schedules ignore all three); fold them in so heterogeneous
			// entries only ever match the exact same scheduling problem.
			key.Hetero = machine
			key.ClassBits = classAffinityBits(sp.tasks)
		}
		// The length and class-shape guards downgrade a (cryptographically
		// improbable) digest collision to a recompute rather than a corrupt
		// plan.
		if cs, ok := cache.Get(key); ok && len(cs.Order) == len(sp.tasks) &&
			(cs.Classes != nil) == (machine != "") {
			sp.lenW, sp.lenA = cs.LenW, cs.LenA
			for i := range sp.tasks {
				sp.tasks[i].tmpl.Order = cs.Order[i]
				sp.tasks[i].relLFT = cs.FinishW[i] // made deadline-relative by NewPlan
				sp.tasks[i].tmpl.SpecRemain = cs.SpecRemain[i]
				if cs.Classes != nil {
					sp.tasks[i].tmpl.CanonClass = cs.Classes[i]
				}
			}
			return sp, nil
		}
	}

	// Worst-case canonical schedule: padded WCETs at f_max, longest task
	// first. It defines the section length, the dispatch orders and the
	// per-task canonical finish times used for shifting. Every class runs
	// at its own maximum speed with processors chosen by the plan's
	// placement policy, and each task's canonical class is recorded — the
	// online feasibility guard pins the task there.
	if cc.arena == nil {
		cc.arena = sim.NewArena()
		cc.canon = sim.Config{Mode: sim.ByPriority, Hetero: p.Hetero, Placement: p.Placement}
	}
	worst := cc.canonicalTasks(sp, func(tp *taskPlan) float64 { return tp.tmpl.WorkW })
	resW, err := cc.arena.Run(&cc.canon, worst)
	if err != nil {
		return nil, fmt.Errorf("core: canonical schedule of section %d: %w", sec.ID, err)
	}
	sp.lenW = resW.Finish
	if !finite(sp.lenW) {
		return nil, fmt.Errorf("core: canonical schedule of section %d: length %g not finite", sec.ID, sp.lenW)
	}
	for k, rec := range resW.Records {
		sp.tasks[rec.Task].tmpl.Order = k
		sp.tasks[rec.Task].relLFT = rec.Finish // made deadline-relative by NewPlan
		sp.tasks[rec.Task].tmpl.CanonClass = p.Hetero.ClassOf(rec.Proc)
	}

	// Average-case canonical schedule: same heuristic with padded ACETs.
	// Only its length is kept (the paper's T*_k PMP values for
	// speculation).
	avg := cc.canonicalTasks(sp, func(tp *taskPlan) float64 {
		if tp.node.Kind != andor.Compute {
			return 0
		}
		return (tp.node.ACET + pad) * p.fmax
	})
	resA, err := cc.arena.Run(&cc.canon, avg)
	if err != nil {
		return nil, fmt.Errorf("core: average canonical schedule of section %d: %w", sec.ID, err)
	}
	sp.lenA = resA.Finish
	if !finite(sp.lenA) {
		return nil, fmt.Errorf("core: average canonical schedule of section %d: length %g not finite", sec.ID, sp.lenA)
	}
	// Per-task remaining average-case time within the section (the PMP
	// statistic the per-PMP speculation scheme reads): the average
	// canonical length minus the task's average canonical dispatch time.
	for _, rec := range resA.Records {
		sp.tasks[rec.Task].tmpl.SpecRemain = sp.lenA - rec.Dispatch
	}

	if cache != nil {
		cs := &schedcache.Schedule{
			LenW:       sp.lenW,
			LenA:       sp.lenA,
			Order:      make([]int, len(sp.tasks)),
			FinishW:    make([]float64, len(sp.tasks)),
			SpecRemain: make([]float64, len(sp.tasks)),
		}
		if machine != "" {
			cs.Classes = make([]int, len(sp.tasks))
		}
		for i := range sp.tasks {
			cs.Order[i] = sp.tasks[i].tmpl.Order
			cs.FinishW[i] = sp.tasks[i].relLFT
			cs.SpecRemain[i] = sp.tasks[i].tmpl.SpecRemain
			if cs.Classes != nil {
				cs.Classes[i] = sp.tasks[i].tmpl.CanonClass
			}
		}
		cache.Put(key, cs)
	}
	return sp, nil
}

// classAffinityBits hashes a section's per-task class affinities (local
// index, resolved class index) into the schedule-cache key. FNV-1a over the
// tagged tasks only: untagged sections of equal shape still share entries.
func classAffinityBits(tasks []taskPlan) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := range tasks {
		if a := tasks[i].tmpl.Affinity; a != 0 {
			h = (h ^ uint64(i)) * 0x100000001b3
			h = (h ^ uint64(a)) * 0x100000001b3
		}
	}
	return h
}

// canonicalTasks copies the section's task templates into cc's scratch
// with WorkA set by dur (cycles), for an off-line engine run. The tasks
// are rewritten by the next call.
func (cc *compileScratch) canonicalTasks(sp *secPlan, dur func(*taskPlan) float64) []*sim.Task {
	if n := len(sp.tasks); cap(cc.tasks) < n {
		cc.tasks, cc.ptrs = make([]sim.Task, n), make([]*sim.Task, n)
	}
	tasks, ptrs := cc.tasks[:len(sp.tasks)], cc.ptrs[:len(sp.tasks)]
	for i := range sp.tasks {
		tasks[i] = sp.tasks[i].tmpl
		tasks[i].WorkA = dur(&sp.tasks[i])
		ptrs[i] = &tasks[i]
	}
	return ptrs
}

// aggregate fills remWorst/remAvg by memoized recursion over the section
// DAG (the paper's per-PMP worst/average remaining times).
func (p *Plan) aggregate() {
	done := make([]bool, len(p.secs))
	var visit func(sp *secPlan)
	visit = func(sp *secPlan) {
		if done[sp.sec.ID] {
			return
		}
		done[sp.sec.ID] = true
		exit := sp.sec.Exit
		if exit == nil || len(exit.Succs()) == 0 {
			return // terminal section: nothing remains
		}
		branches := p.Sections.Branch[exit.ID]
		var worst, avg float64
		for i, next := range branches {
			nsp := p.secs[next.ID]
			visit(nsp)
			w := nsp.lenW + nsp.remWorst
			if w > worst {
				worst = w
			}
			avg += exit.BranchProb(i) * (nsp.lenA + nsp.remAvg)
		}
		sp.remWorst, sp.remAvg = worst, avg
	}
	for _, sp := range p.secs {
		visit(sp)
	}
}

// Feasible reports whether the application is guaranteed to meet the given
// deadline: the canonical schedule of the longest path finishes by D
// (Theorem 1's precondition).
func (p *Plan) Feasible(deadline float64) bool {
	return p.CTWorst <= deadline*(1+1e-12)
}

// MinDeadline returns the smallest feasible deadline, CTWorst.
func (p *Plan) MinDeadline() float64 { return p.CTWorst }

// EnergyBound bounds the energy of any run of p under the given deadline:
// every processor drawing the highest maximum power of any class for
// max(deadline, CTWorst) seconds. It is +Inf when that bound or the
// processor time it multiplies overflows; a run's energies could then
// overflow too, so RunConfig checks refuse such a deadline.
func (p *Plan) EnergyBound(deadline float64) float64 {
	t := float64(p.Procs) * math.Max(deadline, p.CTWorst)
	if math.IsInf(t, 0) {
		return t
	}
	return p.maxPower * t
}

// SectionAvgRemaining returns, for the section with the given ID, the
// average-case time to complete the application from that section's start:
// its own average canonical length plus the probability-weighted remainder
// after its exit barrier. The adaptive speculation scheme divides this by
// the time to the deadline.
func (p *Plan) SectionAvgRemaining(sectionID int) float64 {
	sp := p.secs[sectionID]
	return sp.lenA + sp.remAvg
}

// SectionWorstRemaining returns the worst-case analogue of
// SectionAvgRemaining.
func (p *Plan) SectionWorstRemaining(sectionID int) float64 {
	sp := p.secs[sectionID]
	return sp.lenW + sp.remWorst
}

// NumSections returns the number of program sections.
func (p *Plan) NumSections() int { return len(p.secs) }

// SpeculativeSpeed returns the paper's static speculative speed
// f_max·CT_avg/D for the given deadline (before level quantization).
func (p *Plan) SpeculativeSpeed(deadline float64) float64 {
	if deadline <= 0 {
		return math.Inf(1)
	}
	return p.fmax * p.CTAvg / deadline
}
