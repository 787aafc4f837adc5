package core

import (
	"fmt"
	"math"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// RunConfig parameterizes one on-line execution of a planned application.
type RunConfig struct {
	// Scheme selects the power management scheme.
	Scheme Scheme
	// Deadline is the application deadline D in seconds. Run fails if the
	// plan is infeasible for it.
	Deadline float64
	// Sampler supplies actual execution times and drives OR branch
	// selection. Required unless both WorstCase and ForceBranches cover
	// the run.
	Sampler *exectime.Sampler
	// WorstCase, if set, makes every task consume its full WCET instead of
	// a sampled actual time (used by correctness tests).
	WorstCase bool
	// ForceBranches, if non-empty, overrides OR branch selection: the k-th
	// OR node resolved during the run takes branch ForceBranches[k]. When
	// the list is exhausted selection falls back to the sampler (or to
	// branch 0 if there is none).
	ForceBranches []int
	// CollectTrace records a Gantt entry per task execution.
	CollectTrace bool
	// Validate cross-checks every section's schedule against the machine
	// model's invariants (occupancy, precedence, order gating, duration
	// and overhead arithmetic) via sim.ValidateResult. Intended for tests;
	// costs one extra pass per section.
	Validate bool
	// Tracer, if non-nil, receives the run's structured event stream:
	// section boundaries, OR resolutions and the schemes' slack decisions
	// from this layer, plus the engine's dispatch/finish/speed-change/idle
	// events, all derived from each section's records after it ran. Nil
	// (the default), with Metrics nil, skips that pass.
	Tracer obs.Tracer
	// Metrics, if non-nil, is updated with the engine's and the scheme's
	// instruments (see the sim.Metric* and core.Metric* names) after each
	// section; a snapshot is attached to the result.
	Metrics *obs.Metrics
	// ORAWeight tunes ORA's α-estimator and is ignored by every other
	// scheme: 0 selects DefaultORAWeight, a negative value freezes the
	// estimator (ORA then reproduces AS bit-exactly — differential tests
	// use this), and a value in (0, 1] is the EWMA weight. Values above 1
	// are rejected.
	ORAWeight float64
}

// Metrics names updated by the run driver and scheme policies.
const (
	// MetricSlackShare is the histogram of per-task slack-sharing
	// allocations (seconds beyond the worst case at f_max) computed by the
	// dynamic schemes.
	MetricSlackShare = "core.slack.share_seconds"
	// MetricSlackSteals counts pickups where a speculative floor overrode
	// the greedy slack-sharing level (counter).
	MetricSlackSteals = "core.slack.steals"
	// MetricSections counts program sections executed (counter).
	MetricSections = "core.sections"
	// MetricORResolves counts OR synchronization nodes resolved (counter).
	MetricORResolves = "core.or.resolves"
	// MetricORAAlpha is a gauge holding ORA's current α estimate —
	// refreshed after every completed section, so a snapshot taken at run
	// end reports the final estimate.
	MetricORAAlpha = "core.slack.ora_alpha"
)

// RunResult reports one on-line execution.
type RunResult struct {
	// Scheme and Deadline echo the configuration.
	Scheme   Scheme
	Deadline float64
	// Finish is the application completion time.
	Finish float64
	// MetDeadline reports Finish ≤ Deadline (up to rounding).
	MetDeadline bool
	// LSTViolations counts tasks dispatched after their latest start time.
	// Theorem 1 guarantees zero; the engine counts them at dispatch.
	LSTViolations int

	// ActiveEnergy is the energy (joules) spent executing task work;
	// OverheadEnergy the energy of speed computations and changes;
	// IdleEnergy the energy of idle processors over the horizon
	// [0, max(Deadline, Finish)] at the platform's idle power.
	ActiveEnergy, OverheadEnergy, IdleEnergy float64
	// ClassGrossEnergy and ClassIdleEnergy decompose the energy by
	// processor class on heterogeneous runs (indexed by class):
	// ClassGrossEnergy[c] is class c's active plus overhead joules,
	// ClassIdleEnergy[c] its idle joules over the same horizon. The class
	// totals sum to ActiveEnergy+OverheadEnergy and IdleEnergy
	// respectively (up to float association). Nil on identical-processor
	// runs.
	ClassGrossEnergy, ClassIdleEnergy []float64
	// SpeedChanges counts voltage/speed transitions.
	SpeedChanges int
	// BusyTime and OverheadTime are the summed per-processor seconds.
	BusyTime, OverheadTime float64
	// LevelTime[i] is the total task-execution time spent at platform
	// level i, summed over processors (the speed residency profile).
	LevelTime []float64
	// FinalLevels is each processor's level index when the application
	// finished; a stream of frames carries it into the next frame.
	FinalLevels []int
	// Path records the OR branch decisions taken.
	Path []andor.Choice
	// Trace holds per-task execution rows when CollectTrace was set.
	Trace []sim.GanttEntry
	// Metrics is the registry snapshot taken when the run finished; nil
	// unless RunConfig.Metrics was set.
	Metrics *obs.Snapshot
}

// Energy returns the total energy consumed: active + overhead + idle.
func (r *RunResult) Energy() float64 {
	return r.ActiveEnergy + r.OverheadEnergy + r.IdleEnergy
}

// script is one run's pre-resolved execution: the sections visited, each
// task's sampled actual work, and the OR branch decisions. Resolving it up
// front decouples the random draws from the scheduling policy, so the same
// script can be replayed under different speed schedules (the clairvoyant
// bound does exactly that).
type script struct {
	sections []*secPlan
	works    [][]float64 // actual cycles, indexed [step][task]
	choices  []andor.Choice
}

// resolve walks the section graph once, sampling actual execution times
// and branch outcomes in the same order the execution consumes them. Each
// section's actual times come from one SampleBatch call over its compute
// tasks (worst-case runs take the WCETs instead) and are scattered into
// the step's work slice. The returned script is arena-owned; its per-step
// work slices are recycled.
func (p *Plan) resolve(cfg *RunConfig, a *Arena) *script {
	sc := &a.sc
	sc.sections = sc.sections[:0]
	sc.choices = sc.choices[:0]
	sec := p.Sections.First
	orCount := 0
	step := 0
	for {
		sp := &p.secs[sec.ID]
		sc.sections = append(sc.sections, sp)
		if step < len(sc.works) {
			sc.works[step] = ensureFloats(sc.works[step], len(sp.tasks))
		} else {
			sc.works = append(sc.works, make([]float64, len(sp.tasks)))
		}
		works := sc.works[step]
		step++
		for i := range works {
			works[i] = 0
		}
		idx, wcets, acets := p.computes(sp)
		times := wcets
		if !cfg.WorstCase {
			a.batch = ensureFloats(a.batch, len(idx))
			cfg.Sampler.SampleBatch(wcets, acets, a.batch)
			times = a.batch
		}
		for j, ti := range idx {
			works[ti] = times[j] * p.fmax
		}
		exit := sp.sec.Exit
		if exit == nil || len(exit.Succs()) == 0 {
			return sc
		}
		branch := p.chooseBranch(exit, orCount, cfg, a)
		orCount++
		sc.choices = append(sc.choices, andor.Choice{Or: exit, Branch: branch})
		sec = p.Sections.Branch[exit.ID][branch]
	}
}

// Run executes the application once under the configured scheme. The
// returned result is self-contained; Run may be called concurrently on the
// same Plan with independent samplers. It is a thin wrapper over RunInto
// with fresh scratch state; hot loops should hold an Arena per goroutine
// and call RunInto, which allocates nothing in the steady state.
func (p *Plan) Run(cfg RunConfig) (*RunResult, error) {
	out := new(RunResult)
	if err := p.RunInto(cfg, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto is the arena-threaded form of Run: scratch state comes from a
// (nil uses fresh buffers) and the result is written into out, reusing
// out's slices. Results are bit-identical to Run for any arena reuse
// pattern. out must not alias state still needed by the caller; its
// previous contents are overwritten.
func (p *Plan) RunInto(cfg RunConfig, a *Arena, out *RunResult) error {
	if err := p.check(&cfg); err != nil {
		return err
	}
	if a == nil {
		a = NewArena()
	}
	return p.runScript(&cfg, a, p.resolve(&cfg, a), out)
}

// check reports why cfg cannot run on p: a non-positive or infeasible
// deadline, one whose energy bound overflows, a missing sampler, or an
// out-of-range ORA weight. None of the checks depends on the scheme.
func (p *Plan) check(cfg *RunConfig) error {
	d := cfg.Deadline
	if d <= 0 {
		return fmt.Errorf("core: non-positive deadline %g", d)
	}
	if !p.Feasible(d) {
		return fmt.Errorf("core: infeasible deadline %g < canonical worst case %g", d, p.CTWorst)
	}
	if math.IsInf(p.EnergyBound(d), 0) {
		return fmt.Errorf("core: deadline %g too long: the energy bound over it is not finite", d)
	}
	if cfg.Sampler == nil && !cfg.WorstCase {
		return fmt.Errorf("core: RunConfig needs a Sampler unless WorstCase is set")
	}
	if cfg.ORAWeight > 1 {
		return fmt.Errorf("core: ORAWeight %g out of range (want ≤ 1; 0 = default, < 0 = frozen)", cfg.ORAWeight)
	}
	return nil
}

// runScript executes a resolved script under cfg's scheme into out. It
// draws no randomness, so one script replays identically under any number
// of schemes.
func (p *Plan) runScript(cfg *RunConfig, a *Arena, sc *script, out *RunResult) error {
	if cfg.Scheme == CLV {
		return p.runClairvoyant(cfg, a, sc, out)
	}
	a.pol.init(p, cfg.Scheme, cfg.Deadline)
	a.pol.setORAWeight(cfg.ORAWeight)
	return p.execute(cfg, a, sc, &a.pol, nil, out)
}

// execute replays a resolved script under the given policy, writing into
// out. levelsOverride, if non-nil, sets the processors' initial levels (the
// clairvoyant bound starts directly at its chosen level); otherwise the
// policy's initial level is used.
func (p *Plan) execute(cfg *RunConfig, a *Arena, sc *script, pol *policy, levelsOverride []int, out *RunResult) error {
	d := cfg.Deadline
	// Dynamic schemes pay the power-management overheads; NPM, SPM and the
	// clairvoyant bound perform no run-time speed computation.
	var ov power.Overheads
	if cfg.Scheme.Dynamic() {
		ov = p.Overheads
	}
	// Processors start at the scheme's initial speed: f_max for the
	// dynamic schemes and NPM, the static speed for SPM (set once before
	// release, as in [11]).
	hp := p.Hetero
	a.levels = ensureInts(a.levels, p.Procs)
	if levelsOverride != nil {
		copy(a.levels, levelsOverride)
	} else {
		for i := range a.levels {
			a.levels[i] = pol.initialLevel(hp.ClassOf(i))
		}
	}
	// Idle energy on several classes is per processor (classes idle at
	// their own platform's idle power), so busy/overhead time also
	// accumulates per processor.
	a.busyP = ensureFloats(a.busyP, p.Procs)
	a.ovhP = ensureFloats(a.ovhP, p.Procs)
	for i := 0; i < p.Procs; i++ {
		a.busyP[i] = 0
		a.ovhP[i] = 0
	}

	lt := ensureFloats(out.LevelTime, hp.MaxLevels())
	for i := range lt {
		lt[i] = 0
	}
	// Identical-processor plans report no per-class breakdown.
	var classGross, classIdle []float64
	if p.Platform == nil {
		nc := hp.NumClasses()
		classGross = ensureFloats(out.ClassGrossEnergy, nc)
		classIdle = ensureFloats(out.ClassIdleEnergy, nc)
		for i := 0; i < nc; i++ {
			classGross[i] = 0
			classIdle[i] = 0
		}
	}
	*out = RunResult{
		Scheme: cfg.Scheme, Deadline: d,
		LevelTime:        lt,
		ClassGrossEnergy: classGross,
		ClassIdleEnergy:  classIdle,
		FinalLevels:      out.FinalLevels[:0],
		Path:             out.Path[:0],
		Trace:            out.Trace[:0],
	}
	// One engine configuration serves every section of the run: the
	// engine starts the processors at a.levels, carries each section's final
	// levels to the next and adds every execution's time to LevelTime.
	simCfg := &a.simCfg
	*simCfg = sim.Config{
		Hetero:        hp,
		Placement:     p.Placement,
		Overheads:     ov,
		Policy:        pol,
		InitialLevels: a.levels,
	}
	if err := a.sim.Begin(simCfg, lt); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Observations are derived from each section's records after it ran.
	observed := cfg.Tracer != nil || cfg.Metrics != nil
	if observed {
		a.obs.begin(cfg, pol, a.levels)
	}
	now := 0.0
	var sr *sim.Result
	for step, sp := range sc.sections {
		pol.resetSection(sp.sec.ID, now)
		tasks := p.runtimeTasks(a, sp, d, sc.works[step])
		var err error
		sr, err = a.sim.Section(&sp.prog, tasks, now)
		if err != nil {
			return fmt.Errorf("core: section %d: %w", sp.sec.ID, err)
		}
		pol.observeSection(sp, sc.works[step])
		if observed {
			a.obs.section(sc, step, sp, tasks, sr, now)
		}
		if cfg.Validate {
			if err := sim.ValidateResult(hp, now, tasks, sr); err != nil {
				return fmt.Errorf("core: section %d: %w", sp.sec.ID, err)
			}
		}
		out.ActiveEnergy += sr.ActiveEnergy
		out.OverheadEnergy += sr.OverheadEnergy
		for c := range classGross {
			classGross[c] += sr.ClassActiveEnergy[c] + sr.ClassOverheadEnergy[c]
		}
		out.SpeedChanges += sr.SpeedChanges
		// The engine counts latest-start-time violations at dispatch;
		// the clairvoyant bound's replay is not held to them.
		if cfg.Scheme != CLV {
			out.LSTViolations += sr.LSTViolations
		}
		for i := range sr.BusyTime {
			out.BusyTime += sr.BusyTime[i]
			out.OverheadTime += sr.OverheadTime[i]
			a.busyP[i] += sr.BusyTime[i]
			a.ovhP[i] += sr.OverheadTime[i]
		}
		if cfg.CollectTrace {
			out.Trace = append(out.Trace, sim.Entries(tasks, sr.Records)...)
		}
		now = sr.Finish
	}
	out.Path = append(out.Path, sc.choices...)
	out.FinalLevels = append(out.FinalLevels, sr.FinalLevels...)

	out.Finish = now
	out.MetDeadline = now <= d*(1+feasTol)
	horizon := math.Max(d, now)
	if hp.NumClasses() == 1 {
		// Uniform idle power: the per-processor decomposition collapses to
		// the scalar form over the summed idle time.
		idleTime := float64(p.Procs)*horizon - out.BusyTime - out.OverheadTime
		if idleTime < 0 {
			idleTime = 0
		}
		out.IdleEnergy = hp.Class(0).Plat.IdlePower() * idleTime
		if classIdle != nil {
			classIdle[0] = out.IdleEnergy
		}
	} else {
		for i := 0; i < p.Procs; i++ {
			idle := horizon - a.busyP[i] - a.ovhP[i]
			if idle < 0 {
				idle = 0
			}
			ci := hp.ClassOf(i)
			out.IdleEnergy += hp.Class(ci).Plat.IdlePower() * idle
			classIdle[ci] += hp.Class(ci).Plat.IdlePower() * idle
		}
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		out.Metrics = &snap
	}
	return nil
}

// runtimeTasks instantiates the section's task templates for one step of a
// script: actual works installed, latest finish times resolved against the
// deadline (rewritten only when the deadline differs from the one last
// written for the section). The returned slice and the tasks it points to
// are arena-owned and rewritten the next time the arena runs this section.
func (p *Plan) runtimeTasks(a *Arena, sp *secPlan, d float64, works []float64) []*sim.Task {
	if a.taskPlan != p {
		a.taskPlan = p
		if cap(a.tasks) < p.numTasks {
			a.tasks = make([]sim.Task, p.numTasks)
			a.taskPtrs = make([]*sim.Task, p.numTasks)
		}
		a.filled = ensureBools(a.filled, len(p.secs))
		a.lftD = ensureFloats(a.lftD, len(p.secs))
	}
	lo, hi := sp.taskOff, sp.taskOff+len(sp.tasks)
	tasks, ptrs := a.tasks[lo:hi], a.taskPtrs[lo:hi]
	if !a.filled[sp.sec.ID] {
		// First use of the section since the arena switched plans: copy
		// the templates once; later runs only rewrite the run-specific
		// fields below.
		for i := range sp.tasks {
			tasks[i] = sp.tasks[i]
			ptrs[i] = &tasks[i]
		}
		a.filled[sp.sec.ID] = true
		a.lftD[sp.sec.ID] = math.NaN() // no deadline written yet
	}
	if a.lftD[sp.sec.ID] != d {
		for i := range sp.tasks {
			tasks[i].LFT = d + sp.tasks[i].LFT
		}
		a.lftD[sp.sec.ID] = d
	}
	for i := range sp.tasks {
		tasks[i].WorkA = works[i]
	}
	return ptrs
}

// chooseBranch resolves an OR node: forced branches first, then the
// sampler's distribution, then branch 0.
func (p *Plan) chooseBranch(or *andor.Node, orCount int, cfg *RunConfig, a *Arena) int {
	if orCount < len(cfg.ForceBranches) {
		b := cfg.ForceBranches[orCount]
		if b >= 0 && b < len(or.Succs()) {
			return b
		}
	}
	if len(or.Succs()) == 1 {
		return 0
	}
	if cfg.Sampler != nil {
		a.probs = ensureFloats(a.probs, len(or.Succs()))
		for i := range a.probs {
			a.probs[i] = or.BranchProb(i)
		}
		return cfg.Sampler.Source().Pick(a.probs)
	}
	return 0
}

// runClairvoyant computes the single-speed oracle the paper's §3.3 intuition
// appeals to: "a clairvoyant algorithm can achieve minimal energy
// consumption ... by running all tasks with a single speed setting if the
// actual running time of every task is known". Knowing the resolved script
// (actual times and path), it measures the schedule length at f_max, picks
// the slowest level that still meets the deadline — execution scales
// exactly linearly in 1/f, barriers included — and replays the script at
// that constant speed with no power-management costs. CLV is not one of the
// paper's schemes; it bounds what speculation can hope to achieve and is
// used by the ablation benches.
//
// The probe runs every class flat out, and the stretch finish/D is applied
// to each class's own maximum frequency and quantized on its own table. On
// identical processors that is the single slowest feasible level; on
// several classes it is a per-class uniform slowdown of the probe
// schedule, which still meets the deadline, but because each class rounds
// to its own grid the replay is a near-bound heuristic, not a provably
// minimal single speed.
func (p *Plan) runClairvoyant(cfg *RunConfig, a *Arena, sc *script, out *RunResult) error {
	probeCfg := *cfg
	probeCfg.CollectTrace = false
	probeCfg.Validate = false
	// The probe replay is an internal measurement, not part of the run
	// being observed: keep it out of the event stream and the metrics.
	probeCfg.Tracer = nil
	probeCfg.Metrics = nil
	a.probePol.init(p, CLV, cfg.Deadline) // every class at its maximum level
	if err := p.execute(&probeCfg, a, sc, &a.probePol, nil, &a.probe); err != nil {
		return err
	}
	hp := p.Hetero
	for c := 0; c < hp.NumClasses(); c++ {
		plat := hp.Class(c).Plat
		a.probePol.fixed[c] = plat.QuantizeUp(plat.Max().Freq * a.probe.Finish / cfg.Deadline)
	}
	a.clvLevels = ensureInts(a.clvLevels, p.Procs)
	for i := range a.clvLevels {
		a.clvLevels[i] = a.probePol.fixed[hp.ClassOf(i)]
	}
	return p.execute(cfg, a, sc, &a.probePol, a.clvLevels, out)
}
