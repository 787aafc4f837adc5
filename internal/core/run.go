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
	// and overhead arithmetic) via sim.ValidateSection. Intended for tests;
	// the run keeps its records and costs one extra pass per section.
	Validate bool
	// Tracer, if non-nil, receives the run's structured event stream:
	// section boundaries, OR resolutions and the schemes' slack decisions
	// from this layer, plus the engine's dispatch/finish/speed-change/idle
	// events, all derived from the run's records after it completed. Nil
	// (the default), with Metrics nil, skips that pass.
	Tracer obs.Tracer
	// Metrics, if non-nil, is updated with the engine's and the scheme's
	// instruments (see the sim.Metric* and core.Metric* names) after the
	// run, section by section; a snapshot is attached to the result.
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
	// MetricORAAlpha is a gauge holding ORA's final α estimate, the one
	// after the run's last section.
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
// one's engine step (its program and its tasks' sampled actual work), and
// the OR branch decisions. Resolving it up front decouples the random
// draws from the scheduling policy, so the same script can be replayed
// under different speed schedules (the clairvoyant bound does exactly
// that).
type script struct {
	sections []*secPlan
	steps    []sim.Step // actual cycles indexed [step].Work[task]
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
	for k := 0; ; k++ {
		sp := &p.secs[sec.ID]
		sc.sections = append(sc.sections, sp)
		var works []float64
		if k < cap(sc.steps) {
			works = sc.steps[:k+1][k].Work
		}
		works = ensureFloats(works, len(sp.tasks))
		sc.steps = append(sc.steps[:k], sim.Step{Prog: &sp.prog, Work: works})
		clear(works)
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
	if cfg.Scheme != CLV {
		a.pol.init(p, cfg.Scheme, cfg.Deadline)
		a.pol.setORAWeight(cfg.ORAWeight)
		return p.execute(cfg, a, sc, &a.pol, nil, out)
	}
	// The clairvoyant bound's probe is the script's NPM replay, an
	// internal measurement kept out of the observed run.
	probe := RunConfig{Scheme: NPM, Deadline: cfg.Deadline}
	if err := p.runScript(&probe, a, sc, &a.probe); err != nil {
		return err
	}
	return p.runClairvoyant(cfg, a, sc, a.probe.Finish, out)
}

// execute replays a resolved script under the given policy, writing into
// out, with one engine run. levelsOverride, if non-nil, sets the
// processors' initial levels (the clairvoyant bound starts directly at its
// chosen level); otherwise the policy's initial level is used. The engine
// keeps records only when the run is validated, traced, metered or
// collects a trace.
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
	observed := cfg.Tracer != nil || cfg.Metrics != nil
	pol.sc = sc
	simCfg := &a.simCfg
	simCfg.Hetero, simCfg.Placement, simCfg.Overheads, simCfg.Policy = hp, p.Placement, ov, pol
	simCfg.InitialLevels, simCfg.Deadline = a.levels, d
	simCfg.Record = observed || cfg.Validate || cfg.CollectTrace
	sr, err := a.sim.Run(simCfg, sc.steps)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Identical-processor plans report no per-class breakdown.
	var classGross, classIdle []float64
	if p.Platform == nil {
		classGross = append(out.ClassGrossEnergy[:0], sr.ClassEnergy...)
		classIdle = ensureFloats(out.ClassIdleEnergy, len(classGross))
		clear(classIdle)
	}
	levelTime := append(out.LevelTime[:0], sr.LevelTime...)
	finalLevels := append(out.FinalLevels[:0], sr.FinalLevels...)
	path, trace := append(out.Path[:0], sc.choices...), out.Trace[:0]
	*out = RunResult{
		Scheme: cfg.Scheme, Deadline: d,
		Finish:           sr.Finish,
		MetDeadline:      sr.Finish <= d*(1+feasTol),
		ActiveEnergy:     sr.ActiveEnergy,
		OverheadEnergy:   sr.OverheadEnergy,
		ClassGrossEnergy: classGross,
		ClassIdleEnergy:  classIdle,
		SpeedChanges:     sr.SpeedChanges,
		BusyTime:         sr.BusyTime,
		OverheadTime:     sr.OverheadTime,
		LevelTime:        levelTime,
		FinalLevels:      finalLevels,
		Path:             path,
		Trace:            trace,
	}
	// The engine counts latest-start-time violations at dispatch; the
	// clairvoyant bound's replay is not held to them.
	if cfg.Scheme != CLV {
		out.LSTViolations = sr.LSTViolations
	}
	if observed {
		a.obs.begin(cfg, pol, a.levels)
	}
	start := 0.0 // section k's start: the previous section's finish
	for k := range sr.Sections {
		sec, sp := &sr.Sections[k], sc.sections[k]
		if observed {
			a.obs.section(sc, k, sec)
		}
		if cfg.Validate {
			if err := sim.ValidateSection(hp, d, start, sc.steps[k], sec); err != nil {
				return fmt.Errorf("core: section %d: %w", sp.sec.ID, err)
			}
		}
		start = sec.Finish
		if cfg.CollectTrace {
			out.Trace = append(out.Trace, sim.Entries(&sp.prog, sec.Records)...)
		}
	}

	horizon := math.Max(d, sr.Finish)
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
		// Idle energy on several classes is per processor: classes idle at
		// their own platform's idle power.
		for i := 0; i < p.Procs; i++ {
			idle := horizon - sr.ProcBusyTime[i] - sr.ProcOverheadTime[i]
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
// (actual times and path) and its schedule length at f_max — probe, the
// finish of its NPM replay — it picks the slowest level that still meets
// the deadline — execution scales exactly linearly in 1/f, barriers
// included — and replays the script at that constant speed with no
// power-management costs. CLV is not one of the paper's schemes; it bounds
// what speculation can hope to achieve and is used by the ablation
// benches.
//
// The probe runs every class flat out, and the stretch finish/D is applied
// to each class's own maximum frequency and quantized on its own table. On
// identical processors that is the single slowest feasible level; on
// several classes it is a per-class uniform slowdown of the probe
// schedule, which still meets the deadline, but because each class rounds
// to its own grid the replay is a near-bound heuristic, not a provably
// minimal single speed.
func (p *Plan) runClairvoyant(cfg *RunConfig, a *Arena, sc *script, probe float64, out *RunResult) error {
	a.pol.init(p, CLV, cfg.Deadline)
	hp := p.Hetero
	for c := 0; c < hp.NumClasses(); c++ {
		plat := hp.Class(c).Plat
		a.pol.fixed[c] = plat.QuantizeUp(plat.Max().Freq * probe / cfg.Deadline)
	}
	a.clvLevels = ensureInts(a.clvLevels, p.Procs)
	for i := range a.clvLevels {
		a.clvLevels[i] = a.pol.fixed[hp.ClassOf(i)]
	}
	return p.execute(cfg, a, sc, &a.pol, a.clvLevels, out)
}
