// Package experiments regenerates the paper's evaluation (§5): every
// figure's data series and the platform tables, plus the ablation studies
// the paper lists as future work.
//
// Each experiment produces a Series: normalized energy (scheme energy over
// NPM energy, averaged over many runs) as a function of a swept parameter —
// system load (deadline tightness) or α (the tasks' average-to-worst-case
// execution time ratio). Runs use common random numbers across schemes:
// within one run index, every scheme sees the same actual execution times
// and the same OR branch outcomes, which makes per-run normalized ratios
// well-defined and reduces variance.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/stats"
)

// Config fixes everything about an experiment except the swept parameter.
type Config struct {
	// Graph is the application. Sweeps over α clone and rescale it.
	Graph *andor.Graph
	// Procs is the processor count m.
	Procs int
	// Platform is the DVS processor model.
	Platform *power.Platform
	// Overheads are the power-management costs (the paper: 600-cycle speed
	// computation, 5 µs speed change).
	Overheads power.Overheads
	// Schemes are the power-management schemes to evaluate. NPM always
	// runs additionally as the normalization baseline.
	Schemes []core.Scheme
	// Runs is the number of simulated executions per data point (the paper
	// uses 1000).
	Runs int
	// Seed drives all randomness; the same Config yields identical series.
	Seed uint64
	// Workers bounds the goroutines simulating the runs of one sweep in
	// parallel; 0 means GOMAXPROCS. Results are bit-identical for any
	// worker count: per-run seeds are fixed up front and per-run outputs
	// are folded per point in run order.
	Workers int
}

// Point is one x-value of a series: per-scheme mean normalized energy with
// a 95% confidence half-width, plus the mean speed-change count.
type Point struct {
	// X is the swept parameter value (load or α).
	X float64
	// Deadline is the absolute deadline used at this point.
	Deadline float64
	// NormEnergy[s] is mean over runs of E_s/E_NPM.
	NormEnergy map[core.Scheme]float64
	// CI95[s] is the 95% confidence half-width of NormEnergy[s].
	CI95 map[core.Scheme]float64
	// SpeedChanges[s] is the mean number of voltage/speed transitions.
	SpeedChanges map[core.Scheme]float64
	// NPMEnergy is the mean absolute NPM energy in joules (the
	// denominator), for reference.
	NPMEnergy float64
}

// Series is one experiment's output: an ordered list of points.
type Series struct {
	// Title and XLabel describe the series for rendering.
	Title  string
	XLabel string
	// Schemes is the column order.
	Schemes []core.Scheme
	// Points are in ascending X order.
	Points []Point
}

// defaultWorkers is the process-wide fallback for Config.Workers; see
// SetDefaultWorkers.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the worker count used by experiments whose Config
// leaves Workers at zero (e.g. the registered figure experiments, whose
// configurations are fixed). n ≤ 0 restores the GOMAXPROCS default. The
// measured numbers are identical for any worker count; only wall-clock
// time changes.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// pointSpec is one data point of a sweep: the plan and deadline its runs
// execute at, its x value, its run count and seed, and the sampler bias
// (0 draws around the plan's ACETs; b ≠ 0 draws around b·ACET, see
// exectime.NewBiasedSampler, while the plan still assumes the unscaled
// ones). label, if set, prefixes the point's error.
type pointSpec struct {
	plan        *core.Plan
	x, deadline float64
	runs        int
	seed        uint64
	bias        float64
	label       string
}

// measurePoints measures every point of a sweep under common random
// numbers (core.CompareFrames: run r of a point is frame r of the point's
// seed, replayed by the NPM baseline and every scheme). All (point, run)
// pairs of the sweep form one queue, drained by up to `workers`
// goroutines spawned once per sweep, each with one arena and one source
// plus a sampler per bias value. Per-run outputs land in flat
// preallocated slices and are folded per point in run order, so the
// points do not depend on the worker count. The error returned is the
// first in (point, run) order; every point needs at least one run.
func measurePoints(schemes []core.Scheme, specs []pointSpec, workers int) ([]Point, error) {
	offs := make([]int, len(specs)+1) // point p's runs are queue entries [offs[p], offs[p+1])
	biasOf := make([]int, len(specs)) // index of point p's bias in biases
	var biases []float64
	for p, sp := range specs {
		if sp.runs < 1 {
			return nil, fmt.Errorf("experiments: %d runs per point, want at least 1", sp.runs)
		}
		offs[p+1] = offs[p] + sp.runs
		biasOf[p] = slices.Index(biases, sp.bias)
		if biasOf[p] < 0 {
			biasOf[p] = len(biases)
			biases = append(biases, sp.bias)
		}
	}
	k := len(schemes)
	total := offs[len(specs)]
	norms := make([]float64, total*k)   // E_s/E_NPM, indexed [j*k+i] for queue entry j
	changes := make([]float64, total*k) // speed changes, same indexing
	npms := make([]float64, total)      // absolute NPM energy
	errs := make([]error, total)
	var next atomic.Int64
	work := func() {
		src := exectime.NewSource(0)
		samplers := make([]*exectime.Sampler, len(biases))
		for i, b := range biases {
			samplers[i] = exectime.NewSampler(src)
			if b != 0 {
				samplers[i] = exectime.NewBiasedSampler(src, b)
			}
		}
		arena := core.NewArena()
		p := 0 // the point of the entry being run; a worker's entries only ascend
		visit := func(r, i int, res *core.RunResult) error {
			j := offs[p] + r
			if i < 0 {
				npms[j] = res.Energy()
				return nil
			}
			if res.LSTViolations > 0 || !res.MetDeadline {
				return fmt.Errorf("%s run %d violated timing (finish %g, deadline %g, %d LST violations)",
					schemes[i], r, res.Finish, specs[p].deadline, res.LSTViolations)
			}
			norms[j*k+i] = res.Energy() / npms[j]
			changes[j*k+i] = float64(res.SpeedChanges)
			return nil
		}
		for {
			j := int(next.Add(1)) - 1
			if j >= total {
				return
			}
			for j >= offs[p+1] {
				p++
			}
			sp := &specs[p]
			r := j - offs[p]
			cfg := core.RunConfig{Deadline: sp.deadline, Sampler: samplers[biasOf[p]]}
			if err := core.CompareFrames(sp.plan, cfg, schemes, sp.seed, r, r+1, arena, src, visit); err != nil {
				errs[j] = fmt.Errorf("experiments: %w", err)
			}
		}
	}

	fanOut(workers, total, work)

	pts := make([]Point, len(specs))
	accs := make([]stats.Acc, k)
	chg := make([]stats.Acc, k)
	for p, sp := range specs {
		clear(accs)
		clear(chg)
		var npmAcc stats.Acc
		for j := offs[p]; j < offs[p+1]; j++ {
			if err := errs[j]; err != nil {
				if sp.label != "" {
					err = fmt.Errorf("%s: %w", sp.label, err)
				}
				return nil, err
			}
			npmAcc.Add(npms[j])
			for i := 0; i < k; i++ {
				accs[i].Add(norms[j*k+i])
				chg[i].Add(changes[j*k+i])
			}
		}
		pt := Point{
			X: sp.x, Deadline: sp.deadline,
			NormEnergy:   make(map[core.Scheme]float64, k),
			CI95:         make(map[core.Scheme]float64, k),
			SpeedChanges: make(map[core.Scheme]float64, k),
			NPMEnergy:    npmAcc.Mean(),
		}
		for i, s := range schemes {
			pt.NormEnergy[s] = accs[i].Mean()
			pt.CI95[s] = accs[i].CI95()
			pt.SpeedChanges[s] = chg[i].Mean()
		}
		pts[p] = pt
	}
	return pts, nil
}

// fanOut runs work on up to workers goroutines, at most n, the calling
// goroutine one of them, and waits for them; work drains a queue of its
// own. workers ≤ 0 means the default worker count (SetDefaultWorkers,
// else GOMAXPROCS).
func fanOut(workers, n int, work func()) {
	if workers <= 0 {
		workers = int(defaultWorkers.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// forEach calls f(i) for every i in [0, n) on up to workers goroutines
// (as fanOut) and returns the first error in index order.
func forEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	fanOut(workers, n, func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = f(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep fills se.Points with one measured point of se.Schemes per
// element of xs: point i runs at the plan and deadline build(x) returns,
// seeded seed+i. The points' plans are built on the sweep's workers, so
// build must be safe for concurrent use.
func sweep(se *Series, xs []float64, build func(x float64) (*core.Plan, float64, error),
	runs int, seed uint64, workers int) (*Series, error) {
	specs := make([]pointSpec, len(xs))
	err := forEach(len(xs), workers, func(i int) error {
		plan, deadline, err := build(xs[i])
		specs[i] = pointSpec{plan: plan, x: xs[i], deadline: deadline, runs: runs, seed: seed + uint64(i)}
		return err
	})
	if err != nil {
		return nil, err
	}
	if se.Points, err = measurePoints(se.Schemes, specs, workers); err != nil {
		return nil, err
	}
	return se, nil
}

// Comparison is the outcome of CompareSchemes: the paired energy
// difference of two schemes on identical frames.
type Comparison struct {
	A, B core.Scheme
	// MeanDiff is mean(E_A − E_B)/E_NPM over the paired runs (normalized
	// units, negative means A saves more energy than B), CI95 its 95%
	// half-width and Z the paired z-statistic.
	MeanDiff, CI95, Z float64
	// Significant reports |Z| > 1.96.
	Significant bool
	Runs        int
}

// CompareSchemes runs two schemes on the same stream of frames (common
// random numbers) and tests whether their normalized energies differ
// significantly. It answers questions like "does adaptive speculation
// actually beat greedy slack sharing here, or is the gap noise?".
func CompareSchemes(plan *core.Plan, a, b core.Scheme, deadline float64,
	runs int, seed uint64) (Comparison, error) {
	cmp := Comparison{A: a, B: b, Runs: runs}
	if runs < 1 {
		return cmp, fmt.Errorf("experiments: %d paired runs, want at least 1", runs)
	}
	var paired stats.Paired
	src := exectime.NewSource(0)
	var base, ea float64
	err := core.CompareFrames(plan, core.RunConfig{Deadline: deadline, Sampler: exectime.NewSampler(src)},
		[]core.Scheme{a, b}, seed, 0, runs, core.NewArena(), src, func(_, i int, res *core.RunResult) error {
			switch i {
			case -1:
				base = res.Energy()
			case 0:
				ea = res.Energy()
			default:
				paired.Add(ea/base, res.Energy()/base)
			}
			return nil
		})
	if err != nil {
		return cmp, err
	}
	cmp.MeanDiff = paired.MeanDiff()
	cmp.CI95 = paired.CI95()
	cmp.Z = paired.Z()
	cmp.Significant = paired.Significant()
	return cmp, nil
}

// EnergyVsLoad sweeps the system load — the canonical schedule length of
// the longest path divided by the deadline — producing the paper's
// Figure 4/5 style series. Loads must be in (0, 1].
func EnergyVsLoad(cfg Config, loads []float64) (*Series, error) {
	plan, err := core.NewPlan(cfg.Graph, cfg.Procs, cfg.Platform, cfg.Overheads)
	if err != nil {
		return nil, err
	}
	se := &Series{
		Title: fmt.Sprintf("%s on %d×%s: normalized energy vs load",
			cfg.Graph.Name, cfg.Procs, cfg.Platform.Name),
		XLabel:  "load",
		Schemes: cfg.Schemes,
	}
	return sweep(se, loads, func(load float64) (*core.Plan, float64, error) {
		if load <= 0 || load > 1 {
			return nil, 0, fmt.Errorf("experiments: load %g outside (0,1]", load)
		}
		return plan, plan.CTWorst / load, nil
	}, cfg.Runs, cfg.Seed, cfg.Workers)
}

// EnergyVsAlpha sweeps α, the ratio of average-case to worst-case
// execution time of every task, at a fixed load — the paper's Figure 6
// series. The graph is cloned and its ACETs rescaled per point.
func EnergyVsAlpha(cfg Config, load float64, alphas []float64) (*Series, error) {
	if load <= 0 || load > 1 {
		return nil, fmt.Errorf("experiments: load %g outside (0,1]", load)
	}
	se := &Series{
		Title: fmt.Sprintf("%s on %d×%s: normalized energy vs alpha (load %.2g)",
			cfg.Graph.Name, cfg.Procs, cfg.Platform.Name, load),
		XLabel:  "alpha",
		Schemes: cfg.Schemes,
	}
	return sweep(se, alphas, func(alpha float64) (*core.Plan, float64, error) {
		g := cfg.Graph.Clone()
		g.ScaleACET(alpha)
		plan, err := core.NewPlan(g, cfg.Procs, cfg.Platform, cfg.Overheads)
		if err != nil {
			return nil, 0, err
		}
		return plan, plan.CTWorst / load, nil
	}, cfg.Runs, cfg.Seed, cfg.Workers)
}

// sweepRange returns n+1 evenly spaced values from lo to hi inclusive.
func sweepRange(lo, hi float64, n int) []float64 {
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}
