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
	// Workers bounds the goroutines simulating runs of one data point in
	// parallel; 0 means GOMAXPROCS. Results are bit-identical for any
	// worker count: per-run seeds are fixed up front and per-run outputs
	// are folded in run order.
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

// pointWorker is one goroutine's reusable run state: a simulation arena
// and a reseedable source with the sampler drawing from it. Every run of
// every scheme reuses these, so a data point's allocation count is
// O(workers), not O(runs).
type pointWorker struct {
	arena   *core.Arena
	src     *exectime.Source
	sampler *exectime.Sampler
}

// newPointWorker builds a worker whose sampler draws around the ACET, or,
// with bias != 0, around bias·ACET (exectime.NewBiasedSampler).
func newPointWorker(bias float64) *pointWorker {
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	if bias != 0 {
		sampler = exectime.NewBiasedSampler(src, bias)
	}
	return &pointWorker{arena: core.NewArena(), src: src, sampler: sampler}
}

// measurePoint runs all schemes `runs` times against one plan and deadline
// under common random numbers (core.CompareFrames: run r is frame r of
// the seed's master stream), spreading runs over `workers` goroutines one
// run index at a time. Per-run outputs land in flat preallocated slices
// and are folded in run order, keeping the output independent of
// scheduling. bias != 0 scales the sampler's average-case times (see
// newPointWorker); the plan still assumes the unscaled ones.
func measurePoint(plan *core.Plan, schemes []core.Scheme, x, deadline float64,
	runs int, seed uint64, workers int, bias float64) (Point, error) {
	pt := Point{
		X: x, Deadline: deadline,
		NormEnergy:   make(map[core.Scheme]float64, len(schemes)),
		CI95:         make(map[core.Scheme]float64, len(schemes)),
		SpeedChanges: make(map[core.Scheme]float64, len(schemes)),
	}
	k := len(schemes)
	norms := make([]float64, runs*k)   // E_s/E_NPM, indexed [r*k+i]
	changes := make([]float64, runs*k) // speed changes, same indexing
	npms := make([]float64, runs)      // absolute NPM energy
	errs := make([]error, runs)
	var next atomic.Int64
	work := func() {
		w := newPointWorker(bias)
		cfg := core.RunConfig{Deadline: deadline, Sampler: w.sampler}
		visit := func(r, i int, res *core.RunResult) error {
			if i < 0 {
				npms[r] = res.Energy()
				return nil
			}
			if res.LSTViolations > 0 || !res.MetDeadline {
				return fmt.Errorf("%s run %d violated timing (finish %g, deadline %g, %d LST violations)",
					schemes[i], r, res.Finish, deadline, res.LSTViolations)
			}
			norms[r*k+i] = res.Energy() / npms[r]
			changes[r*k+i] = float64(res.SpeedChanges)
			return nil
		}
		for {
			r := int(next.Add(1)) - 1
			if r >= runs {
				return
			}
			if err := core.CompareFrames(plan, cfg, schemes, seed, r, r+1, w.arena, w.src, visit); err != nil {
				errs[r] = fmt.Errorf("experiments: %w", err)
			}
		}
	}

	if workers <= 0 {
		workers = int(defaultWorkers.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || runs <= 1 {
		work()
	} else {
		if workers > runs {
			workers = runs
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	accs := make([]stats.Acc, k)
	chg := make([]stats.Acc, k)
	var npmAcc stats.Acc
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			return pt, errs[r]
		}
		npmAcc.Add(npms[r])
		for i := 0; i < k; i++ {
			accs[i].Add(norms[r*k+i])
			chg[i].Add(changes[r*k+i])
		}
	}
	for i, s := range schemes {
		pt.NormEnergy[s] = accs[i].Mean()
		pt.CI95[s] = accs[i].CI95()
		pt.SpeedChanges[s] = chg[i].Mean()
	}
	pt.NPMEnergy = npmAcc.Mean()
	return pt, nil
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
	var paired stats.Paired
	w := newPointWorker(0)
	var base, ea float64
	err := core.CompareFrames(plan, core.RunConfig{Deadline: deadline, Sampler: w.sampler},
		[]core.Scheme{a, b}, seed, 0, runs, w.arena, w.src, func(_, i int, res *core.RunResult) error {
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
	for i, load := range loads {
		if load <= 0 || load > 1 {
			return nil, fmt.Errorf("experiments: load %g outside (0,1]", load)
		}
		d := plan.CTWorst / load
		pt, err := measurePoint(plan, cfg.Schemes, load, d, cfg.Runs, cfg.Seed+uint64(i), cfg.Workers, 0)
		if err != nil {
			return nil, err
		}
		se.Points = append(se.Points, pt)
	}
	return se, nil
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
	for i, alpha := range alphas {
		g := cfg.Graph.Clone()
		g.ScaleACET(alpha)
		plan, err := core.NewPlan(g, cfg.Procs, cfg.Platform, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		d := plan.CTWorst / load
		pt, err := measurePoint(plan, cfg.Schemes, alpha, d, cfg.Runs, cfg.Seed+uint64(i), cfg.Workers, 0)
		if err != nil {
			return nil, err
		}
		se.Points = append(se.Points, pt)
	}
	return se, nil
}

// sweepRange returns n+1 evenly spaced values from lo to hi inclusive.
func sweepRange(lo, hi float64, n int) []float64 {
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}
