package experiments

import (
	"fmt"
	"sync"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// Experiment is one regenerable unit of the paper's evaluation: a figure's
// data series, a platform table, or an ablation.
type Experiment struct {
	// ID is the short handle used by the CLI and benches ("4a", "6b",
	// "fmin", ...).
	ID string
	// Title describes what the paper shows.
	Title string
	// Run produces the series with the given number of simulated
	// executions per point (the paper uses 1000) and seed.
	Run func(runs int, seed uint64) (*Series, error)
}

// paperSchemes are the power-managed schemes of the paper's figures; NPM is
// the implicit baseline.
func paperSchemes() []core.Scheme {
	return []core.Scheme{core.SPM, core.GSS, core.SS1, core.SS2, core.AS}
}

// paperLoads are the load sweep values of Figures 4–5.
func paperLoads() []float64 { return sweepRange(0.1, 1.0, 9) }

// paperAlphas are the α sweep values of Figure 6.
func paperAlphas() []float64 { return sweepRange(0.1, 1.0, 9) }

// Fig6Load is the fixed load of the Figure 6 α sweep (the exact value is
// garbled in the available copy of the paper; 0.7 — a moderately loaded
// system, consistent with the figure's commentary — is used and recorded in
// DESIGN.md).
const Fig6Load = 0.7

// atrGraph returns the ATR application with the paper's measured α ≈ 0.9,
// built once and shared, so that its validation, decomposition and
// section digests are computed once too. It is read-only: a caller that
// changes it changes a clone.
var atrGraph = sync.OnceValue(func() *andor.Graph { return workload.ATR(workload.DefaultATRConfig()) })

// syntheticGraph is the paper's Figure-3 synthetic application, built once
// and shared read-only like atrGraph.
var syntheticGraph = sync.OnceValue(workload.Synthetic)

func figLoad(id, platName string, platform func() *power.Platform, procs int) Experiment {
	return Experiment{
		ID: id,
		Title: fmt.Sprintf("Figure %s: normalized energy vs load, ATR, %d CPUs, %s (α≈0.9, 5µs overhead)",
			id, procs, platName),
		Run: func(runs int, seed uint64) (*Series, error) {
			return EnergyVsLoad(Config{
				Graph:     atrGraph(),
				Procs:     procs,
				Platform:  platform(),
				Overheads: power.DefaultOverheads(),
				Schemes:   paperSchemes(),
				Runs:      runs,
				Seed:      seed,
			}, paperLoads())
		},
	}
}

func figAlpha(id, platName string, platform func() *power.Platform) Experiment {
	return Experiment{
		ID: id,
		Title: fmt.Sprintf("Figure %s: normalized energy vs alpha, synthetic app, 2 CPUs, %s (load %.1f, 5µs overhead)",
			id, platName, Fig6Load),
		Run: func(runs int, seed uint64) (*Series, error) {
			return EnergyVsAlpha(Config{
				Graph:     syntheticGraph(), // cloned per α
				Procs:     2,
				Platform:  platform(),
				Overheads: power.DefaultOverheads(),
				Schemes:   paperSchemes(),
				Runs:      runs,
				Seed:      seed,
			}, Fig6Load, paperAlphas())
		},
	}
}

// Figures returns the experiments reproducing the paper's figures,
// including the 4-processor ATR configuration the text reports as
// "similar results" without a figure.
func Figures() []Experiment {
	return []Experiment{
		figLoad("4a", "Transmeta TM5400", power.Transmeta5400, 2),
		figLoad("4b", "Intel XScale", power.IntelXScale, 2),
		figLoad("5a", "Transmeta TM5400", power.Transmeta5400, 6),
		figLoad("5b", "Intel XScale", power.IntelXScale, 6),
		figLoad("4p4", "Transmeta TM5400 (4 CPUs, text-only result)", power.Transmeta5400, 4),
		figAlpha("6a", "Transmeta TM5400", power.Transmeta5400),
		figAlpha("6b", "Intel XScale", power.IntelXScale),
	}
}

// All returns every experiment: figures plus ablations.
func All() []Experiment {
	return append(Figures(), Ablations()...)
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
