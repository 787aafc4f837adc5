package experiments

import (
	"fmt"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// ablationLoad is the fixed moderate load at which the ablations compare
// schemes (the region where the paper's dynamic schemes differ most).
const ablationLoad = 0.5

// Ablations returns the paper's stated future-work studies (§6: "we plan
// to experiment with different values of f_min/f_max and different number
// of speed levels") plus the sensitivity studies implied by §5: the speed-
// change overhead and the processor count.
func Ablations() []Experiment {
	return []Experiment{
		ablationFmin(),
		ablationLevels(),
		ablationOverhead(),
		ablationProcs(),
		ablationClairvoyant(),
		ablationStructure(),
		ablationSlew(),
		ablationReclaim(),
		ablationHeteroPlacement("hetero-symmetric", func() *power.Hetero { return power.SymmetricHetero(2) }),
		ablationHeteroPlacement("hetero-biglittle", power.BigLittle),
		ablationHeteroPlacement("hetero-accel", power.AccelOffload),
	}
}

// PlacementStudy is the schemes × placement-policies measurement of the
// heterogeneous ablations on an arbitrary platform: cmd/experiments
// -platform builds one for a user-supplied spec file or reference name.
func PlacementStudy(hp *power.Hetero) Experiment {
	return ablationHeteroPlacement("placement", func() *power.Hetero { return hp })
}

// heteroLoad is the load of the heterogeneous placement ablations,
// relative to the slowest placement's CT_worst. It is deliberately high:
// with lots of slack, DVS on the fast class reaches its low-voltage levels
// and placement barely matters; near the deadline the fast class is stuck
// at high voltage and routing work onto a cheaper class is the only lever
// left — the regime the placement policies are for.
const heteroLoad = 0.9

// placementPolicies is the X order of the heterogeneous placement
// ablations: X = 0 fastest-first (the default), 1 energy-greedy,
// 2 class-affinity.
func placementPolicies() []sim.PlacementPolicy {
	return []sim.PlacementPolicy{sim.FastestFirst, sim.EnergyGreedy, sim.ClassAffinity}
}

// ablationHeteroPlacement measures the schemes × placement-policies grid on
// one reference heterogeneous platform. Placement is a plan parameter —
// each policy compiles its own plan, shaping which class every task is
// pinned to — so the policies are compared at a common deadline (the
// slowest policy's CT_worst over the ablation load) at which every plan is
// feasible. NormEnergy stays normalized to the same plan's NPM run, which
// measures how much DVS slack each placement leaves; the absolute anchor
// for comparing policies against each other is NPMEnergy
// (and NormEnergy·NPMEnergy per scheme). On big.LITTLE the energy-greedy
// policy routes work onto the cheap little cores and beats fastest-first
// on absolute energy while still meeting every deadline (measurePoints
// fails the whole sweep on any miss or LST violation).
func ablationHeteroPlacement(id string, hetero func() *power.Hetero) Experiment {
	name := hetero().Name
	return Experiment{
		ID: id,
		Title: fmt.Sprintf("Ablation: schemes × placement policies on %s (ATR, common deadline, load %g)",
			name, heteroLoad),
		Run: func(runs int, seed uint64) (*Series, error) {
			hp := hetero()
			g := atrGraph()
			places := placementPolicies()
			plans := make([]*core.Plan, len(places))
			err := forEach(len(places), 0, func(i int) (err error) {
				plans[i], err = core.NewHeteroPlan(g, hp, power.DefaultOverheads(), places[i])
				return err
			})
			if err != nil {
				return nil, err
			}
			worst := 0.0
			for _, plan := range plans {
				worst = max(worst, plan.CTWorst)
			}
			d := worst / heteroLoad
			se := &Series{
				Title:   fmt.Sprintf("ATR on %s: energy by placement policy at a common deadline", hp.Name),
				XLabel:  "placement (0 fastest-first, 1 energy-greedy, 2 class-affinity)",
				Schemes: paperSchemes(),
			}
			specs := make([]pointSpec, len(plans))
			for i, plan := range plans {
				// Same seed for every placement: paired comparison.
				specs[i] = pointSpec{plan: plan, x: float64(i), deadline: d, runs: runs, seed: seed,
					label: hp.Name + " placement " + places[i].Name()}
			}
			if se.Points, err = measurePoints(se.Schemes, specs, 0); err != nil {
				return nil, err
			}
			return se, nil
		},
	}
}

// ablationReclaim measures online slack reclamation under model mismatch.
// The plan is compiled assuming α = 0.5 (ATR rescaled), while the actual
// execution times are drawn around factor·ACET with the factor chosen so
// the actual α sweeps 0.1 to 1.0. When runs come in lighter than assumed,
// the static speculative floor (AS) is set too high for the slack that
// actually materializes; ORA's online estimator notices and lowers its
// floor back toward the greedy level, reclaiming the difference. With
// matched or heavier runs ORA's deadband keeps it at the AS floor, so the
// curves coincide there.
func ablationReclaim() Experiment {
	return Experiment{
		ID:    "reclaim",
		Title: "Ablation: normalized energy vs actual α under an assumed α of 0.5 (ATR, 2 CPUs, Transmeta, load 0.9)",
		Run: func(runs int, seed uint64) (*Series, error) {
			const assumed = 0.5
			g := atrGraph().Clone()
			g.ScaleACET(assumed)
			plan, err := core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
			if err != nil {
				return nil, err
			}
			d := plan.CTWorst / 0.9
			se := &Series{
				Title:   "ATR on 2×Transmeta, plan assumes α=0.5: normalized energy vs actual α",
				XLabel:  "actual_alpha",
				Schemes: []core.Scheme{core.GSS, core.AS, core.ASP, core.ORA},
			}
			var specs []pointSpec
			for i, actual := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
				specs = append(specs, pointSpec{plan: plan, x: actual, deadline: d, runs: runs,
					seed: seed + uint64(i), bias: actual / assumed})
			}
			if se.Points, err = measurePoints(se.Schemes, specs, 0); err != nil {
				return nil, err
			}
			return se, nil
		},
	}
}

// ablationSlew enables the voltage-slew transition model of the paper's
// reference [3] (Burd & Brodersen): change cost proportional to the
// voltage swing, swept from 0 (the paper's fixed-cost model) to 400 µs/V.
// Large swings become expensive, which penalizes the greedy scheme's
// jumps between f_min and high recovery speeds more than the speculative
// schemes' small adjustments.
func ablationSlew() Experiment {
	return Experiment{
		ID:    "slew",
		Title: "Ablation: normalized energy vs voltage-slew cost (ATR, 2 CPUs, Transmeta, load 0.5)",
		Run: func(runs int, seed uint64) (*Series, error) {
			g := atrGraph() // built once per table, not per grid cell
			return pointSweep(
				"ATR on 2×Transmeta: normalized energy vs slew cost (µs per volt)",
				"slew_us_per_v", []float64{0, 50, 100, 200, 400},
				func(usPerV float64) (*core.Plan, float64, error) {
					ov := power.Overheads{
						SpeedCompCycles: 600,
						SpeedChangeTime: 5e-6,
						VoltSlewTime:    usPerV * 1e-6,
					}
					plan, err := core.NewPlan(g, 2, power.Transmeta5400(), ov)
					if err != nil {
						return nil, 0, err
					}
					return plan, plan.CTWorst / ablationLoad, nil
				}, runs, seed)
		},
	}
}

// ablationStructure characterizes sensitivity to application *shape* using
// the random-workload generator: the probability that a stage is an OR
// fork is swept from 0 (a pure AND application, the traditional model) to
// 0.9 (branch-heavy control flow). The more OR structure, the more path
// slack exists for the dynamic schemes to reclaim — the quantity the
// paper's AND/OR extension is about.
func ablationStructure() Experiment {
	return Experiment{
		ID:    "structure",
		Title: "Ablation: normalized energy vs OR-fork density (random apps, 2 CPUs, Transmeta, load 0.7)",
		Run: func(runs int, seed uint64) (*Series, error) {
			se := &Series{
				Title:   "random applications on 2×Transmeta: normalized energy vs fork probability",
				XLabel:  "fork_prob",
				Schemes: paperSchemes(),
			}
			// Averaging one random graph would measure that graph, not the
			// structure class: each point averages over several graphs.
			const graphs = 8
			perGraph := runs / graphs
			if perGraph < 1 && runs >= 1 { // runs < 1 stays invalid for measurePoints
				perGraph = 1
			}
			forkProbs := []float64{0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}
			var specs []pointSpec
			for i, forkProb := range forkProbs {
				for gi := 0; gi < graphs; gi++ {
					opts := andor.DefaultRandomOpts()
					opts.ForkProb = forkProb
					opts.MaxStages = 4
					g := workload.Random(seed^(uint64(gi)*0x9e37+0x5eed), opts)
					plan, err := core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
					if err != nil {
						return nil, err
					}
					specs = append(specs, pointSpec{plan: plan, x: forkProb, deadline: plan.CTWorst / 0.7,
						runs: perGraph, seed: seed + uint64(i*graphs+gi)})
				}
			}
			pts, err := measurePoints(se.Schemes, specs, 0)
			if err != nil {
				return nil, err
			}
			for i, forkProb := range forkProbs {
				agg := Point{
					X:            forkProb,
					NormEnergy:   map[core.Scheme]float64{},
					CI95:         map[core.Scheme]float64{},
					SpeedChanges: map[core.Scheme]float64{},
				}
				for _, pt := range pts[i*graphs : (i+1)*graphs] {
					for _, s := range se.Schemes {
						agg.NormEnergy[s] += pt.NormEnergy[s] / graphs
						agg.CI95[s] += pt.CI95[s] / graphs
						agg.SpeedChanges[s] += pt.SpeedChanges[s] / graphs
					}
					agg.NPMEnergy += pt.NPMEnergy / graphs
					agg.Deadline = pt.Deadline
				}
				se.Points = append(se.Points, agg)
			}
			return se, nil
		},
	}
}

// ablationClairvoyant compares the schemes against the clairvoyant
// single-speed oracle (core.CLV) over load — how much of the theoretically
// reachable saving each scheme realizes (§3.3's intuition made
// measurable). Not a figure of the paper; it quantifies the gap the
// speculative schemes are designed to close.
func ablationClairvoyant() Experiment {
	return Experiment{
		ID:    "clv",
		Title: "Ablation: schemes vs the clairvoyant single-speed bound (ATR, 2 CPUs, Transmeta)",
		Run: func(runs int, seed uint64) (*Series, error) {
			se := &Series{
				Title:   "ATR on 2×Transmeta: normalized energy vs load, with the clairvoyant bound",
				XLabel:  "load",
				Schemes: append(paperSchemes(), core.CLV, core.ASP),
			}
			plan, err := core.NewPlan(atrGraph(), 2, power.Transmeta5400(), power.DefaultOverheads())
			if err != nil {
				return nil, err
			}
			return sweep(se, []float64{0.2, 0.4, 0.6, 0.8, 1.0},
				func(load float64) (*core.Plan, float64, error) { return plan, plan.CTWorst / load, nil },
				runs, seed, 0)
		},
	}
}

// pointSweep measures the paper's schemes at one point per element of xs,
// building a fresh configuration each time.
func pointSweep(title, xlabel string, xs []float64,
	build func(x float64) (*core.Plan, float64, error),
	runs int, seed uint64) (*Series, error) {
	return sweep(&Series{Title: title, XLabel: xlabel, Schemes: paperSchemes()}, xs, build, runs, seed, 0)
}

// ablationFmin varies the minimal speed: synthetic 16-level platforms with
// f_min/f_max from 0.1 to 0.8. The paper predicts the greedy scheme
// benefits from a high f_min (it is prevented from spending all slack
// early).
func ablationFmin() Experiment {
	return Experiment{
		ID:    "fmin",
		Title: "Ablation: normalized energy vs f_min/f_max (16 levels, ATR, 2 CPUs, load 0.5)",
		Run: func(runs int, seed uint64) (*Series, error) {
			ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
			g := atrGraph() // built once per table, not per grid cell
			return pointSweep(
				"ATR on 2×synthetic platforms: normalized energy vs f_min/f_max",
				"fmin/fmax", ratios,
				func(ratio float64) (*core.Plan, float64, error) {
					plat := power.Synthetic(16, ratio*700, 700, 0.8+ratio*0.5, 1.65)
					plan, err := core.NewPlan(g, 2, plat, power.DefaultOverheads())
					if err != nil {
						return nil, 0, err
					}
					return plan, plan.CTWorst / ablationLoad, nil
				}, runs, seed)
		},
	}
}

// ablationLevels varies the number of speed levels between 200 and 700 MHz.
// The paper predicts few levels help the greedy scheme by suppressing
// frequent speed changes.
func ablationLevels() Experiment {
	return Experiment{
		ID:    "levels",
		Title: "Ablation: normalized energy vs number of speed levels (200–700MHz, ATR, 2 CPUs, load 0.5)",
		Run: func(runs int, seed uint64) (*Series, error) {
			counts := []float64{2, 3, 4, 6, 8, 16, 32}
			g := atrGraph() // built once per table, not per grid cell
			return pointSweep(
				"ATR on 2×synthetic platforms: normalized energy vs level count",
				"levels", counts,
				func(n float64) (*core.Plan, float64, error) {
					plat := power.Synthetic(int(n), 200, 700, 1.10, 1.65)
					plan, err := core.NewPlan(g, 2, plat, power.DefaultOverheads())
					if err != nil {
						return nil, 0, err
					}
					return plan, plan.CTWorst / ablationLoad, nil
				}, runs, seed)
		},
	}
}

// ablationOverhead varies the voltage/speed change cost from 0 to 500 µs
// (the paper cites 25–150 µs for contemporary hardware and uses 5 µs
// expecting technology to improve).
func ablationOverhead() Experiment {
	return Experiment{
		ID:    "overhead",
		Title: "Ablation: normalized energy vs speed-change overhead (ATR, 2 CPUs, Transmeta, load 0.5)",
		Run: func(runs int, seed uint64) (*Series, error) {
			micros := []float64{0, 5, 25, 50, 100, 250, 500}
			g := atrGraph() // built once per table, not per grid cell
			return pointSweep(
				"ATR on 2×Transmeta: normalized energy vs change overhead (µs)",
				"overhead_us", micros,
				func(us float64) (*core.Plan, float64, error) {
					ov := power.Overheads{SpeedCompCycles: 600, SpeedChangeTime: us * 1e-6}
					plan, err := core.NewPlan(g, 2, power.Transmeta5400(), ov)
					if err != nil {
						return nil, 0, err
					}
					return plan, plan.CTWorst / ablationLoad, nil
				}, runs, seed)
		},
	}
}

// ablationProcs varies the processor count. The paper: "when the number of
// processors increases, the performance of the dynamic schemes decreases
// due to the limited parallelism and the frequent idleness of the
// processors".
func ablationProcs() Experiment {
	return Experiment{
		ID:    "procs",
		Title: "Ablation: normalized energy vs processor count (ATR, Transmeta, load 0.5)",
		Run: func(runs int, seed uint64) (*Series, error) {
			ms := []float64{1, 2, 4, 6, 8}
			g := atrGraph() // built once per table, not per grid cell
			return pointSweep(
				"ATR on Transmeta: normalized energy vs processors",
				"procs", ms,
				func(m float64) (*core.Plan, float64, error) {
					plan, err := core.NewPlan(g, int(m), power.Transmeta5400(), power.DefaultOverheads())
					if err != nil {
						return nil, 0, err
					}
					return plan, plan.CTWorst / ablationLoad, nil
				}, runs, seed)
		},
	}
}
