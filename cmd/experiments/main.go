// Command experiments regenerates the paper's evaluation: the platform
// tables (Tables 1–2) and every figure's data series (Figures 4–6), plus
// the ablation studies. Output is aligned text by default, or CSV files
// with -out.
//
// Examples:
//
//	experiments -list
//	experiments -tables
//	experiments -id 4a -runs 1000
//	experiments -id all -runs 200 -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"andorsched/internal/cli"
	"andorsched/internal/core"
	"andorsched/internal/experiments"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

func main() {
	var (
		listF     = flag.Bool("list", false, "list available experiments and exit")
		tablesF   = flag.Bool("tables", false, "print the paper's platform tables (Tables 1 and 2) and exit")
		idF       = flag.String("id", "all", "experiment ID (e.g. 4a, 6b, fmin) or 'all'")
		platF     = flag.String("platform", "", "run a custom-platform study instead of the registry: transmeta, xscale, synthetic:N:fmin:fmax, symmetric, biglittle, accel, or a .json heterogeneous spec file (see workloads/biglittle.json)")
		runsF     = flag.Int("runs", 200, "simulated executions per data point (the paper uses 1000)")
		seedF     = flag.Uint64("seed", 2002, "random seed")
		outF      = flag.String("out", "", "directory to write per-experiment CSV files instead of printing tables")
		changesF  = flag.Bool("changes", false, "also print mean speed-change counts per point")
		htmlF     = flag.String("html", "", "write a self-contained HTML report (charts + tables) to this file")
		winnersF  = flag.Bool("winners", false, "print the scheme-selection map (best scheme per load × α cell) and exit")
		parallelF = flag.Int("parallel", 0, "worker goroutines per experiment sweep (0 = all CPUs); results are identical for any value")
		cStatsF   = flag.Bool("cache-stats", false, "print section-schedule cache statistics to stderr when done")
		profile   obs.Profile
	)
	profile.RegisterFlags(flag.CommandLine, "trace")
	flag.Parse()
	experiments.SetDefaultWorkers(*parallelF)

	var sess *obs.Session
	if profile.Enabled() {
		var err error
		sess, err = profile.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if sess.Addr != "" {
			fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", sess.Addr)
		}
	}

	runErr := run(*listF, *tablesF, *idF, *platF, *runsF, *seedF, *outF, *htmlF, *changesF, *winnersF)
	if *cStatsF {
		st := core.ScheduleCacheStats()
		fmt.Fprintf(os.Stderr, "schedcache: %d hits, %d misses, %d evictions, %d/%d entries\n",
			st.Hits, st.Misses, st.Evictions, st.Size, st.Capacity)
	}
	if sess != nil {
		// Flush profiles even when the run failed (os.Exit skips defers).
		if err := sess.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: profiling:", err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(list, tables bool, id, platform string, runs int, seed uint64, out, html string, changes, winners bool) error {
	if list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if tables {
		fmt.Println(experiments.PlatformTable(power.Transmeta5400()))
		fmt.Println(experiments.PlatformTable(power.IntelXScale()))
		return nil
	}
	if winners {
		return runWinners(runs, seed)
	}

	var todo []experiments.Experiment
	if platform != "" {
		e, err := platformStudy(platform)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	} else if id == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}

	if html != "" {
		doc, err := experiments.HTMLReport(todo, runs, seed, func(id string) {
			fmt.Fprintf(os.Stderr, "running %s (%d runs/point)...\n", id, runs)
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(html, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", html)
		return nil
	}

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	for _, e := range todo {
		fmt.Fprintf(os.Stderr, "running %s (%d runs/point)...\n", e.ID, runs)
		se, err := e.Run(runs, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if out != "" {
			path := filepath.Join(out, "fig"+e.ID+".csv")
			if err := os.WriteFile(path, []byte(se.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		fmt.Println(se.Table())
		if changes {
			fmt.Println(se.ChangesTable())
		}
	}
	return nil
}

// platformStudy builds the one-off experiment behind -platform: on a
// heterogeneous machine the schemes × placement-policies study of the
// hetero ablations; on identical processors the standard load sweep (ATR,
// 2 CPUs) on that platform.
func platformStudy(spec string) (experiments.Experiment, error) {
	plat, hp, err := cli.ParseMachine(spec)
	if err != nil {
		return experiments.Experiment{}, err
	}
	if hp != nil {
		return experiments.PlacementStudy(hp), nil
	}
	return experiments.Experiment{
		ID: "platform",
		Title: fmt.Sprintf("Custom platform: normalized energy vs load (ATR, 2 CPUs, %s)",
			plat.Name),
		Run: func(runs int, seed uint64) (*experiments.Series, error) {
			return experiments.EnergyVsLoad(experiments.Config{
				Graph:     workload.ATR(workload.DefaultATRConfig()),
				Procs:     2,
				Platform:  plat,
				Overheads: power.DefaultOverheads(),
				Schemes: []core.Scheme{core.SPM, core.GSS, core.SS1,
					core.SS2, core.AS},
				Runs: runs,
				Seed: seed,
			}, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		},
	}, nil
}

// runWinners prints the scheme-selection maps for the paper's two
// platforms on the ATR workload: which scheme to deploy at each (load, α)
// operating point.
func runWinners(runs int, seed uint64) error {
	grid := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	alphas := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, plat := range []*power.Platform{power.Transmeta5400(), power.IntelXScale()} {
		fmt.Fprintf(os.Stderr, "computing winner map on %s...\n", plat.Name)
		g, err := experiments.WinnerMap(experiments.Config{
			Graph:     workload.ATR(workload.DefaultATRConfig()),
			Procs:     2,
			Platform:  plat,
			Overheads: power.DefaultOverheads(),
			Schemes: []core.Scheme{core.SPM, core.GSS, core.SS1,
				core.SS2, core.AS},
			Runs: runs,
			Seed: seed,
		}, grid, alphas)
		if err != nil {
			return err
		}
		fmt.Printf("# ATR on 2×%s — best scheme per (load, α)\n%s\n", plat.Name, experiments.WinnerTable(g))
	}
	return nil
}
