// Platforms example: how the processor's voltage/frequency table shapes
// power-aware scheduling. Prints the paper's Tables 1 and 2, then runs the
// same workload on Transmeta (16 fine-grained levels), XScale (5 coarse
// levels with a high f_min) and two synthetic platforms, showing the
// paper's conclusion that the greedy scheme benefits from a reasonable
// minimal speed and few levels.
//
//	go run ./examples/platforms
package main

import (
	"fmt"
	"log"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/experiments"
	"andorsched/internal/power"
	"andorsched/internal/stats"
	"andorsched/internal/workload"
)

func main() {
	fmt.Println(experiments.PlatformTable(power.Transmeta5400()))
	fmt.Println(experiments.PlatformTable(power.IntelXScale()))

	plats := []*power.Platform{
		power.Transmeta5400(),
		power.IntelXScale(),
		power.Synthetic(16, 70, 700, 0.8, 1.65), // low f_min, fine-grained
		power.Synthetic(3, 350, 700, 1.2, 1.65), // high f_min, coarse
	}
	g := workload.ATR(workload.DefaultATRConfig())
	const (
		runs = 300
		load = 0.6
	)
	fmt.Printf("ATR on 2 processors at load %.1f, %d runs, energy vs NPM:\n\n", load, runs)
	fmt.Printf("%-28s %8s %8s %8s\n", "platform", "GSS", "SS1", "AS")
	for _, plat := range plats {
		plan, err := core.NewPlan(g, 2, plat, power.DefaultOverheads())
		if err != nil {
			log.Fatal(err)
		}
		deadline := plan.CTWorst / load
		fmt.Printf("%-28s", plat.Name)
		src := exectime.NewSource(0)
		cfg := core.RunConfig{Deadline: deadline, Sampler: exectime.NewSampler(src)}
		schemes := []core.Scheme{core.GSS, core.SS1, core.AS}
		accs := make([]stats.Acc, len(schemes))
		var base float64
		err = core.CompareFrames(plan, cfg, schemes, 11, 0, runs, core.NewArena(), src,
			func(_, si int, res *core.RunResult) error {
				if si < 0 {
					base = res.Energy()
				} else {
					accs[si].Add(res.Energy() / base)
				}
				return nil
			})
		if err != nil {
			log.Fatal(err)
		}
		for _, acc := range accs {
			fmt.Printf(" %8.4f", acc.Mean())
		}
		fmt.Println()
	}
	fmt.Println("\na low f_min lets the greedy scheme overspend slack early (and lose);")
	fmt.Println("a high f_min and coarse levels act as built-in speculation (§5, §6).")
}
