// Quickstart: build a small AND/OR application with the public API,
// run the off-line phase, execute it once under greedy slack sharing and
// print the schedule and energy figures.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

func main() {
	// 1. Describe the application: an AND/OR graph. Times are seconds at
	// maximum processor speed (WCET / ACET). This is the paper's Figure 1
	// combined: an AND-parallel stage followed by an OR choice.
	g := andor.NewGraph("quickstart")
	a := g.AddTask("A", 8e-3, 5e-3)
	fork := g.AddAnd("fork")
	b := g.AddTask("B", 5e-3, 3e-3)
	c := g.AddTask("C", 4e-3, 2e-3)
	join := g.AddAnd("join")
	g.AddEdge(a, fork)
	g.AddEdge(fork, b)
	g.AddEdge(fork, c)
	g.AddEdge(b, join)
	g.AddEdge(c, join)

	// An OR node: 30% of the frames take the expensive analysis path.
	or := g.AddOr("branch")
	g.AddEdge(join, or)
	deep := g.AddTask("Deep", 8e-3, 6e-3)
	quick := g.AddTask("Quick", 5e-3, 3e-3)
	g.AddEdge(or, deep)
	g.AddEdge(or, quick)
	g.SetBranchProbs(or, 0.30, 0.70)
	done := g.AddOr("done")
	g.AddEdge(deep, done)
	g.AddEdge(quick, done)
	report := g.AddTask("Report", 2e-3, 1e-3)
	g.AddEdge(done, report)

	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. Off-line phase: canonical schedules, shifting, latest start times
	// — on 2 Transmeta TM5400 processors with the paper's overheads.
	plan, err := core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		log.Fatal(err)
	}
	deadline := plan.CTWorst / 0.5 // run the system at 50% load
	fmt.Printf("canonical worst case %.2fms, average %.2fms, deadline %.2fms\n",
		plan.CTWorst*1e3, plan.CTAvg*1e3, deadline*1e3)

	// 3. On-line phase: one frame under greedy slack sharing.
	res, err := plan.Run(core.RunConfig{
		Scheme:       core.GSS,
		Deadline:     deadline,
		Sampler:      exectime.NewSampler(exectime.NewSource(7)),
		CollectTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished %.2fms before the deadline, %d speed changes\n",
		(deadline-res.Finish)*1e3, res.SpeedChanges)
	fmt.Printf("energy %.4gJ (active %.4g + overhead %.4g + idle %.4g)\n\n",
		res.Energy(), res.ActiveEnergy, res.OverheadEnergy, res.IdleEnergy)
	fmt.Print(sim.Gantt(plan.Hetero, res.Trace))

	// 4. Compare all schemes on the same frame (same seed = same actual
	// times and branch outcome).
	fmt.Println("\nscheme comparison (same frame):")
	for _, s := range core.Schemes {
		r, err := plan.Run(core.RunConfig{
			Scheme:   s,
			Deadline: deadline,
			Sampler:  exectime.NewSampler(exectime.NewSource(7)),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s  finish %6.2fms  energy %.4gJ  changes %d\n",
			s, r.Finish*1e3, r.Energy(), r.SpeedChanges)
	}
}
