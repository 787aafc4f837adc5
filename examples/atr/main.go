// ATR example: the automated target recognition application that motivates
// the paper's AND/OR model. The number of regions of interest per frame
// varies, so whole subgraphs are skipped at run time; this example shows
// how much energy each scheme recovers from that path slack, per processor
// count, over a stream of frames.
//
//	go run ./examples/atr
package main

import (
	"fmt"
	"log"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/stats"
	"andorsched/internal/workload"
)

func main() {
	cfg := workload.DefaultATRConfig()
	g := workload.ATR(cfg)
	fmt.Printf("ATR: up to %d ROIs (probabilities %v), %d templates per ROI, α = %.1f\n",
		cfg.MaxROIs, cfg.ROIProbs, cfg.Templates, cfg.Alpha)
	fmt.Printf("graph: %d nodes, %d computation tasks\n\n", g.Len(), len(g.ComputeNodes()))

	const (
		frames = 500
		load   = 0.5
		seed   = 2002
	)
	plat := power.Transmeta5400()

	for _, procs := range []int{2, 4, 6} {
		plan, err := core.NewPlan(g, procs, plat, power.DefaultOverheads())
		if err != nil {
			log.Fatal(err)
		}
		deadline := plan.CTWorst / load
		fmt.Printf("%d × %s, frame deadline %.2fms (load %.1f), %d frames:\n",
			procs, plat.Name, deadline*1e3, load, frames)

		src := exectime.NewSource(0)
		cfg := core.RunConfig{Deadline: deadline, Sampler: exectime.NewSampler(src)}
		// Common random numbers: frame f replays the same actual times and
		// branch outcomes for the NPM baseline and for every scheme.
		norm := make([]stats.Acc, len(core.Schemes))
		chg := make([]stats.Acc, len(core.Schemes))
		var base float64
		err = core.CompareFrames(plan, cfg, core.Schemes, seed, 0, frames, core.NewArena(), src,
			func(_, si int, res *core.RunResult) error {
				if si < 0 {
					base = res.Energy()
					return nil
				}
				if !res.MetDeadline {
					return fmt.Errorf("%s missed a frame deadline — must not happen", core.Schemes[si])
				}
				norm[si].Add(res.Energy() / base)
				chg[si].Add(float64(res.SpeedChanges))
				return nil
			})
		if err != nil {
			log.Fatal(err)
		}
		for si, s := range core.Schemes {
			fmt.Printf("  %-3s  energy vs NPM %.4f ±%.4f   speed changes/frame %5.1f\n",
				s, norm[si].Mean(), norm[si].CI95(), chg[si].Mean())
		}
		fmt.Println()
	}
	fmt.Println("note how the dynamic schemes lose ground as processors are added:")
	fmt.Println("limited parallelism forces idleness at the synchronization points (§5).")
}
