package core

import (
	"fmt"
	"strings"
)

// Describe renders the off-line phase's results for one deadline as a
// human-readable report: per-section canonical lengths, the PMP remaining-
// time values, and each task's canonical dispatch order and latest
// start/finish times. It is what an engineer would inspect to understand
// why the scheduler chose the speeds it did (used by andorsim -plan).
func (p *Plan) Describe(deadline float64) string {
	var b strings.Builder
	if p.Platform == nil {
		fmt.Fprintf(&b, "off-line plan: %s on %s (%d processors", p.Graph.Name, p.Hetero.Name, p.Procs)
		for c := 0; c < p.Hetero.NumClasses(); c++ {
			cl := p.Hetero.Class(c)
			fmt.Fprintf(&b, ", %d × %s ×%.2g", cl.Count, cl.Plat.Name, cl.Speed)
		}
		fmt.Fprintf(&b, ") placement %s\n", p.Placement.Name())
	} else {
		fmt.Fprintf(&b, "off-line plan: %s on %d × %s\n", p.Graph.Name, p.Procs, p.Platform.Name)
	}
	fmt.Fprintf(&b, "  canonical worst case CT_worst = %.3fms (longest path)\n", p.CTWorst*1e3)
	fmt.Fprintf(&b, "  canonical average    CT_avg   = %.3fms (probability-weighted)\n", p.CTAvg*1e3)
	fmt.Fprintf(&b, "  deadline D = %.3fms → load %.3f, feasible: %v\n",
		deadline*1e3, p.CTWorst/deadline, p.Feasible(deadline))
	if p.Platform == nil {
		fmt.Fprintf(&b, "  speculative stretch CT_avg/D = %.3f (applied to each class's own f_max)\n",
			p.CTAvg/deadline)
	} else {
		fmt.Fprintf(&b, "  static speeds: SPM %s, speculative f_max·CT_avg/D = %.0fMHz\n",
			p.SPMLevel(deadline), p.SpeculativeSpeed(deadline)/1e6)
	}

	for i := range p.secs {
		sp := &p.secs[i]
		exit := "END"
		if sp.sec.Exit != nil {
			exit = sp.sec.Exit.Name
		}
		fmt.Fprintf(&b, "\nsection %d: len_w %.3fms, len_a %.3fms, after-exit worst %.3fms avg %.3fms, exit %s\n",
			sp.sec.ID, sp.lenW*1e3, sp.lenA*1e3, sp.remWorst*1e3, sp.remAvg*1e3, exit)
		if len(sp.tasks) == 0 {
			b.WriteString("  (zero-length section)\n")
			continue
		}
		// Print tasks in canonical dispatch order.
		byOrder := make([]int, len(sp.tasks))
		for k := range sp.tasks {
			byOrder[sp.tasks[k].Order] = k
		}
		fmt.Fprintf(&b, "  %-4s %-14s %10s %10s %10s\n", "ord", "task", "wcet", "LST", "LFT")
		for _, k := range byOrder {
			tp := &sp.tasks[k]
			lft := deadline + tp.LFT
			if tp.Dummy {
				fmt.Fprintf(&b, "  %-4d %-14s %10s %10s %9.3fms\n",
					tp.Order, tp.Name, "-", "-", lft*1e3)
				continue
			}
			lst := lft - tp.WorkW/p.fmax
			fmt.Fprintf(&b, "  %-4d %-14s %8.3fms %8.3fms %8.3fms\n",
				tp.Order, tp.Name, sp.sec.Nodes[k].WCET*1e3, lst*1e3, lft*1e3)
		}
	}
	return b.String()
}
