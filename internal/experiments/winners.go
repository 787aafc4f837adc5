package experiments

import (
	"fmt"
	"strings"

	"andorsched/internal/core"
)

// WinnerCell is one cell of a scheme-selection map: the best scheme at one
// (load, α) operating point and its margin over the runner-up.
type WinnerCell struct {
	Load, Alpha float64
	// Best is the scheme with the lowest mean normalized energy.
	Best core.Scheme
	// BestEnergy is its mean E/E_NPM; Margin is the runner-up's mean minus
	// BestEnergy (how much choosing right matters here).
	BestEnergy, Margin float64
}

// WinnerMap evaluates every scheme over a load × α grid and records which
// scheme wins each cell. It extends the paper's qualitative conclusion —
// which scheme is best depends on the operating point and the platform —
// into an operational artifact: given a system's load and measured α, read
// off the scheme to deploy. The α sweep clones and rescales the
// configuration's graph, exactly like EnergyVsAlpha.
func WinnerMap(cfg Config, loads, alphas []float64) ([][]WinnerCell, error) {
	if len(cfg.Schemes) < 2 {
		return nil, fmt.Errorf("experiments: WinnerMap needs at least two schemes")
	}
	var specs []pointSpec
	for ai, alpha := range alphas {
		g := cfg.Graph.Clone()
		g.ScaleACET(alpha)
		plan, err := core.NewPlan(g, cfg.Procs, cfg.Platform, cfg.Overheads)
		if err != nil {
			return nil, err
		}
		for li, load := range loads {
			if load <= 0 || load > 1 {
				return nil, fmt.Errorf("experiments: load %g outside (0,1]", load)
			}
			specs = append(specs, pointSpec{plan: plan, x: load, deadline: plan.CTWorst / load,
				runs: cfg.Runs, seed: cfg.Seed + uint64(ai*len(loads)+li)})
		}
	}
	pts, err := measurePoints(cfg.Schemes, specs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	grid := make([][]WinnerCell, len(alphas))
	for ai, alpha := range alphas {
		grid[ai] = make([]WinnerCell, len(loads))
		for li, load := range loads {
			pt := pts[ai*len(loads)+li]
			cell := WinnerCell{Load: load, Alpha: alpha}
			best, second := -1, -1
			for si, s := range cfg.Schemes {
				e := pt.NormEnergy[s]
				switch {
				case best == -1 || e < pt.NormEnergy[cfg.Schemes[best]]:
					second = best
					best = si
				case second == -1 || e < pt.NormEnergy[cfg.Schemes[second]]:
					second = si
				}
			}
			cell.Best = cfg.Schemes[best]
			cell.BestEnergy = pt.NormEnergy[cell.Best]
			cell.Margin = pt.NormEnergy[cfg.Schemes[second]] - cell.BestEnergy
			grid[ai][li] = cell
		}
	}
	return grid, nil
}

// WinnerTable renders a winner map as text: rows are α values, columns are
// loads, cells name the winning scheme (with '*' when it wins by more than
// 1% of NPM — a margin worth acting on).
func WinnerTable(grid [][]WinnerCell) string {
	if len(grid) == 0 || len(grid[0]) == 0 {
		return "(empty winner map)\n"
	}
	var b strings.Builder
	b.WriteString("alpha\\load")
	for _, c := range grid[0] {
		fmt.Fprintf(&b, " %6.2g", c.Load)
	}
	b.WriteByte('\n')
	for _, row := range grid {
		fmt.Fprintf(&b, "%-10.2g", row[0].Alpha)
		for _, c := range row {
			name := c.Best.String()
			if c.Margin > 0.01 {
				name += "*"
			}
			fmt.Fprintf(&b, " %6s", name)
		}
		b.WriteByte('\n')
	}
	b.WriteString("(* = wins by more than 0.01 of normalized energy)\n")
	return b.String()
}
