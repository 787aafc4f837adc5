package experiments

import (
	"strings"
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

func winnerGrid(t *testing.T) [][]WinnerCell {
	t.Helper()
	cfg := Config{
		Graph:     workload.Synthetic(),
		Procs:     2,
		Platform:  power.IntelXScale(),
		Overheads: power.DefaultOverheads(),
		Schemes:   []core.Scheme{core.SPM, core.GSS, core.AS},
		Runs:      10,
		Seed:      4,
	}
	grid, err := WinnerMap(cfg, []float64{0.3, 0.6, 0.9}, []float64{0.3, 0.7, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

func TestWinnerMap(t *testing.T) {
	grid := winnerGrid(t)
	if len(grid) != 3 || len(grid[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	for _, row := range grid {
		for _, c := range row {
			if c.BestEnergy <= 0 || c.BestEnergy > 1.2 {
				t.Errorf("cell (%g,%g): best energy %g", c.Load, c.Alpha, c.BestEnergy)
			}
			if c.Margin < 0 {
				t.Errorf("cell (%g,%g): negative margin %g (winner not minimal)", c.Load, c.Alpha, c.Margin)
			}
			found := false
			for _, s := range []core.Scheme{core.SPM, core.GSS, core.AS} {
				if c.Best == s {
					found = true
				}
			}
			if !found {
				t.Errorf("cell winner %v not among candidates", c.Best)
			}
		}
	}
	// At low α and moderate load a dynamic scheme must beat SPM (dynamic
	// slack dominates).
	if grid[0][1].Best == core.SPM {
		t.Errorf("SPM should not win at α=0.3 load=0.6")
	}
}

func TestWinnerRenderers(t *testing.T) {
	grid := winnerGrid(t)
	tab := WinnerTable(grid)
	if !strings.Contains(tab, "alpha\\load") || !strings.Contains(tab, "0.3") {
		t.Errorf("winner table malformed:\n%s", tab)
	}
	if !strings.Contains(WinnerTable(nil), "empty") {
		t.Error("empty-map placeholder missing")
	}
}

func TestWinnerMapErrors(t *testing.T) {
	cfg := smallCfg()
	cfg.Schemes = []core.Scheme{core.GSS}
	if _, err := WinnerMap(cfg, []float64{0.5}, []float64{0.5}); err == nil {
		t.Error("want too-few-schemes error")
	}
	cfg = smallCfg()
	if _, err := WinnerMap(cfg, []float64{2}, []float64{0.5}); err == nil {
		t.Error("want load-range error")
	}
}
