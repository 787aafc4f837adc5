package experiments

import (
	"testing"

	"andorsched/internal/core"
)

// TestHeteroPlacementAblation pins the heterogeneous subsystem's headline
// property: on the big.LITTLE reference platform a non-default placement
// policy (energy-greedy) beats the fastest-first default on absolute
// energy, with zero deadline misses — measurePoints fails the whole sweep
// if any scheme run misses its deadline or starts a task after its LST,
// so the comparison below is only reached when every run was safe.
func TestHeteroPlacementAblation(t *testing.T) {
	var exp Experiment
	for _, e := range Ablations() {
		if e.ID == "hetero-biglittle" {
			exp = e
		}
	}
	if exp.Run == nil {
		t.Fatal("hetero-biglittle ablation not registered")
	}
	se, err := exp.Run(25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Points) != 3 {
		t.Fatalf("points = %d, want 3 (one per placement policy)", len(se.Points))
	}
	ff, eg := se.Points[0], se.Points[1]
	if eg.NPMEnergy >= ff.NPMEnergy {
		t.Errorf("NPM: energy-greedy %g J ≥ fastest-first %g J; little cores should be cheaper",
			eg.NPMEnergy, ff.NPMEnergy)
	}
	for _, s := range se.Schemes {
		absFF := ff.NormEnergy[s] * ff.NPMEnergy
		absEG := eg.NormEnergy[s] * eg.NPMEnergy
		t.Logf("%-4s fastest-first %.4g J, energy-greedy %.4g J", s, absFF, absEG)
		if s == core.SPM || s == core.GSS {
			if absEG >= absFF {
				t.Errorf("%s: energy-greedy %g J ≥ fastest-first %g J", s, absEG, absFF)
			}
		}
	}
}
