// Package workload builds the applications used in the paper's evaluation
// (§5): the automated target recognition (ATR) application, the synthetic
// AND/OR application of Figure 3, and random applications for property
// testing and ablations.
//
// The paper does not print the ATR dependence graph ("due to space
// limitation") and the available copy of Figure 3 is partially garbled, so
// both are reconstructions that preserve everything legible — the task
// execution-time pairs, the OR branch probabilities, the loop iteration
// distribution and the AND/OR structure the text describes. DESIGN.md §4
// records the substitutions.
package workload

import (
	"andorsched/internal/andor"
	"andorsched/internal/exectime"
)

// Random returns a random valid AND/OR application generated from the given
// seed, plus forwarding to andor.RandomGraph for custom options.
func Random(seed uint64, opts andor.RandomOpts) *andor.Graph {
	return andor.RandomGraph(exectime.NewSource(seed), opts)
}
