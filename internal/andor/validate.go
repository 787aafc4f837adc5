package andor

import (
	"fmt"
	"math"
)

// Validate checks that the graph is a well-formed AND/OR application:
//
//   - non-empty and acyclic;
//   - computation nodes have 0 < ACET <= WCET < +Inf;
//   - And nodes have at least one predecessor and one successor (a dummy
//     node with neither would be an isolated vertex);
//   - Or nodes with more than one successor carry branch probabilities that
//     lie in [0, 1] and sum to 1 (within 1e-9), and an Or node with branch
//     probabilities has exactly one per successor;
//   - the graph decomposes into program sections (see Decompose for the
//     structural rules that encode the paper's "all processors synchronize
//     at an OR node" restriction).
//
// Every check is written so that NaN fails it. It returns the first
// violation found, or nil.
//
// A successful validation is memoized: re-validating an unmodified graph
// (every NewPlan call validates) is free. Any mutating Graph method
// discards the memo.
func (g *Graph) Validate() error {
	if g.validated.Load() {
		return nil
	}
	if _, err := g.decompose(g.checkNodes); err != nil {
		return err
	}
	g.validated.Store(true)
	return nil
}

// checkNodes runs Validate's per-node checks and returns the first
// violation.
func (g *Graph) checkNodes() error {
	for _, n := range g.nodes {
		switch n.Kind {
		case Compute:
			if !(n.WCET > 0 && n.WCET <= math.MaxFloat64) {
				return fmt.Errorf("andor: task %q has WCET %g, want positive and finite", n.Name, n.WCET)
			}
			if !(n.ACET > 0 && n.ACET <= n.WCET) {
				return fmt.Errorf("andor: task %q has ACET %g outside (0, WCET=%g]", n.Name, n.ACET, n.WCET)
			}
		case And:
			if len(n.Preds()) == 0 || len(n.Succs()) == 0 {
				return fmt.Errorf("andor: AND node %q must have predecessors and successors (has %d/%d)",
					n.Name, len(n.Preds()), len(n.Succs()))
			}
		case Or:
			if len(n.Preds()) == 0 {
				return fmt.Errorf("andor: OR node %q has no predecessors", n.Name)
			}
			if n.prob != nil && len(*n.prob) != len(n.Succs()) {
				return fmt.Errorf("andor: OR node %q has %d branch probabilities for %d successors",
					n.Name, len(*n.prob), len(n.Succs()))
			}
			if len(n.Succs()) > 1 {
				if n.prob == nil {
					return fmt.Errorf("andor: OR node %q has %d successors but no branch probabilities",
						n.Name, len(n.Succs()))
				}
				var sum float64
				for i, p := range *n.prob {
					if !(p >= 0 && p <= 1) {
						return fmt.Errorf("andor: OR node %q branch %d has probability %g outside [0, 1]", n.Name, i, p)
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					return fmt.Errorf("andor: OR node %q branch probabilities sum to %g, want 1", n.Name, sum)
				}
			}
		default:
			return fmt.Errorf("andor: node %q has unknown kind %d", n.Name, n.Kind)
		}
	}
	return nil
}

// validTimes reports whether a task's times satisfy 0 < acet <= wcet < +Inf.
// NaN fails every comparison, so it is rejected too.
func validTimes(wcet, acet float64) bool {
	return wcet > 0 && wcet <= math.MaxFloat64 && acet > 0 && acet <= wcet
}
