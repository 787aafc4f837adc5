// Package core implements the paper's contribution: power-aware scheduling
// of AND/OR-graph real-time applications on DVS multiprocessors.
//
// It provides:
//
//   - the off-line phase (Plan / NewPlan): canonical list schedules with the
//     longest-task-first heuristic for every program section, worst- and
//     average-case completion-time aggregation over the section graph (the
//     paper's PMP values), and the recursive shifting that yields each
//     task's latest start/finish time (§3.2);
//
//   - the on-line phase (Plan.Run): the order-preserving dispatch discipline
//     with implicit greedy slack sharing, executed on the internal/sim
//     machine, under six speed-selection schemes (§3–§4):
//
//     NPM  no power management — everything at f_max;
//     SPM  static power management — one speed from static slack;
//     GSS  greedy slack sharing — per-task speed from reclaimed slack;
//     SS1  static speculation, single speed — GSS floored by f_max·CT_avg/D;
//     SS2  static speculation, two speeds — GSS floored by a low/high
//     speed pair straddling the speculative speed, switching at T_s;
//     AS   adaptive speculation — GSS floored by a speed recomputed from
//     the remaining average-case work after every OR node.
//
// Correctness (Theorem 1): whenever the canonical schedule of the longest
// path meets the deadline, every scheme's on-line execution meets it too.
// The run driver verifies the underlying invariant — no task is dispatched
// after its latest start time — and reports violations, which the test
// suite asserts never occur.
package core

import "fmt"

// Scheme identifies one of the paper's power management schemes.
type Scheme uint8

const (
	// NPM is "no power management": every task at f_max, idle at 5% of
	// maximum power. All energies are normalized to NPM in the evaluation.
	NPM Scheme = iota
	// SPM is static power management: a single statically chosen speed
	// that stretches the canonical worst case to the deadline.
	SPM
	// GSS is the paper's greedy slack sharing extended to AND/OR graphs.
	GSS
	// SS1 is static speculation with a single speculative speed.
	SS1
	// SS2 is static speculation with two speeds and a switch point.
	SS2
	// AS is adaptive speculation after each OR synchronization node.
	AS
	// CLV is the clairvoyant single-speed oracle (not one of the paper's
	// schemes): with perfect knowledge of actual execution times and the
	// taken path, run everything at the slowest constant level meeting the
	// deadline — the intuition behind speculation (§3.3) made executable.
	// It serves as a near-lower bound in ablations.
	CLV
	// ASP is adaptive speculation at every power management point (also
	// not one of the paper's schemes): the paper notes a PMP exists before
	// each node (§2.2) but speculates only after OR nodes to bound the
	// overhead; ASP recomputes the speculative speed at every task pickup
	// from the remaining average-case work, quantifying what the finer
	// granularity buys. Compare with the intra-task granularity discussion
	// of Shin et al. the paper cites.
	ASP
	// ORA is online reclamation, adaptive (not one of the paper's
	// schemes): adaptive speculation whose workload assumption is not the
	// plan's static α but an online EWMA estimate of the observed
	// actual/worst-case execution ratios, refreshed after every completed
	// section. Measured dynamic slack is thereby redistributed across the
	// *future* sections: when the run is lighter than the static average
	// predicts, the speculative floor drops toward the greedy level; when
	// it is heavier, the floor rises back toward AS's. The estimator state
	// is run-scoped (it lives in the policy inside the run's Arena), never
	// on the immutable Plan. With a frozen or empty observation history
	// ORA degenerates bit-exactly to AS. See MORA (Nelis & Goossens) and
	// Leung/Tsui in PAPERS.md for the reclamation literature this follows.
	ORA
)

// Schemes lists all schemes in presentation order.
var Schemes = []Scheme{NPM, SPM, GSS, SS1, SS2, AS}

// DynamicSchemes lists the schemes that reclaim run-time slack.
var DynamicSchemes = []Scheme{GSS, SS1, SS2, AS}

// String returns the scheme's short name as used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case NPM:
		return "NPM"
	case SPM:
		return "SPM"
	case GSS:
		return "GSS"
	case SS1:
		return "SS1"
	case SS2:
		return "SS2"
	case AS:
		return "AS"
	case CLV:
		return "CLV"
	case ASP:
		return "ASP"
	case ORA:
		return "ORA"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ExtendedSchemes lists this repository's additions beyond the paper: the
// clairvoyant bound, per-PMP adaptive speculation, and online slack
// reclamation.
var ExtendedSchemes = []Scheme{CLV, ASP, ORA}

// ParseScheme converts a scheme name (case-sensitive, as printed by
// String) to a Scheme. The extended schemes CLV, ASP and ORA are accepted
// in addition to the paper's six.
func ParseScheme(name string) (Scheme, error) {
	for _, list := range [...][]Scheme{Schemes, ExtendedSchemes} {
		for _, s := range list {
			if s.String() == name {
				return s, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want one of NPM SPM GSS SS1 SS2 AS CLV ASP ORA)", name)
}

// Dynamic reports whether the scheme performs run-time speed computation
// (and therefore pays the power-management overheads).
func (s Scheme) Dynamic() bool {
	return s == GSS || s == SS1 || s == SS2 || s == AS || s == ASP || s == ORA
}
