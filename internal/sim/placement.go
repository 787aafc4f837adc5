package sim

// ProcView is the per-processor state the engine exposes to a placement
// policy when it asks where to dispatch a task: the processor's identity
// and class plus the class properties placements rank by. Views are only
// built for processors that are idle and pass the engine's per-class
// feasibility guard, so a policy is free to pick any entry.
type ProcView struct {
	// Proc is the processor index.
	Proc int
	// Class is the processor's class index on the heterogeneous platform.
	Class int
	// FreeAt is the instant the processor last became idle.
	FreeAt float64
	// EffFmax is the class's maximal effective execution rate (Speed·f_max)
	// in cycles per second.
	EffFmax float64
	// EnergyPerCycle is the class's minimal achievable energy per cycle of
	// work, min over levels of P(f)/(Speed·f).
	EnergyPerCycle float64
}

// PlacementPolicy picks the processor a ready task is dispatched on. It is
// the pluggable queue-selection axis of the machine model: the scheduler
// keeps one logical ready queue per processor group and asks the policy
// which group's head processor takes the next task. ListScheduler consults
// it for every task of a canonical schedule, and the engine for dummy
// tasks on machines of more than one class. Among identical processors
// every policy must rank idle-longest-first (lowest free time, ties by
// index), and the engine applies that ranking directly where the choice is
// among identical processors only: for computation tasks, pinned to their
// canonical class, and for dummies on a one-class machine.
//
// Policies must be deterministic pure functions of their arguments —
// schedules are replayed and differential-tested bit-for-bit.
type PlacementPolicy interface {
	// Name returns the policy's stable identifier ("fastest-first", ...).
	Name() string
	// Pick returns the index into eligible of the processor to dispatch t
	// on. eligible is non-empty, ordered by processor index, and contains
	// only idle processors that pass the feasibility guard.
	Pick(t *Task, now float64, eligible []ProcView) int
}

// fasterView reports whether a should be preferred over b under the
// fastest-first ordering: higher effective f_max, then longer idle (lower
// FreeAt), then lower processor index. Within one class this is the
// idle-longest-first processor pick.
func fasterView(a, b *ProcView) bool {
	if a.EffFmax != b.EffFmax {
		return a.EffFmax > b.EffFmax
	}
	if a.FreeAt != b.FreeAt {
		return a.FreeAt < b.FreeAt
	}
	return a.Proc < b.Proc
}

// fastestOf returns the index of the best view under fasterView, scanning a
// subset selected by keep (nil keeps all). Returns -1 if nothing kept.
func fastestOf(eligible []ProcView, keep func(*ProcView) bool) int {
	best := -1
	for i := range eligible {
		if keep != nil && !keep(&eligible[i]) {
			continue
		}
		if best < 0 || fasterView(&eligible[i], &eligible[best]) {
			best = i
		}
	}
	return best
}

// fastestFirst always places on the fastest eligible class — the default
// policy; on identical processors it is idle-longest-first.
type fastestFirst struct{}

func (fastestFirst) Name() string { return "fastest-first" }

func (fastestFirst) Pick(t *Task, now float64, eligible []ProcView) int {
	return fastestOf(eligible, nil)
}

// energyGreedy places on the eligible class with the lowest energy per
// cycle of work — accepting a slower processor whenever the feasibility
// guard proves the task still meets its latest finish time there. Ties fall
// back to the fastest-first ordering.
type energyGreedy struct{}

func (energyGreedy) Name() string { return "energy-greedy" }

func (energyGreedy) Pick(t *Task, now float64, eligible []ProcView) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		a, b := &eligible[i], &eligible[best]
		if a.EnergyPerCycle != b.EnergyPerCycle {
			if a.EnergyPerCycle < b.EnergyPerCycle {
				best = i
			}
			continue
		}
		if fasterView(a, b) {
			best = i
		}
	}
	return best
}

// classAffinity honors the task's class-affinity tag (Task.Affinity,
// assigned from `@class` annotations in the workload): among eligible
// processors of the preferred class it picks fastest-first; when none is
// eligible — the class is busy, absent, or infeasible for this task — it
// degrades to fastest-first over everything eligible.
type classAffinity struct{}

func (classAffinity) Name() string { return "class-affinity" }

func (classAffinity) Pick(t *Task, now float64, eligible []ProcView) int {
	if t.Affinity > 0 {
		want := t.Affinity - 1
		if i := fastestOf(eligible, func(v *ProcView) bool { return v.Class == want }); i >= 0 {
			return i
		}
	}
	return fastestOf(eligible, nil)
}

// The placement policies. All are stateless; the package-level values are
// safe for concurrent use.
var (
	FastestFirst  PlacementPolicy = fastestFirst{}
	EnergyGreedy  PlacementPolicy = energyGreedy{}
	ClassAffinity PlacementPolicy = classAffinity{}
)
