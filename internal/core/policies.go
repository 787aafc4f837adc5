package core

import (
	"math"

	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// feasTol absorbs floating-point noise in feasibility comparisons.
const feasTol = 1e-9

// policy implements sim.Policy for every scheme. The zero-cost static
// schemes (NPM, SPM) use a fixed level; the dynamic schemes combine the
// greedy slack-sharing level with a scheme-specific speculative floor.
//
// Level indices are only meaningful relative to a processor class's own
// DVS table, so every scheme quantity that the paper states as a level on
// identical processors is held per class: an effective frequency quantized
// on each class's table. On the single class at Speed 1 of an
// identical-processor machine these are exactly the paper's quantities
// (x/1.0 == x and x·1.0 == x in IEEE-754).
type policy struct {
	plan *Plan
	hp   *power.Hetero
	d    float64 // deadline

	scheme Scheme

	// Per class: NPM/SPM/CLV's constant level (fixed), and SS1/SS2/AS/
	// ORA's speculative floor, which switches from floorLow to floorHigh at
	// switchAt (SS2; equal otherwise, and resetSection'd at each barrier
	// for AS/ORA).
	fixed, floorLow, floorHigh []int
	switchAt                   []float64

	// ASP: the remaining average-case time after the current section's
	// exit barrier, refreshed at each barrier; combined with each task's
	// SpecRemain statistic at pickup time.
	remAvgAfter float64

	// ORA: the online α-estimator that rescales AS's remaining-time
	// assumption. Part of the policy value, so it lives in the run's Arena
	// and never touches the shared Plan.
	ora oraEstimator

	sc *script // the script being run, set by execute
}

// newPolicy builds the scheme's policy for one run with deadline d.
func newPolicy(p *Plan, scheme Scheme, d float64) *policy {
	pol := new(policy)
	pol.init(p, scheme, d)
	return pol
}

// init (re)configures pol in place for one run with deadline d, clearing
// any state left by a previous run — arenas reuse one policy value across
// runs without allocating (the per-class buffers survive the reset).
//
// A static or speculative speed on identical processors is really a
// stretch factor — a fraction of f_max — applied to the canonical
// schedule; on unequal classes that stretch applies to each class's own
// table, so every scheme quantity becomes clsFmax·(fraction) quantized per
// class. Stretching each class by the common fraction CT/D slows the whole
// canonical schedule uniformly, which is what carries the paper's safety
// argument across (docs/MODEL.md); dividing a reference-effective
// frequency by Speed instead would over-drive slow classes and saturate
// them at their maxima.
func (pol *policy) init(p *Plan, scheme Scheme, d float64) {
	hp := p.Hetero
	nc := hp.NumClasses()
	*pol = policy{
		plan: p, hp: hp, d: d, scheme: scheme,
		fixed:     ensureInts(pol.fixed, nc),
		floorLow:  ensureInts(pol.floorLow, nc),
		floorHigh: ensureInts(pol.floorHigh, nc),
		switchAt:  ensureFloats(pol.switchAt, nc),
	}
	for c := 0; c < nc; c++ {
		plat := hp.Class(c).Plat
		fmax := plat.Max().Freq
		pol.fixed[c], pol.floorLow[c], pol.floorHigh[c], pol.switchAt[c] = 0, 0, 0, 0
		switch scheme {
		case NPM, CLV:
			// CLV's probe pass runs flat out; runClairvoyant then installs
			// the per-class stretch of the probe's finish time.
			pol.fixed[c] = plat.MaxIndex()
		case SPM:
			// Static power management: stretch the canonical worst case of
			// the longest path over the whole deadline, rounded up to a
			// level.
			pol.fixed[c] = plat.QuantizeUp(fmax * p.CTWorst / d)
		case SS1:
			pol.floorLow[c] = plat.QuantizeUp(fmax * p.CTAvg / d)
			pol.floorHigh[c] = pol.floorLow[c]
		case SS2:
			// Two-speed static speculation: run at the level just below the
			// speculative speed until T_s, then at the level just above,
			// where T_s balances the average-case work over the deadline:
			// f_low·T_s + f_high·(D − T_s) = f_max·CT_avg. The pair and the
			// switch point are class-local.
			fspec := fmax * p.CTAvg / d
			lo, hi := plat.QuantizeDown(fspec), plat.QuantizeUp(fspec)
			pol.floorLow[c], pol.floorHigh[c] = lo, hi
			if lo != hi {
				fl := plat.Levels()[lo].Freq
				fh := plat.Levels()[hi].Freq
				pol.switchAt[c] = d * (fh - fspec) / (fh - fl)
			}
		}
		// AS and ORA: resetSection sets the floors before the first task
		// runs.
	}
	if scheme == ORA {
		pol.ora.init(p, 0)
	}
}

// setORAWeight overrides the estimator's EWMA weight after init: w = 0
// keeps DefaultORAWeight, w < 0 freezes the estimator (ORA then reproduces
// AS exactly), and 0 < w ≤ 1 is used as-is. A no-op for other schemes.
func (pol *policy) setORAWeight(w float64) {
	if pol.scheme == ORA && w != 0 {
		pol.ora.eta = w
	}
}

// resetSection recomputes the adaptive-speculation floor when execution
// reaches the section with the given ID at time now (at the start and after
// every OR synchronization node, §4.2): the speculative stretch
// T_avg,remaining/(D − now) applied to each class's own maximum and
// quantized on its own table, f_spec = f_max · T_avg,remaining / (D − now).
// ORA uses the same rule with the static remaining-time assumption rescaled
// by its estimator: the measured dynamic slack of the sections behind us is
// redistributed over the sections ahead. With scale ≡ 1 (empty or frozen
// history) the arithmetic below is bit-identical to AS's.
func (pol *policy) resetSection(sectionID int, now float64) {
	switch pol.scheme {
	case AS, ORA:
		left := pol.d - now
		var rem float64
		if left > 0 {
			rem = pol.plan.SectionAvgRemaining(sectionID)
			if pol.scheme == ORA {
				rem = pol.ora.scale() * rem
			}
		}
		for c := range pol.floorLow {
			plat := pol.hp.Class(c).Plat
			if left <= 0 {
				pol.floorLow[c] = plat.MaxIndex()
			} else {
				pol.floorLow[c] = plat.QuantizeUp(plat.Max().Freq * rem / left)
			}
			pol.floorHigh[c] = pol.floorLow[c]
		}
	case ASP:
		pol.remAvgAfter = pol.plan.secs[sectionID].remAvg
	}
}

// Boundary implements sim.Policy: after step k−1 ORA observes its section,
// the last one's included; before step k runs from now, AS, ORA and ASP
// reset their speculation for its section.
func (pol *policy) Boundary(k int, now float64) {
	switch pol.scheme {
	case AS, ASP, ORA:
	default:
		return
	}
	if k > 0 && pol.scheme == ORA {
		pol.observeSection(pol.sc.sections[k-1], pol.sc.steps[k-1].Work)
	}
	if k < len(pol.sc.sections) {
		pol.resetSection(pol.sc.sections[k].sec.ID, now)
	}
}

// observeSection folds one completed section's observed actual/worst-case
// execution ratios into ORA's α-estimator, in the section's deterministic
// compute-task order. works holds the section's actual cycles by task index
// (the resolved script's layout). Called at the boundary after the section
// finishes — the estimator only ever sees the past, even though the whole
// script is resolved up front. A no-op for every other scheme.
func (pol *policy) observeSection(sp *secPlan, works []float64) {
	if pol.scheme != ORA {
		return
	}
	idx, wcets, _ := pol.plan.computes(sp)
	for j, ti := range idx {
		w := wcets[j] * pol.plan.fmax // worst-case cycles, unpadded
		if w <= 0 {
			continue
		}
		pol.ora.observe(works[ti] / w)
	}
}

// floorAt returns the speculative floor level on class ci's table for
// task t picked at time now (SS1/SS2/AS/ORA/ASP), or -1 when the scheme has
// none (GSS).
func (pol *policy) floorAt(t *sim.Task, now float64, ci int) int {
	switch pol.scheme {
	case SS1, AS, ORA:
		return pol.floorLow[ci]
	case SS2:
		if now < pol.switchAt[ci] {
			return pol.floorLow[ci]
		}
		return pol.floorHigh[ci]
	case ASP:
		// Per-PMP speculation: remaining average-case work is the task's
		// within-section PMP statistic plus the average remainder after
		// the section's barrier.
		plat := pol.hp.Class(ci).Plat
		left := pol.d - now
		if left <= 0 {
			return plat.MaxIndex()
		}
		return plat.QuantizeUp(plat.Max().Freq * (t.SpecRemain + pol.remAvgAfter) / left)
	}
	return -1
}

// PickLevel implements sim.Policy: the level, on the table of class ci, to
// run t, whose latest finish time is lft, dispatched at time now on a
// processor currently at level cur. Every frequency is read through the
// class's effective rate Speed·f.
func (pol *policy) PickLevel(t *sim.Task, lft, now float64, cur int, ci int) int {
	switch pol.scheme {
	case NPM, SPM, CLV:
		return pol.fixed[ci]
	}
	g, avail := pol.gssPick(t, lft, now, cur, ci)
	lvl := g
	if flr := pol.floorAt(t, now, ci); flr > g {
		// The speculative floor is above the slack-sharing level. Running
		// faster is always timing-safe provided the change overhead (if
		// any) still fits the allocation.
		if flr == cur {
			lvl = cur
		} else if avail > 0 && pol.hp.Class(ci).Rate(flr)*avail >= t.WorkW*(1-feasTol) {
			lvl = flr
		}
	}
	return lvl
}

// gssPick is the greedy slack-sharing level choice with overhead
// accounting (§3.2 and [20]) on class ci's table: the task's allocation is
// everything up to its latest finish time lft; after paying the
// speed-computation overhead (and the change overhead if the level would
// change), the slowest level that still covers the worst-case work is
// selected. Work retires at Speed·f, so the needed frequency divides
// through by the class speed before quantization. If no change can be
// afforded the processor keeps its current speed when that is fast enough,
// and falls back to maximum speed otherwise. It also returns the allocation
// left after both overheads. It reads only its arguments and the plan's
// constants, so the run's observer recomputes it from a record.
func (pol *policy) gssPick(t *sim.Task, lft, now float64, cur int, ci int) (int, float64) {
	cl := pol.hp.Class(ci)
	plat := cl.Plat

	availNC := lft - now - pol.plan.Overheads.CompTime(cl.Rate(cur))
	needNC := math.Inf(1)
	if availNC > 0 {
		needNC = t.WorkW / availNC
	}
	curOK := cl.Rate(cur) >= needNC*(1-feasTol)

	availC := availNC - pol.plan.maxChange[ci]
	lvlC := plat.MaxIndex()
	feasC := false
	if availC > 0 {
		// The needed level frequency is the needed rate over the class
		// speed; x/1 == x exactly, so the division is skipped at Speed 1.
		need := t.WorkW / availC
		if cl.Speed != 1 {
			need /= cl.Speed
		}
		lvlC = plat.QuantizeUp(need)
		feasC = cl.Rate(lvlC)*availC >= t.WorkW*(1-feasTol)
	}

	if curOK {
		// Slow down only if a change is affordable and strictly saves.
		if feasC && lvlC < cur {
			return lvlC, availC
		}
		return cur, availC
	}
	// The current level is too slow: a change is mandatory; if even the
	// change-adjusted choice cannot make it, run flat out (best effort —
	// cannot occur when the off-line padding is in effect).
	return lvlC, availC
}

// initialLevel is the level class ci's processors hold before the first
// task: the static level for SPM (set once before release, as in [11]) and
// the clairvoyant bound, f_max otherwise.
func (pol *policy) initialLevel(ci int) int {
	switch pol.scheme {
	case SPM, CLV:
		return pol.fixed[ci]
	default:
		return pol.hp.Class(ci).Plat.MaxIndex()
	}
}

var _ sim.Policy = (*policy)(nil)

// SPMLevel returns the level index SPM would use for the given deadline —
// exposed for tests and reporting.
func (p *Plan) SPMLevel(deadline float64) power.Level {
	return p.Platform.Levels()[p.Platform.QuantizeUp(p.fmax*p.CTWorst/deadline)]
}
