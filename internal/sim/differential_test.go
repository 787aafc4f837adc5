package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"andorsched/internal/power"
)

// referenceRun is an independent, deliberately naive implementation of the
// order-gate dispatch semantics, used for differential testing against the
// engine. Because dispatch is strictly ordered, the schedule can be
// computed sequentially: task k (in order) is dispatched at
//
//	max(dispatch of task k−1, ready time, earliest free time of its processors)
//
// where a computation task's processors are its canonical class's and a
// dummy's are all of them. A computation task runs on its class's
// processor that has been idle longest (lowest free time, ties by index);
// a dummy on the placement's pick among the processors free by then. The
// timing and energy arithmetic repeats the engine's operation by
// operation, so the results must agree exactly. Task i does work[i]
// cycles. It returns each task's record, indexed by task, and the active
// and overhead energies.
func referenceRun(cfg Config, start float64, tasks []*Task, work []float64) (recs []Record, active, overhead float64) {
	h := cfg.Hetero
	m := h.NumProcs()
	levels := make([]int, m)
	for i := range levels {
		levels[i] = h.Class(h.ClassOf(i)).Plat.MaxIndex()
	}
	if cfg.InitialLevels != nil {
		copy(levels, cfg.InitialLevels)
	}
	freeAt := make([]float64, m)
	for i := range freeAt {
		freeAt[i] = start
	}
	place := cfg.Placement
	if place == nil {
		place = FastestFirst
	}
	n := len(tasks)
	recs = make([]Record, n)
	byOrder := make([]int, n)
	for ti, t := range tasks {
		byOrder[t.Order] = ti
	}
	prevDispatch := start
	for k := 0; k < n; k++ {
		ti := byOrder[k]
		t := tasks[ti]
		ready := start
		for _, p := range t.Preds {
			ready = math.Max(ready, recs[p].Finish)
		}
		first, end := 0, m
		if !t.Dummy {
			first, end = h.Class(t.CanonClass).Procs()
		}
		best := first
		for i := first + 1; i < end; i++ {
			if freeAt[i] < freeAt[best] {
				best = i
			}
		}
		d := math.Max(prevDispatch, math.Max(ready, freeAt[best]))
		prevDispatch = d
		if t.Dummy {
			var views []ProcView
			for i := 0; i < m; i++ {
				if freeAt[i] <= d {
					c := h.Class(h.ClassOf(i))
					views = append(views, ProcView{Proc: i, Class: h.ClassOf(i), FreeAt: freeAt[i],
						EffFmax: c.EffFmax(), EnergyPerCycle: c.EnergyPerCycle()})
				}
			}
			best = views[place.Pick(t, d, views)].Proc
		}
		ci := h.ClassOf(best)
		c := h.Class(ci)
		plat := c.Plat
		cur := levels[best]
		lvl := cur
		var compT, changeT, exec float64
		if !t.Dummy {
			compT = cfg.Overheads.CompTime(c.Rate(cur))
			lvl = plat.MaxIndex()
			if cfg.Policy != nil {
				lvl = cfg.Policy.PickLevel(t, t.LFT, d, cur, ci)
			}
			if lvl != cur {
				changeT = cfg.Overheads.ChangeTime(plat.Levels()[cur], plat.Levels()[lvl])
			}
		}
		if w := work[ti]; w > 0 && !t.Dummy {
			exec = w / c.Rate(lvl)
		}
		begin := d + compT + changeT
		recs[ti] = Record{Task: ti, Proc: best, Dispatch: d, Start: begin, Finish: begin + exec,
			Level: lvl, CompOH: compT, ChangeOH: changeT}
		if exec != 0 {
			active += plat.PowerAt(lvl) * exec
		}
		if compT != 0 {
			overhead += plat.PowerAt(cur) * compT
		}
		if changeT != 0 {
			overhead += math.Max(plat.PowerAt(cur), plat.PowerAt(lvl)) * changeT
		}
		levels[best] = lvl
		freeAt[best] = recs[ti].Finish
	}
	return recs, active, overhead
}

// matchReference reports how res differs from referenceRun on the same
// input, or "" when every record and both energies agree exactly.
func matchReference(cfg Config, start float64, tasks []*Task, work []float64, res *sectionRun) string {
	want, active, overhead := referenceRun(cfg, start, tasks, work)
	if len(res.Records) != len(want) {
		return fmt.Sprintf("%d records, reference has %d", len(res.Records), len(want))
	}
	for _, r := range res.Records {
		if r != want[r.Task] {
			return fmt.Sprintf("task %d: engine %+v vs reference %+v", r.Task, r, want[r.Task])
		}
	}
	if res.ActiveEnergy != active || res.OverheadEnergy != overhead {
		return fmt.Sprintf("energies: engine (%v, %v) vs reference (%v, %v)",
			res.ActiveEnergy, res.OverheadEnergy, active, overhead)
	}
	return ""
}

// TestEngineMatchesReference differentially tests the engine against the
// sequential reference, exactly, on random order-gated workloads, and
// checks every schedule with ValidateSection. Every workload also runs
// through a shared, reused Arena so the reference cross-checks the pooled
// engine path as well.
func TestEngineMatchesReference(t *testing.T) {
	plats := []*power.Platform{testPlat(), power.IntelXScale(), power.Transmeta5400()}
	arena := NewArena()
	prop := func(seed int64) bool {
		rnd := newLCG(uint64(seed))
		plat := plats[int(rnd.next()%3)]
		m := 1 + int(rnd.next()%4)
		n := 1 + int(rnd.next()%24)
		tasks, work := make([]*Task, n), make([]float64, n)
		for i := 0; i < n; i++ {
			w := 1e6 + float64(rnd.next()%400)*1e6
			tasks[i] = &Task{
				Name: "t", Node: i, Order: i,
				WorkW: w,
				LFT:   1e9, // not exercised by fixed policies
			}
			work[i] = w * (0.3 + 0.7*rnd.float())
			if rnd.next()%4 == 0 {
				tasks[i].Dummy = true
				tasks[i].WorkW, work[i] = 0, 0
			}
			// Random predecessors among earlier tasks (respecting order).
			for j := 0; j < i; j++ {
				if rnd.next()%7 == 0 {
					tasks[i].Preds = append(tasks[i].Preds, j)
					tasks[j].Succs = append(tasks[j].Succs, i)
				}
			}
		}
		cfg := Config{
			Hetero: machine(plat, m),
			Overheads: power.Overheads{
				SpeedCompCycles: float64(rnd.next() % 2000),
				SpeedChangeTime: rnd.float() * 1e-4,
			},
			Policy: fixedPolicy(int(rnd.next()) % plat.NumLevels()),
		}
		start := rnd.float()
		if cfg.Policy.(fixedPolicy) < 0 {
			cfg.Policy = fixedPolicy(-int(cfg.Policy.(fixedPolicy)))
		}
		res, err := runSection(NewArena(), &cfg, start, tasks, work)
		if err != nil {
			t.Logf("seed %d: engine: %v", seed, err)
			return false
		}
		if err := validate(cfg.Hetero, res); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if diff := matchReference(cfg, start, tasks, work, res); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		pooled, err := runSection(arena, &cfg, start, tasks, work)
		if err != nil {
			t.Logf("seed %d: arena: %v", seed, err)
			return false
		}
		assertResultsIdentical(t, res, pooled)
		if t.Failed() {
			t.Logf("seed %d: pooled engine diverged from fresh engine", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// lcg is a tiny generator for the differential test's inputs.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }
func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 11
}
func (l *lcg) float() float64 { return float64(l.next()%1e9) / 1e9 }
