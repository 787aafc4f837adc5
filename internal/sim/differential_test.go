package sim

import (
	"math"
	"testing"
	"testing/quick"

	"andorsched/internal/power"
)

// referenceRun is an independent, deliberately naive implementation of the
// ByOrder dispatch semantics on a single-class machine, used for
// differential testing against the event-driven engine. It reads the one
// class's DVS table and speed multiplier. Because dispatch is strictly
// ordered, the schedule can be computed sequentially: task k (in order) is
// dispatched at
//
//	max(dispatch of task k−1, ready time, earliest processor free time)
//
// on the processor that has been idle longest. It returns dispatch/finish
// times and processor assignments.
func referenceRun(cfg Config, tasks []*Task) (dispatch, finish []float64, proc []int) {
	cls := cfg.Hetero.Class(0)
	plat, speed := cls.Plat, cls.Speed
	m := cfg.Hetero.NumProcs()
	levels := make([]int, m)
	for i := range levels {
		levels[i] = plat.MaxIndex()
	}
	if cfg.InitialLevels != nil {
		copy(levels, cfg.InitialLevels)
	}
	freeAt := make([]float64, m)
	for i := range freeAt {
		freeAt[i] = cfg.Start
	}
	n := len(tasks)
	dispatch = make([]float64, n)
	finish = make([]float64, n)
	proc = make([]int, n)

	byOrder := make([]int, n)
	for ti, t := range tasks {
		byOrder[t.Order] = ti
	}
	prevDispatch := cfg.Start
	for k := 0; k < n; k++ {
		ti := byOrder[k]
		t := tasks[ti]
		ready := cfg.Start
		for _, p := range t.Preds {
			if finish[p] > ready {
				ready = finish[p]
			}
		}
		// Earliest processor availability; tie-break lowest index. The
		// dispatching processor is the one idle longest at dispatch time,
		// which equals the min-freeAt processor.
		best := 0
		for i := 1; i < m; i++ {
			if freeAt[i] < freeAt[best] {
				best = i
			}
		}
		d := math.Max(prevDispatch, math.Max(ready, freeAt[best]))
		prevDispatch = d
		var compT, changeT float64
		lvl := levels[best]
		if !t.Dummy {
			compT = cfg.Overheads.CompTime(plat.Levels()[lvl].Freq * speed)
			if cfg.Policy != nil {
				lvl = cfg.Policy.PickLevel(t, d, levels[best], 0)
			} else {
				lvl = plat.MaxIndex()
				compT = 0
			}
			if lvl != levels[best] {
				changeT = cfg.Overheads.ChangeTime(plat.Levels()[levels[best]], plat.Levels()[lvl])
			}
		}
		exec := 0.0
		if t.WorkA > 0 {
			exec = t.WorkA / (plat.Levels()[lvl].Freq * speed)
		}
		dispatch[ti] = d
		finish[ti] = d + compT + changeT + exec
		proc[ti] = best
		levels[best] = lvl
		freeAt[best] = finish[ti]
	}
	return dispatch, finish, proc
}

// TestEngineMatchesReference differentially tests the event-driven engine
// against the sequential reference on random order-gated workloads, and
// checks every schedule with ValidateResult. Every workload also runs
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
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			w := 1e6 + float64(rnd.next()%400)*1e6
			tasks[i] = &Task{
				Name: "t", Node: i, Order: i,
				WorkW: w, WorkA: w * (0.3 + 0.7*rnd.float()),
				LFT: 1e9, // not exercised by fixed policies
			}
			if rnd.next()%4 == 0 {
				tasks[i].Dummy = true
				tasks[i].WorkW, tasks[i].WorkA = 0, 0
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
			Mode:   ByOrder,
			Policy: fixedPolicy(int(rnd.next()) % plat.NumLevels()),
			Start:  rnd.float(),
		}
		if cfg.Policy.(fixedPolicy) < 0 {
			cfg.Policy = fixedPolicy(-int(cfg.Policy.(fixedPolicy)))
		}
		res, err := Run(cfg, tasks)
		if err != nil {
			t.Logf("seed %d: engine: %v", seed, err)
			return false
		}
		if err := ValidateResult(cfg.Hetero, cfg.Mode, cfg.Start, tasks, res); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		wantD, wantF, wantP := referenceRun(cfg, tasks)
		for _, r := range res.Records {
			if math.Abs(r.Dispatch-wantD[r.Task]) > 1e-9 ||
				math.Abs(r.Finish-wantF[r.Task]) > 1e-9 ||
				r.Proc != wantP[r.Task] {
				t.Logf("seed %d task %d: engine (d=%g f=%g p=%d) vs reference (d=%g f=%g p=%d)",
					seed, r.Task, r.Dispatch, r.Finish, r.Proc,
					wantD[r.Task], wantF[r.Task], wantP[r.Task])
				return false
			}
		}
		pooled, err := arena.Run(cfg, tasks)
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
