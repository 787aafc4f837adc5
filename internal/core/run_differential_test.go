package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// diffRunBits reports the first field in which two run results differ, or
// "" when every field is identical: floats bit for bit, counts, the level
// residency, the per-class energies, the final levels, the path, the Gantt
// rows and the metrics snapshot.
func diffRunBits(a, b *RunResult) string {
	b64 := math.Float64bits
	floats := func(name string, x, y []float64) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: %d vs %d entries", name, len(x), len(y))
		}
		for i := range x {
			if b64(x[i]) != b64(y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", name, i, x[i], y[i])
			}
		}
		return ""
	}
	if d := floats("scalars",
		[]float64{a.Deadline, a.Finish, a.ActiveEnergy, a.OverheadEnergy, a.IdleEnergy, a.BusyTime, a.OverheadTime},
		[]float64{b.Deadline, b.Finish, b.ActiveEnergy, b.OverheadEnergy, b.IdleEnergy, b.BusyTime, b.OverheadTime}); d != "" {
		return d
	}
	if a.Scheme != b.Scheme || a.MetDeadline != b.MetDeadline || a.LSTViolations != b.LSTViolations ||
		a.SpeedChanges != b.SpeedChanges {
		return fmt.Sprintf("scheme/met/LST/changes: (%v,%v,%d,%d) vs (%v,%v,%d,%d)", a.Scheme, a.MetDeadline,
			a.LSTViolations, a.SpeedChanges, b.Scheme, b.MetDeadline, b.LSTViolations, b.SpeedChanges)
	}
	for _, d := range []string{
		floats("LevelTime", a.LevelTime, b.LevelTime),
		floats("ClassGrossEnergy", a.ClassGrossEnergy, b.ClassGrossEnergy),
		floats("ClassIdleEnergy", a.ClassIdleEnergy, b.ClassIdleEnergy),
	} {
		if d != "" {
			return d
		}
	}
	if (a.ClassGrossEnergy == nil) != (b.ClassGrossEnergy == nil) {
		return "ClassGrossEnergy: nil on one side only"
	}
	if !slicesEqual(a.FinalLevels, b.FinalLevels) {
		return fmt.Sprintf("FinalLevels: %v vs %v", a.FinalLevels, b.FinalLevels)
	}
	if !slicesEqual(a.Path, b.Path) {
		return fmt.Sprintf("Path: %v vs %v", a.Path, b.Path)
	}
	if len(a.Trace) != len(b.Trace) {
		return fmt.Sprintf("Trace: %d vs %d rows", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if x.Proc != y.Proc || x.Name != y.Name || x.Level != y.Level ||
			floats("row", []float64{x.Dispatch, x.Finish, x.CompOH, x.ChangeOH},
				[]float64{y.Dispatch, y.Finish, y.CompOH, y.ChangeOH}) != "" {
			return fmt.Sprintf("Trace[%d]: %+v vs %+v", i, x, y)
		}
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		return fmt.Sprintf("Metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
	return ""
}

// slicesEqual is == over two slices of comparable elements.
func slicesEqual[T comparable](x, y []T) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// threeClasses is a 4-processor machine of three classes with speeds
// other than 1, for the differential fuzzer.
func threeClasses() *power.Hetero {
	h, err := power.NewHetero("three", []power.Class{
		{Name: "big", Count: 1, Plat: power.Transmeta5400(), Speed: 1},
		{Name: "mid", Count: 1, Plat: power.IntelXScale(), Speed: 1.25},
		{Name: "little", Count: 2, Plat: power.Transmeta5400(), Speed: 0.5},
	})
	if err != nil {
		panic(err)
	}
	return h
}

// fuzzRunPlan compiles the fuzzer's plan: a random application on one of
// five machines — identical Transmeta or XScale processors, a one-class
// heterogeneous machine, big.LITTLE or three classes — under one of the
// three placements, with or without overheads; on several classes some
// compute tasks carry a class tag.
func fuzzRunPlan(seed uint64, shape uint8) (*Plan, error) {
	g := workload.Random(seed, cacheDifferentialOpts(int(seed%4)))
	m := 1 + int(seed%4)
	var ov power.Overheads
	if shape/15%2 == 0 {
		ov = power.DefaultOverheads()
	}
	place := []sim.PlacementPolicy{sim.FastestFirst, sim.EnergyGreedy, sim.ClassAffinity}[shape/5%3]
	var hp *power.Hetero
	switch shape % 5 {
	case 0:
		return NewPlan(g, m, power.Transmeta5400(), ov)
	case 1:
		return NewPlan(g, m, power.IntelXScale(), ov)
	case 2:
		hp = power.SymmetricHetero(m)
	case 3:
		hp = power.BigLittle()
	default:
		hp = threeClasses()
	}
	if hp.NumClasses() > 1 {
		for i, n := range g.Nodes() {
			if n.Kind == andor.Compute && (seed>>(i%32))&1 == 1 {
				g.SetClass(n, hp.Class(i%hp.NumClasses()).Name)
			}
		}
	}
	return NewHeteroPlan(g, hp, ov, place)
}

// FuzzRunDifferential holds the run driver to the frozen reference driver
// of execute_ref_test.go: random plans on one to three classes, every
// placement, overheads on and off, every scheme (CLV and ORA included,
// ORA at its default, a custom and a frozen weight), and traced, validated
// and plain runs. Each run on a reused arena must give the reference's
// RunResult bit for bit, its events and metrics when traced, and its
// error text when the deadline is infeasible.
func FuzzRunDifferential(f *testing.F) {
	for _, s := range []struct {
		seed        uint64
		shape, load uint8
	}{
		{1, 0, 128}, {2, 3, 200}, {3, 4, 90}, {4, 8, 255}, {5, 13, 40},
		{6, 19, 160}, {7, 33, 220}, {8, 64, 10}, {9, 97, 180}, {17, 124, 130},
	} {
		f.Add(s.seed, s.shape, s.load)
	}
	a := NewArena()
	f.Fuzz(func(t *testing.T, seed uint64, shape, load uint8) {
		p, err := fuzzRunPlan(seed, shape)
		if err != nil {
			t.Skip()
		}
		// Loads from 0.3 to 1.1: the last few are infeasible deadlines.
		d := p.CTWorst / (0.3 + 0.8*float64(load)/255)
		traced, checked := shape/30%2 == 1, shape/60%2 == 1
		oraWeight := []float64{0, 0.5, -1}[int(seed%3)]
		for _, s := range allSchemes() {
			run := func(ref bool) (*RunResult, []obs.Event, error) {
				cfg := RunConfig{
					Scheme: s, Deadline: d, ORAWeight: oraWeight,
					Sampler:      exectime.NewSampler(exectime.NewSource(seed)),
					CollectTrace: checked, Validate: checked,
				}
				var col *obs.Collector
				if traced {
					col = obs.NewCollector()
					cfg.Tracer, cfg.Metrics = col, obs.NewMetrics()
				}
				out := new(RunResult)
				if ref {
					err = p.refRunInto(cfg, out)
				} else {
					err = p.RunInto(cfg, a, out)
				}
				if col == nil {
					return out, nil, err
				}
				return out, col.Events(), err
			}
			want, wantEv, wantErr := run(true)
			got, gotEv, gotErr := run(false)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, reference %v", s, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if diff := diffRunBits(want, got); diff != "" {
				t.Fatalf("%s: %s", s, diff)
			}
			if !reflect.DeepEqual(wantEv, gotEv) {
				t.Fatalf("%s: %d events, reference %d, or they differ", s, len(gotEv), len(wantEv))
			}
		}
	})
}
