package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// resultBits renders every field of a run result, floats as IEEE-754 bits,
// so two renderings are equal exactly when the results are bit-identical.
// A nil and an empty slice render alike.
func resultBits(r *RunResult) string {
	var b strings.Builder
	floats := func(name string, v ...float64) {
		b.WriteString(name)
		for _, x := range v {
			b.WriteString(" " + goldenBits(x))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "scheme %v met %v lst %d changes %d metrics %v\n",
		r.Scheme, r.MetDeadline, r.LSTViolations, r.SpeedChanges, r.Metrics != nil)
	floats("deadline", r.Deadline)
	floats("finish", r.Finish)
	floats("energy", r.ActiveEnergy, r.OverheadEnergy, r.IdleEnergy)
	floats("class_gross", r.ClassGrossEnergy...)
	floats("class_idle", r.ClassIdleEnergy...)
	floats("time", r.BusyTime, r.OverheadTime)
	floats("level_time", r.LevelTime...)
	fmt.Fprintf(&b, "final_levels %v\n", r.FinalLevels)
	for _, c := range r.Path {
		fmt.Fprintf(&b, "path %d:%d\n", c.Or.ID, c.Branch)
	}
	fmt.Fprintf(&b, "trace %d %s\n", len(r.Trace), goldenTraceDigest(r))
	return b.String()
}

// referenceFrames is the per-scheme form of the common-random-numbers
// loop: frame f reseeds the source before the NPM baseline and again
// before every scheme, each a full RunInto. It returns the rendering of
// every visited result, in visit order.
func referenceFrames(p *Plan, cfg RunConfig, schemes []Scheme, seed uint64, lo, hi int,
	src *exectime.Source) ([]string, error) {
	var out []string
	a := NewArena()
	var res RunResult
	for f := lo; f < hi; f++ {
		frameSeed := exectime.SeedAt(seed, uint64(f))
		for _, s := range append([]Scheme{NPM}, schemes...) {
			cfg.Scheme = s
			src.Reseed(frameSeed)
			if err := p.RunInto(cfg, a, &res); err != nil {
				return out, fmt.Errorf("%s run %d: %w", s, f, err)
			}
			out = append(out, resultBits(&res))
		}
	}
	return out, nil
}

// TestCompareFramesMatchesPerSchemeRuns is the differential test of
// resolve-once: CompareFrames replays one resolved script per frame, and
// every visited result must be bit-identical to reseeding and running
// each scheme on its own — for all nine schemes, on identical-processor
// and big.LITTLE plans, under sampled, worst-case and forced-branch
// configurations, and for any split of the frames into ranges. The
// source must end in the same state as well.
func TestCompareFramesMatchesPerSchemeRuns(t *testing.T) {
	ov := power.DefaultOverheads()
	atr := workload.ATR(workload.DefaultATRConfig())
	plans := map[string]*Plan{}
	var err error
	if plans["atr"], err = NewPlan(atr, 2, power.Transmeta5400(), ov); err != nil {
		t.Fatal(err)
	}
	if plans["synthetic"], err = NewPlan(workload.Synthetic(), 3, power.IntelXScale(), ov); err != nil {
		t.Fatal(err)
	}
	if plans["biglittle"], err = NewHeteroPlan(atr, power.BigLittle(), ov, sim.EnergyGreedy); err != nil {
		t.Fatal(err)
	}
	configs := map[string]RunConfig{
		"sampled":    {},
		"worst-case": {WorstCase: true},
		"forced":     {ForceBranches: []int{1, 0, 2, 1}},
		"traced":     {CollectTrace: true, Validate: true, ORAWeight: 0.5},
	}
	const frames, seed = 7, 19
	splits := [][]int{{0, frames}, {0, 3, frames}, {0, 1, 2, 5, 6, frames}}
	schemes := allSchemes()
	for pname, plan := range plans {
		for cname, base := range configs {
			refSrc := exectime.NewSource(0)
			cfg := base
			cfg.Deadline = plan.CTWorst / 0.6
			cfg.Sampler = exectime.NewSampler(refSrc)
			want, err := referenceFrames(plan, cfg, schemes, seed, 0, frames, refSrc)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", pname, cname, err)
			}
			wantNext := refSrc.Uint64()
			for _, split := range splits {
				src := exectime.NewSource(0)
				cfg.Sampler = exectime.NewSampler(src)
				a := NewArena()
				var got []string
				for k := 0; k+1 < len(split); k++ {
					if err := CompareFrames(plan, cfg, schemes, seed, split[k], split[k+1], a, src,
						func(f, si int, res *RunResult) error {
							got = append(got, resultBits(res))
							return nil
						}); err != nil {
						t.Fatalf("%s/%s split %v: %v", pname, cname, split, err)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s split %v: %d visits, want %d", pname, cname, split, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s/%s split %v: frame %d scheme index %d differs:\ngot  %s\nwant %s",
							pname, cname, split, k/(len(schemes)+1), k%(len(schemes)+1)-1, got[k], want[k])
					}
				}
				if next := src.Uint64(); next != wantNext {
					t.Fatalf("%s/%s split %v: source state after the frames %x, want %x", pname, cname, split, next, wantNext)
				}
			}
		}
	}
}

// TestCompareFramesErrorsMatchPerSchemeRuns pins the error of a
// configuration that cannot run: checked once per frame, it must read
// exactly as the per-scheme loop's first failure, the frame's NPM run.
func TestCompareFramesErrorsMatchPerSchemeRuns(t *testing.T) {
	plan, err := NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	bad := map[string]RunConfig{
		"infeasible":   {Deadline: plan.CTWorst / 2, Sampler: sampler},
		"non-positive": {Deadline: 0, Sampler: sampler},
		"unbounded":    {Deadline: math.MaxFloat64, Sampler: sampler},
		"no sampler":   {Deadline: plan.CTWorst * 2},
		"ora weight":   {Deadline: plan.CTWorst * 2, Sampler: sampler, ORAWeight: 1.5},
	}
	schemes := []Scheme{GSS, CLV, ORA}
	for name, cfg := range bad {
		_, want := referenceFrames(plan, cfg, schemes, 3, 4, 6, src)
		visits := 0
		got := CompareFrames(plan, cfg, schemes, 3, 4, 6, NewArena(), src, func(int, int, *RunResult) error {
			visits++
			return nil
		})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: CompareFrames error %v, want %v", name, got, want)
		}
		if visits != 0 {
			t.Fatalf("%s: %d visits before the error, want 0", name, visits)
		}
	}
}
