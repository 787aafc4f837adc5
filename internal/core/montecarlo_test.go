package core

import (
	"errors"
	"testing"

	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestMonteCarloMatchesMasterStream pins MonteCarlo's seeding contract
// against its definition: run i replays the i-th draw of a master stream
// seeded with the request seed, however [0, runs) is split into ranges.
func TestMonteCarloMatchesMasterStream(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	src := exectime.NewSource(0)
	cfg := RunConfig{Scheme: AS, Deadline: plan.CTWorst / 0.6, Sampler: exectime.NewSampler(src)}
	const runs, seed = 40, 77

	want := make([]float64, runs)
	master := exectime.NewSource(seed)
	var res RunResult
	for i := range want {
		src.Reseed(master.Uint64())
		if err := plan.RunInto(cfg, nil, &res); err != nil {
			t.Fatal(err)
		}
		want[i] = res.Energy()
	}

	a := NewArena()
	next := 0
	for _, r := range [][2]int{{0, 13}, {13, 14}, {14, runs}} {
		if err := MonteCarlo(plan, cfg, seed, r[0], r[1], a, src, func(i int, res *RunResult) error {
			if i != next {
				t.Fatalf("visited run %d, want %d", i, next)
			}
			next++
			if got := res.Energy(); got != want[i] {
				t.Fatalf("run %d energy %v, want %v", i, got, want[i])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if next != runs {
		t.Fatalf("visited %d runs, want %d", next, runs)
	}

	stop := errors.New("stop")
	visited := 0
	err = MonteCarlo(plan, cfg, seed, 0, runs, a, src, func(int, *RunResult) error {
		visited++
		return stop
	})
	if !errors.Is(err, stop) || visited != 1 {
		t.Fatalf("visit error: got %v after %d visits, want stop after 1", err, visited)
	}
}

// TestCompareFramesCommonRandomNumbers pins the CRN form: within a frame
// the NPM baseline (index -1) and every scheme replay the frame's seed,
// and frame f's seed is the f-th master draw.
func TestCompareFramesCommonRandomNumbers(t *testing.T) {
	plan, err := NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	src := exectime.NewSource(0)
	cfg := RunConfig{Deadline: plan.CTWorst / 0.5, Sampler: exectime.NewSampler(src)}
	schemes := []Scheme{GSS, NPM, AS}
	const frames, seed = 12, 5

	master := exectime.NewSource(seed)
	var res RunResult
	var want []float64
	for f := 0; f < frames; f++ {
		frameSeed := master.Uint64()
		for _, sc := range append([]Scheme{NPM}, schemes...) {
			src.Reseed(frameSeed)
			c := cfg
			c.Scheme = sc
			if err := plan.RunInto(c, nil, &res); err != nil {
				t.Fatal(err)
			}
			want = append(want, res.Energy())
		}
	}

	var got []float64
	a := NewArena()
	for _, r := range [][2]int{{0, 5}, {5, frames}} {
		if err := CompareFrames(plan, cfg, schemes, seed, r[0], r[1], a, src, func(f, si int, res *RunResult) error {
			if k := len(got); f != k/(len(schemes)+1) || si != k%(len(schemes)+1)-1 {
				t.Fatalf("visit %d: (frame %d, scheme %d) out of order", k, f, si)
			}
			got = append(got, res.Energy())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d visits, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("visit %d energy %v, want %v", k, got[k], want[k])
		}
	}
	// The NPM baseline and the NPM scheme run of one frame are the same run.
	if got[0] != got[2] {
		t.Fatalf("NPM baseline %v and NPM scheme run %v differ within frame 0", got[0], got[2])
	}

	bad := cfg
	bad.Deadline = plan.CTWorst / 2
	if err := CompareFrames(plan, bad, schemes, seed, 0, 1, a, src, func(int, int, *RunResult) error { return nil }); err == nil {
		t.Fatal("infeasible deadline: CompareFrames returned nil")
	}
}
