package core

import (
	"runtime"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestRunIntoZeroAllocs asserts the tentpole property at this layer: once an
// Arena has been warmed over the seeds the measurement will replay, a
// RunInto of each dynamic scheme on the ATR workload performs zero
// steady-state heap allocations.
func TestRunIntoZeroAllocs(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	const cycle = 20 // seeds replayed during measurement, all seen in warm-up
	for _, s := range []Scheme{GSS, SS1, SS2, AS} {
		a := NewArena()
		out := new(RunResult)
		cfg := RunConfig{Scheme: s, Deadline: d, Sampler: sampler}
		for i := 0; i < cycle; i++ { // warm-up sizes every buffer
			src.Reseed(uint64(i))
			if err := plan.RunInto(cfg, a, out); err != nil {
				t.Fatal(err)
			}
		}
		var i uint64
		allocs := testing.AllocsPerRun(100, func() {
			src.Reseed(i % cycle)
			i++
			if err := plan.RunInto(cfg, a, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed arena RunInto allocates %.1f times per run, want 0", s, allocs)
		}
	}
}

// TestRunStreamArenaAllocs asserts that a long stream through one arena
// allocates per stream, not per frame: the per-frame overhead of a warmed
// 400-frame stream is below one allocation per hundred frames.
func TestRunStreamArenaAllocs(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	run := func(frames int) {
		src.Reseed(7)
		if _, err := plan.RunStreamArena(StreamConfig{
			Scheme: AS, Period: plan.CTWorst * 2, Frames: frames, Sampler: sampler,
			CarryLevels: true,
		}, a); err != nil {
			t.Fatal(err)
		}
	}
	run(400) // warm-up
	short := testing.AllocsPerRun(5, func() { run(100) })
	long := testing.AllocsPerRun(5, func() { run(400) })
	if long > short+1 { // per-stream constant, independent of frame count
		t.Errorf("allocations scale with frames: %.1f at 100 frames vs %.1f at 400", short, long)
	}
}

// TestCachedPlanRetainedObjects bounds the heap objects a cached plan of a
// parsed text keeps alive — its graph, sections and compiled plan — since
// every one of them is work for each collection while the plan is cached.
// 128 workload.Random texts are parsed and compiled twice against one
// schedule cache; the second round, all cache hits, is held and counted.
func TestCachedPlanRetainedObjects(t *testing.T) {
	const plans = 128
	texts := make([]string, plans)
	for i := range texts {
		texts[i] = andor.FormatText(workload.Random(uint64(i+1), andor.DefaultRandomOpts()))
	}
	cache := schedcache.New(DefaultScheduleCacheCapacity)
	compileTexts(t, texts, cache) // fill the schedule cache
	// Two collections empty the sync.Pools too.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := compileTexts(t, texts, cache)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	runtime.KeepAlive(cache)
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / plans
	bytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / plans
	t.Logf("a cached text plan retains %.1f heap objects, %.0f B", objects, bytes)
	if objects > 16 {
		t.Errorf("a cached text plan retains %.1f heap objects, want <= 16", objects)
	}
}

// compileTexts parses and compiles every text on two processors against
// cache. The plans share one platform, as a server's do.
//
//go:noinline
func compileTexts(t *testing.T, texts []string, cache *schedcache.Cache) []*Plan {
	plans := make([]*Plan, len(texts))
	plat := power.Transmeta5400()
	for i, text := range texts {
		g, err := andor.ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i], err = NewPlanWithCache(g, 2, plat, power.DefaultOverheads(), cache); err != nil {
			t.Fatal(err)
		}
	}
	return plans
}
