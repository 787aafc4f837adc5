package core

import (
	"fmt"
	"sync"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// eqPlans compares two plans field by field with exact (bit-level) equality,
// including the per-section internals the cache hit path fills in. Returns
// "" when identical.
func eqPlans(a, b *Plan) string {
	if a.CTWorst != b.CTWorst || a.CTAvg != b.CTAvg {
		return fmt.Sprintf("CT: (%v,%v) vs (%v,%v)", a.CTWorst, a.CTAvg, b.CTWorst, b.CTAvg)
	}
	if a.Procs != b.Procs || a.fmax != b.fmax {
		return fmt.Sprintf("Procs/fmax: (%d,%v) vs (%d,%v)", a.Procs, a.fmax, b.Procs, b.fmax)
	}
	if a.alphaTask != b.alphaTask {
		return fmt.Sprintf("alphaTask: %v vs %v", a.alphaTask, b.alphaTask)
	}
	if len(a.secs) != len(b.secs) {
		return fmt.Sprintf("section count: %d vs %d", len(a.secs), len(b.secs))
	}
	for s := range a.secs {
		as, bs := a.secs[s], b.secs[s]
		if as.lenW != bs.lenW || as.lenA != bs.lenA {
			return fmt.Sprintf("section %d len: (%v,%v) vs (%v,%v)", s, as.lenW, as.lenA, bs.lenW, bs.lenA)
		}
		if as.remWorst != bs.remWorst || as.remAvg != bs.remAvg {
			return fmt.Sprintf("section %d rem: (%v,%v) vs (%v,%v)", s, as.remWorst, as.remAvg, bs.remWorst, bs.remAvg)
		}
		if len(as.tasks) != len(bs.tasks) {
			return fmt.Sprintf("section %d task count: %d vs %d", s, len(as.tasks), len(bs.tasks))
		}
		for i := range as.tasks {
			at, bt := &as.tasks[i], &bs.tasks[i]
			if at.LFT != bt.LFT {
				return fmt.Sprintf("section %d task %d relLFT: %v vs %v", s, i, at.LFT, bt.LFT)
			}
			if at.Node != bt.Node || at.Dummy != bt.Dummy ||
				at.WorkW != bt.WorkW || at.Order != bt.Order ||
				at.SpecRemain != bt.SpecRemain ||
				at.CanonClass != bt.CanonClass ||
				at.Affinity != bt.Affinity {
				return fmt.Sprintf("section %d task %d template: %+v vs %+v", s, i, at, bt)
			}
		}
		ai, aw, aa := a.computes(&as)
		bi, bw, ba := b.computes(&bs)
		if len(ai) != len(bi) {
			return fmt.Sprintf("section %d computeIdx: %d vs %d", s, len(ai), len(bi))
		}
		for i := range ai {
			if ai[i] != bi[i] || aw[i] != bw[i] || aa[i] != ba[i] {
				return fmt.Sprintf("section %d compute %d: (%d,%v,%v) vs (%d,%v,%v)", s, i,
					ai[i], aw[i], aa[i], bi[i], bw[i], ba[i])
			}
		}
	}
	return ""
}

// cacheDifferentialOpts varies the generator so the sweep covers deep Or
// nesting, wide sections and degenerate chains, not just the default shape.
func cacheDifferentialOpts(wl int) andor.RandomOpts {
	opts := andor.DefaultRandomOpts()
	switch wl % 4 {
	case 1:
		opts.MaxDepth, opts.MaxBranches = 3, 4
	case 2:
		opts.MaxWidth, opts.MaxLayers = 8, 4
	case 3:
		opts.ForkProb, opts.MaxStages = 0.9, 5
	}
	return opts
}

// TestScheduleCacheDifferential is the ISSUE's correctness bar for the
// compile cache: across ≥50 random AND/OR workloads, compiling uncached,
// compiling against a cold cache (all misses) and recompiling against the
// now-warm cache (all hits) must produce bit-identical plans — and those
// plans must produce bit-identical run results for every scheme under
// common random numbers.
func TestScheduleCacheDifferential(t *testing.T) {
	plats := []*power.Platform{power.Transmeta5400(), power.IntelXScale()}
	cache := schedcache.New(DefaultScheduleCacheCapacity)
	for wl := 0; wl < 50; wl++ {
		g := workload.Random(uint64(wl)+1, cacheDifferentialOpts(wl))
		m := 1 + wl%4
		plat := plats[wl%2]
		ov := power.DefaultOverheads()

		uncached, err := NewPlanWithCache(g, m, plat, ov, nil)
		if err != nil {
			t.Fatalf("workload %d: uncached NewPlan: %v", wl, err)
		}
		missesBefore := cache.Stats().Misses
		cold, err := NewPlanWithCache(g, m, plat, ov, cache)
		if err != nil {
			t.Fatalf("workload %d: cold cached NewPlan: %v", wl, err)
		}
		if cache.Stats().Misses == missesBefore {
			t.Fatalf("workload %d: cold compile recorded no cache misses", wl)
		}
		hitsBefore := cache.Stats().Hits
		warm, err := NewPlanWithCache(g, m, plat, ov, cache)
		if err != nil {
			t.Fatalf("workload %d: warm cached NewPlan: %v", wl, err)
		}
		if cache.Stats().Hits == hitsBefore {
			t.Fatalf("workload %d: warm compile recorded no cache hits", wl)
		}
		if diff := eqPlans(uncached, cold); diff != "" {
			t.Fatalf("workload %d (m=%d): cold cached plan diverged: %s", wl, m, diff)
		}
		if diff := eqPlans(uncached, warm); diff != "" {
			t.Fatalf("workload %d (m=%d): warm cached plan diverged: %s", wl, m, diff)
		}

		load := 0.4 + 0.1*float64(wl%4)
		cfg := RunConfig{Deadline: uncached.CTWorst / load, CollectTrace: true}
		for _, s := range allSchemes() {
			cfg.Scheme = s
			seed := uint64(wl)*37 + uint64(s)
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			ref, err := uncached.Run(cfg)
			if err != nil {
				t.Fatalf("workload %d %s: uncached run: %v", wl, s, err)
			}
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			got, err := warm.Run(cfg)
			if err != nil {
				t.Fatalf("workload %d %s: cached run: %v", wl, s, err)
			}
			if diff := eqRunResults(ref, got); diff != "" {
				t.Fatalf("workload %d (m=%d) %s: cached plan's run diverged: %s", wl, m, s, diff)
			}
		}
	}
}

// TestScheduleCacheSharedAcrossSizing checks the sizing search path: probing
// ascending processor counts against one cache must match uncached probes
// bit-for-bit, and repeating the whole search must be answered from cache.
func TestScheduleCacheSharedAcrossSizing(t *testing.T) {
	g := workload.ATR(workload.DefaultATRConfig())
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	cache := schedcache.New(256)
	for pass := 0; pass < 2; pass++ {
		for m := 1; m <= 6; m++ {
			ref, err := NewPlanWithCache(g, m, plat, ov, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewPlanWithCache(g, m, plat, ov, cache)
			if err != nil {
				t.Fatal(err)
			}
			if diff := eqPlans(ref, got); diff != "" {
				t.Fatalf("pass %d m=%d: %s", pass, m, diff)
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("second sizing pass produced no cache hits: %+v", st)
	}
}

// FuzzNewPlanCacheDifferential fuzzes the cache correctness contract: for
// any generator seed and configuration, a warm cached compile must be
// bit-identical to an uncached one, and a representative run under common
// random numbers must agree exactly.
func FuzzNewPlanCacheDifferential(f *testing.F) {
	f.Add(uint64(1), 1, false)
	f.Add(uint64(2), 2, true)
	f.Add(uint64(17), 4, false)
	f.Add(uint64(99), 3, true)
	f.Fuzz(func(t *testing.T, seed uint64, m int, xscale bool) {
		if m < 1 || m > 8 {
			t.Skip()
		}
		plat := power.Transmeta5400()
		if xscale {
			plat = power.IntelXScale()
		}
		opts := cacheDifferentialOpts(int(seed % 4))
		g := workload.Random(seed, opts)
		ov := power.DefaultOverheads()
		ref, err := NewPlanWithCache(g, m, plat, ov, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := schedcache.New(64)
		if _, err := NewPlanWithCache(g, m, plat, ov, cache); err != nil {
			t.Fatal(err)
		}
		warm, err := NewPlanWithCache(g, m, plat, ov, cache)
		if err != nil {
			t.Fatal(err)
		}
		if diff := eqPlans(ref, warm); diff != "" {
			t.Fatalf("seed %d m=%d: warm cached plan diverged: %s", seed, m, diff)
		}
		cfg := RunConfig{Deadline: ref.CTWorst * 1.7, CollectTrace: true}
		var asRes *RunResult
		for _, s := range allSchemes() {
			cfg.Scheme = s
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			a, err := ref.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			b, err := warm.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := eqRunResults(a, b); diff != "" {
				t.Fatalf("seed %d m=%d %s: %s", seed, m, s, diff)
			}
			if s == AS {
				asRes = a
			}
		}
		// Reclamation differential arm: ORA with a frozen α-history must
		// reproduce the AS baseline exactly on the same script.
		cfg.Scheme, cfg.ORAWeight = ORA, -1
		cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
		frozen, err := ref.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frozen.Scheme = AS // normalize the config echo
		if diff := eqRunResults(asRes, frozen); diff != "" {
			t.Fatalf("seed %d m=%d: frozen ORA diverged from AS: %s", seed, m, diff)
		}
	})
}

// TestCompileSharedGraphConcurrently compiles one parsed graph, not yet
// validated, from several goroutines at once, on one platform and one
// schedule cache: the graph's validation and decomposition memos, the
// sections' digest memos, the platform's machine memo and the pooled parse
// and decomposition scratch are all reached concurrently. Every plan must
// equal a lone uncached compile of a clone.
func TestCompileSharedGraphConcurrently(t *testing.T) {
	plat, ov := power.Transmeta5400(), power.DefaultOverheads()
	for seed := uint64(1); seed <= 8; seed++ {
		text := andor.FormatText(workload.Random(seed, andor.DefaultRandomOpts()))
		g, err := andor.ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewPlanWithCache(g.Clone(), 2, plat, ov, nil)
		if err != nil {
			t.Fatal(err)
		}
		g = g.Clone() // drop the memos ParseText left
		cache := schedcache.New(64)
		plans := make([]*Plan, 8)
		var wg sync.WaitGroup
		for w := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := andor.ParseText(text); err != nil {
					t.Error(err)
				}
				var err error
				if plans[w], err = NewPlanWithCache(g, 2, plat, ov, cache); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for w, p := range plans {
			if p == nil {
				t.Fatalf("seed %d: goroutine %d failed to compile", seed, w)
			}
			if d := eqPlans(p, want); d != "" {
				t.Fatalf("seed %d: goroutine %d: %s", seed, w, d)
			}
		}
	}
}
