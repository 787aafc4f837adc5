package core

import (
	"math"
	"strings"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestORAFrozenDegeneratesToAS is the reclamation differential: ORA with a
// frozen α-history (ORAWeight < 0) must reproduce the AS baseline exactly —
// energies, finish times, level residencies, traces, everything but the
// scheme echo — across random workloads, both platforms and all α values.
// The frozen estimator's scale is exactly 1 and 1·rem == rem in IEEE
// arithmetic, so the two floor computations are the same float operations.
func TestORAFrozenDegeneratesToAS(t *testing.T) {
	plats := []*power.Platform{power.Transmeta5400(), power.IntelXScale()}
	arena := NewArena()
	var asRes, oraRes RunResult
	for wl := 0; wl < 30; wl++ {
		opts := andor.DefaultRandomOpts()
		opts.Alpha = []float64{0.1, 0.5, 1.0}[wl%3]
		g := workload.Random(uint64(wl)+1, opts)
		plan, err := NewPlan(g, 1+wl%4, plats[wl%2], power.DefaultOverheads())
		if err != nil {
			t.Fatalf("workload %d: NewPlan: %v", wl, err)
		}
		cfg := RunConfig{
			Deadline:     plan.CTWorst / 0.8,
			CollectTrace: true,
		}
		for seed := uint64(0); seed < 3; seed++ {
			cfg.Scheme, cfg.ORAWeight = AS, 0
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			if err := plan.RunInto(cfg, arena, &asRes); err != nil {
				t.Fatalf("workload %d AS seed=%d: %v", wl, seed, err)
			}
			cfg.Scheme, cfg.ORAWeight = ORA, -1
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(seed))
			if err := plan.RunInto(cfg, arena, &oraRes); err != nil {
				t.Fatalf("workload %d frozen ORA seed=%d: %v", wl, seed, err)
			}
			oraRes.Scheme = AS // normalize the config echo; all else must match
			if diff := eqRunResults(&asRes, &oraRes); diff != "" {
				t.Fatalf("workload %d seed=%d: frozen ORA diverged from AS: %s", wl, seed, diff)
			}
		}
	}
}

// TestORAWeightValidation pins the RunConfig.ORAWeight contract: weights
// above 1 are rejected before the run starts, and the field is ignored by
// every scheme except ORA (an out-of-range weight still errors — the
// config is invalid regardless of which scheme would have read it).
func TestORAWeightValidation(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Scheme: ORA, Deadline: plan.CTWorst / 0.8,
		Sampler: exectime.NewSampler(exectime.NewSource(1)),
	}
	for _, w := range []float64{1.5, 2, math.Inf(1)} {
		cfg.ORAWeight = w
		if _, err := plan.Run(cfg); err == nil || !strings.Contains(err.Error(), "ORAWeight") {
			t.Errorf("ORAWeight=%g: want validation error, got %v", w, err)
		}
	}
	for _, w := range []float64{0, -1, DefaultORAWeight, 1} {
		cfg.ORAWeight = w
		cfg.Sampler = exectime.NewSampler(exectime.NewSource(1))
		if _, err := plan.Run(cfg); err != nil {
			t.Errorf("ORAWeight=%g: unexpected error %v", w, err)
		}
	}
	cfg.Scheme, cfg.ORAWeight = GSS, 0.25
	cfg.Sampler = exectime.NewSampler(exectime.NewSource(1))
	if _, err := plan.Run(cfg); err != nil {
		t.Errorf("GSS with ORAWeight set: unexpected error %v", err)
	}
}

// TestORAAlphaGauge checks the estimator's observability: an ORA run with
// metrics attached reports core.slack.ora_alpha, the final α estimate — a
// value in (0, 1] that a frozen run leaves at the plan's static task-level
// seed.
func TestORAAlphaGauge(t *testing.T) {
	g := workload.ATR(workload.DefaultATRConfig())
	g.ScaleACET(0.5)
	plan, err := NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Scheme: ORA, Deadline: plan.CTWorst / 0.8,
		Sampler: exectime.NewSampler(exectime.NewSource(7)),
		Metrics: obs.NewMetrics(),
	}
	res, err := plan.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Metrics.Gauge(MetricORAAlpha)
	if !ok {
		t.Fatalf("metrics snapshot has no %s gauge", MetricORAAlpha)
	}
	if got <= 0 || got > 1 {
		t.Errorf("final α estimate %g outside (0, 1]", got)
	}

	cfg.ORAWeight = -1 // frozen: the gauge must stay at the static seed
	cfg.Sampler = exectime.NewSampler(exectime.NewSource(7))
	cfg.Metrics = obs.NewMetrics()
	res, err = plan.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frozen, ok := res.Metrics.Gauge(MetricORAAlpha)
	if !ok {
		t.Fatalf("frozen run: metrics snapshot has no %s gauge", MetricORAAlpha)
	}
	if frozen != plan.alphaTask {
		t.Errorf("frozen run: gauge %g, want the static seed %g", frozen, plan.alphaTask)
	}
}

// TestORAReclaimsUnderLighterRuns guards against ORA silently degenerating
// into AS: when actual execution times run well below the plan's static
// average-case assumption, the estimator must lower the speculative floor
// and save energy — strictly, in aggregate, on the configuration the
// reclamation ablation uses (ATR, α assumed 0.5, actuals at 0.2×, load
// 0.9). AS and ORA replay identical scripts per seed, so the comparison is
// exactly paired.
func TestORAReclaimsUnderLighterRuns(t *testing.T) {
	g := workload.ATR(workload.DefaultATRConfig())
	g.ScaleACET(0.5)
	plan, err := NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	var res RunResult
	var sumAS, sumORA float64
	cfg := RunConfig{Deadline: plan.CTWorst / 0.9}
	for seed := uint64(0); seed < 150; seed++ {
		for _, s := range []Scheme{AS, ORA} {
			cfg.Scheme = s
			cfg.Sampler = exectime.NewBiasedSampler(exectime.NewSource(seed), 0.2)
			if err := plan.RunInto(cfg, arena, &res); err != nil {
				t.Fatalf("%s seed=%d: %v", s, seed, err)
			}
			if s == AS {
				sumAS += res.Energy()
			} else {
				sumORA += res.Energy()
			}
		}
	}
	if sumORA >= sumAS {
		t.Errorf("lighter-than-assumed runs: ORA total energy %g ≥ AS's %g — no slack was reclaimed",
			sumORA, sumAS)
	}
}
