// Package andorsched's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§5) as testing.B benchmarks:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark runs the corresponding experiment (reduced to
// benchRuns simulated executions per point; set ANDORSCHED_BENCH_RUNS=1000
// for the paper's fidelity), logs the regenerated data table, and reports
// the mid-sweep normalized energy of the headline schemes as custom
// metrics. Micro-benchmarks cover the engine, the off-line phase and a
// single on-line run. EXPERIMENTS.md records paper-vs-measured shapes.
package andorsched

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/experiments"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/serve"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// benchRuns is the number of simulated executions per data point in the
// figure benchmarks (the paper averages 1000; the default here keeps
// `go test -bench=.` quick). Override with ANDORSCHED_BENCH_RUNS.
func benchRuns() int {
	if s := os.Getenv("ANDORSCHED_BENCH_RUNS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 60
}

// benchExperiment regenerates one experiment per iteration and logs the
// resulting table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	runs := benchRuns()
	var se *experiments.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se, err = e.Run(runs, 2002)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("%s (%d runs/point)\n%s", e.Title, runs, se.Table())
	mid := se.Points[len(se.Points)/2]
	for _, s := range se.Schemes {
		b.ReportMetric(mid.NormEnergy[s], s.String()+"@mid")
	}
}

// ---- Tables 1 and 2: the platform voltage/speed settings ----

// machine wraps p as the m-processor single-class machine the engine
// benchmarks run on.
func machine(p *power.Platform, m int) *power.Hetero {
	h, err := power.Homogeneous(p, m)
	if err != nil {
		panic(err)
	}
	return h
}

func BenchmarkTable1Transmeta(b *testing.B) {
	var p *power.Platform
	for i := 0; i < b.N; i++ {
		p = power.Transmeta5400()
	}
	b.Logf("\n%s", experiments.PlatformTable(p))
	b.ReportMetric(float64(p.NumLevels()), "levels")
}

func BenchmarkTable2XScale(b *testing.B) {
	var p *power.Platform
	for i := 0; i < b.N; i++ {
		p = power.IntelXScale()
	}
	b.Logf("\n%s", experiments.PlatformTable(p))
	b.ReportMetric(float64(p.NumLevels()), "levels")
}

// ---- Figures 4–6: the paper's energy results ----

// Figure 4: normalized energy vs load, ATR on dual-processor systems.
func BenchmarkFigure4aEnergyVsLoadATR2Transmeta(b *testing.B) { benchExperiment(b, "4a") }
func BenchmarkFigure4bEnergyVsLoadATR2XScale(b *testing.B)    { benchExperiment(b, "4b") }

// Figure 5: the same on 6-processor systems.
func BenchmarkFigure5aEnergyVsLoadATR6Transmeta(b *testing.B) { benchExperiment(b, "5a") }
func BenchmarkFigure5bEnergyVsLoadATR6XScale(b *testing.B)    { benchExperiment(b, "5b") }

// The 4-processor configuration the text reports without a figure.
func BenchmarkFigureText4ProcATRTransmeta(b *testing.B) { benchExperiment(b, "4p4") }

// Figure 6: normalized energy vs α, synthetic application, 2 processors.
func BenchmarkFigure6aEnergyVsAlphaSynthetic2Transmeta(b *testing.B) { benchExperiment(b, "6a") }
func BenchmarkFigure6bEnergyVsAlphaSynthetic2XScale(b *testing.B)    { benchExperiment(b, "6b") }

// ---- Ablations: the paper's stated future work (§6) ----

func BenchmarkAblationFminRatio(b *testing.B)   { benchExperiment(b, "fmin") }
func BenchmarkAblationSpeedLevels(b *testing.B) { benchExperiment(b, "levels") }
func BenchmarkAblationOverhead(b *testing.B)    { benchExperiment(b, "overhead") }
func BenchmarkAblationProcessors(b *testing.B)  { benchExperiment(b, "procs") }

// BenchmarkAblationClairvoyantBound compares every scheme (including the
// per-PMP speculation extension) against the clairvoyant single-speed
// oracle over load.
func BenchmarkAblationClairvoyantBound(b *testing.B) { benchExperiment(b, "clv") }

// BenchmarkAblationStructure sweeps the OR-fork density of random
// applications: how much path slack the AND/OR extension unlocks.
func BenchmarkAblationStructure(b *testing.B) { benchExperiment(b, "structure") }

// BenchmarkAblationVoltageSlew sweeps the voltage-slew transition cost
// (the Burd & Brodersen model the paper cites as [3]).
func BenchmarkAblationVoltageSlew(b *testing.B) { benchExperiment(b, "slew") }

// BenchmarkSpeedChangeCounts reports the quantity the speculative schemes
// are designed to reduce: mean voltage/speed changes per run (§1, §4).
func BenchmarkSpeedChangeCounts(b *testing.B) {
	e, err := experiments.ByID("4a")
	if err != nil {
		b.Fatal(err)
	}
	runs := benchRuns()
	var se *experiments.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se, err = e.Run(runs, 2002)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", se.ChangesTable())
	mid := se.Points[len(se.Points)/2]
	for _, s := range se.Schemes {
		b.ReportMetric(mid.SpeedChanges[s], s.String()+"-changes@mid")
	}
}

// ---- Micro-benchmarks: the machinery itself ----

// BenchmarkOfflinePlanATR measures the off-line phase (canonical
// schedules, aggregation, shifting) for the ATR application.
func BenchmarkOfflinePlanATR(b *testing.B) {
	g := workload.ATR(workload.DefaultATRConfig())
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlan(g, 2, plat, ov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlanCold measures a first-ever compile: every memo layer
// misses. The graph is cloned per iteration because validation and section
// decomposition are memoized on the Graph itself — reusing one graph
// object would leak warm-path work into the cold baseline. This is the
// pre-memoization cost and the denominator of the cold/warm speedup the
// compile cache claims.
func BenchmarkNewPlanCold(b *testing.B) {
	g := workload.ATR(workload.DefaultATRConfig())
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlanWithCache(g.Clone(), 2, plat, ov, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlanWarm measures the off-line phase with every memo layer
// warm — the steady state of experiment grids, sizing probes and serve
// plan-cache misses on recurring structures. Validation and decomposition
// are answered by the graph memo, every canonical simulation by the
// section-schedule cache; what remains is plan assembly.
func BenchmarkNewPlanWarm(b *testing.B) {
	g := workload.ATR(workload.DefaultATRConfig())
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	cache := schedcache.New(core.DefaultScheduleCacheCapacity)
	if _, err := core.NewPlanWithCache(g, 2, plat, ov, cache); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlanWithCache(g, 2, plat, ov, cache); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeProcessors measures the processor-sizing search (compile at
// m = 1, 2, … until feasible), which recompiles the full plan per
// candidate m. The per-(section, m) schedules are distinct cache keys, so
// the first search populates the cache and repeated searches — the pattern
// of capacity planning sweeps — run entirely warm.
func BenchmarkSizeProcessors(b *testing.B) {
	g := workload.ATR(workload.DefaultATRConfig())
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	probe, err := core.NewPlanWithCache(g, 1, plat, ov, nil)
	if err != nil {
		b.Fatal(err)
	}
	deadline := probe.CTWorst * 0.6 // forces the search past m=1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.MinFeasibleProcs(g, plat, ov, deadline, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGSSSynthetic measures one on-line execution (all sections,
// barrier handling, energy accounting) of the Figure 3 application.
func BenchmarkRunGSSSynthetic(b *testing.B) {
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		b.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(core.RunConfig{
			Scheme: core.GSS, Deadline: d,
			Sampler: exectime.NewSampler(src.Fork()),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGSSSyntheticArena is BenchmarkRunGSSSynthetic through a
// warmed per-caller arena with a reseeded source: the steady-state
// deployment of the experiments harness. allocs/op must stay at 0.
func BenchmarkRunGSSSyntheticArena(b *testing.B) {
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		b.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(1)
	sampler := exectime.NewSampler(src)
	arena := core.NewArena()
	var res core.RunResult
	cfg := core.RunConfig{Scheme: core.GSS, Deadline: d, Sampler: sampler}
	if err := plan.RunInto(cfg, arena, &res); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := plan.RunInto(cfg, arena, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunORA is BenchmarkRunGSSSyntheticArena under the online
// reclamation scheme: the estimator update after every section is the
// only extra work over AS, so ORA must stay within a few percent of the
// other dynamic schemes and keep allocs/op at 0 (the estimator lives in
// the arena, not the heap).
func BenchmarkRunORA(b *testing.B) {
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		b.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(1)
	sampler := exectime.NewSampler(src)
	arena := core.NewArena()
	var res core.RunResult
	cfg := core.RunConfig{Scheme: core.ORA, Deadline: d, Sampler: sampler}
	if err := plan.RunInto(cfg, arena, &res); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := plan.RunInto(cfg, arena, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeteroPlacement regenerates the schemes × placement-
// policies grid on the big.LITTLE reference platform (the heterogeneous
// subsystem's headline ablation).
func BenchmarkAblationHeteroPlacement(b *testing.B) { benchExperiment(b, "hetero-biglittle") }

// BenchmarkOfflineHeteroPlanATR measures the heterogeneous off-line phase
// — per-class canonical schedules under a placement policy, class
// recording, per-class feasibility — for the ATR application on
// big.LITTLE. Hetero plans go through the process-wide section-schedule
// cache like homogeneous ones (keyed by platform mix, placement and
// `@class` tags), so after the first iteration this is the warm-compile
// cost.
func BenchmarkOfflineHeteroPlanATR(b *testing.B) {
	g := workload.ATR(workload.DefaultATRConfig())
	hp := power.BigLittle()
	ov := power.DefaultOverheads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewHeteroPlan(g, hp, ov, sim.EnergyGreedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunHeteroAS is the steady-state heterogeneous on-line run
// (class-pinned dispatch, per-class level tables, per-processor energy
// accounting) through a warmed arena. allocs/op must stay at 0: the
// per-class policy state lives in the arena.
func BenchmarkRunHeteroAS(b *testing.B) {
	plan, err := core.NewHeteroPlan(workload.ATR(workload.DefaultATRConfig()),
		power.BigLittle(), power.DefaultOverheads(), sim.EnergyGreedy)
	if err != nil {
		b.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(1)
	sampler := exectime.NewSampler(src)
	arena := core.NewArena()
	var res core.RunResult
	cfg := core.RunConfig{Scheme: core.AS, Deadline: d, Sampler: sampler}
	if err := plan.RunInto(cfg, arena, &res); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		if err := plan.RunInto(cfg, arena, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScaling measures the ByOrder engine across section
// sizes and processor counts (layered sections, 4-wide layers).
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, m := range []int{2, 8} {
			b.Run(fmt.Sprintf("tasks=%d/procs=%d", n, m), func(b *testing.B) {
				plat := power.Transmeta5400()
				tasks := make([]*sim.Task, n)
				for i := range tasks {
					t := &sim.Task{Name: "t", WorkW: 5e6, WorkA: 4e6, Order: i, LFT: 10}
					if i >= 4 {
						t.Preds = []int{i - 4}
						tasks[i-4].Succs = append(tasks[i-4].Succs, i)
					}
					tasks[i] = t
				}
				cfg := sim.Config{Hetero: machine(plat, m), Mode: sim.ByOrder}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(cfg, tasks); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
			})
		}
	}
}

// BenchmarkOfflinePlanRandomLarge measures the off-line phase on a larger
// randomly generated application.
func BenchmarkOfflinePlanRandomLarge(b *testing.B) {
	opts := andor.DefaultRandomOpts()
	opts.MaxStages = 6
	opts.MaxWidth = 6
	g := workload.Random(17, opts)
	plat := power.Transmeta5400()
	ov := power.DefaultOverheads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlan(g, 4, plat, ov); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Len()), "nodes")
}

// BenchmarkStreamATR measures sustained frame-stream throughput (frames
// simulated per second of wall clock) under adaptive speculation.
func BenchmarkStreamATR(b *testing.B) {
	plan, err := core.NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		b.Fatal(err)
	}
	const frames = 200
	src := exectime.NewSource(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.RunStream(core.StreamConfig{
			Scheme: core.AS, Period: plan.CTWorst / 0.6, Frames: frames,
			Sampler: exectime.NewSampler(src.Fork()), CarryLevels: true,
		})
		if err != nil || res.DeadlineMisses != 0 {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkEngineSection measures the raw ByOrder engine on a
// 64-task AND-parallel section across 4 processors.
func BenchmarkEngineSection(b *testing.B) {
	plat := power.Transmeta5400()
	const n = 64
	tasks := make([]*sim.Task, n)
	for i := range tasks {
		t := &sim.Task{Name: "t", WorkW: 5e6, WorkA: 4e6, Order: i}
		if i >= 4 {
			t.Preds = []int{i - 4}
			tasks[i-4].Succs = append(tasks[i-4].Succs, i)
		}
		t.LFT = 1 // ample
		tasks[i] = t
	}
	cfg := sim.Config{Hetero: machine(plat, 4), Mode: sim.ByOrder}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, tasks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "tasks/run")
}

// BenchmarkEngineSectionArena is BenchmarkEngineSection through a warmed
// sim.Arena — the raw engine's zero-allocation steady state.
func BenchmarkEngineSectionArena(b *testing.B) {
	plat := power.Transmeta5400()
	const n = 64
	tasks := make([]*sim.Task, n)
	for i := range tasks {
		t := &sim.Task{Name: "t", WorkW: 5e6, WorkA: 4e6, Order: i, LFT: 1}
		if i >= 4 {
			t.Preds = []int{i - 4}
			tasks[i-4].Succs = append(tasks[i-4].Succs, i)
		}
		tasks[i] = t
	}
	cfg := sim.Config{Hetero: machine(plat, 4), Mode: sim.ByOrder}
	arena := sim.NewArena()
	if _, err := arena.Run(&cfg, tasks); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arena.Run(&cfg, tasks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "tasks/run")
}

// BenchmarkEngineTracerOverhead compares the engine with observability
// disabled (the nil-tracer default), with a recording collector, and with a
// live metrics registry, on the same workload as BenchmarkEngineSection.
// The disabled case pays only one nil comparison per hook point, so "off"
// must stay within 2% of BenchmarkEngineSection. Measured on the CI
// container (linux/amd64, Xeon 2.10GHz, -benchtime 2s, median of 8):
//
//	EngineSection  ~5.9µs/op  19 allocs/op   (baseline, no hooks exercised)
//	off            ~6.0µs/op  19 allocs/op   (within run-to-run noise: in
//	                                          alternating isolated runs "off"
//	                                          beats the baseline as often as
//	                                          it trails it)
//	collector      ~10.2µs/op               (records 128 events per run)
//	metrics        ~13µs/op                 (atomic counters + histograms)
//
// Re-run with `go test -bench='EngineSection$|TracerOverhead' -count=10`
// when touching the dispatch loop.
func BenchmarkEngineTracerOverhead(b *testing.B) {
	plat := power.Transmeta5400()
	const n = 64
	tasks := make([]*sim.Task, n)
	for i := range tasks {
		t := &sim.Task{Name: "t", WorkW: 5e6, WorkA: 4e6, Order: i, LFT: 1}
		if i >= 4 {
			t.Preds = []int{i - 4}
			tasks[i-4].Succs = append(tasks[i-4].Succs, i)
		}
		tasks[i] = t
	}
	base := sim.Config{Hetero: machine(plat, 4), Mode: sim.ByOrder}

	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(base, tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collector", func(b *testing.B) {
		b.ReportAllocs()
		col := obs.NewCollector()
		cfg := base
		cfg.Tracer = col
		for i := 0; i < b.N; i++ {
			col.Reset()
			if _, err := sim.Run(cfg, tasks); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(col.Len()), "events/run")
	})
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		cfg := base
		cfg.Metrics = obs.NewMetrics()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(cfg, tasks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeRun measures one warmed POST /v1/run request through the
// full service stack — middleware, plan cache hit, worker-pool dispatch,
// arena-backed simulation, JSON response — the steady-state request the
// andord daemon serves. Allocations are the per-request HTTP/encoding
// cost only; the simulation itself is allocation-free (see
// serve.TestWorkerRunZeroAlloc).
func BenchmarkServeRun(b *testing.B) {
	s := serve.New(serve.Config{Workers: 1, QueueSize: 8})
	defer s.Close()
	body := `{"workload":"atr","scheme":"GSS","seed":1,"load":0.5}`
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if code := do(); code != http.StatusOK { // compile the plan, warm the worker
		b.Fatalf("status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// benchRecorder is a minimal reusable ResponseWriter: unlike
// httptest.NewRecorder-per-iteration (see BenchmarkServeRun), its header
// map and body buffer survive across requests, so allocs/op counts the
// server's own per-request cost only.
type benchRecorder struct {
	hdr    http.Header
	body   strings.Builder
	status int
}

func (r *benchRecorder) Header() http.Header { return r.hdr }
func (r *benchRecorder) WriteHeader(c int)   { r.status = c }
func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// BenchmarkServeBatch measures POST /v1/batch carrying batchItems
// single-run items through the warmed service stack, reporting the
// amortized per-item cost (ns/item). One request pays one admission, one
// JSON decode and one response for the whole batch, and items execute in
// per-worker chunks across the pool, so ns/item must sit well below a
// warmed sequential /v1/run request (BenchmarkServeRunWarm); the target
// is 5×. Measured on the CI container (linux/amd64, Xeon 2.10GHz, ONE
// CPU, -benchtime 2s):
//
//	ServeRunWarm  ~12.6µs/request = ~10.2µs service overhead + ~2.4µs
//	              simulation (the raw arena run of the atr/GSS item)
//	ServeBatch    ~4.7µs/item     = ~2.3µs amortized overhead + the same
//	              ~2.4µs simulation
//
// Batching cuts the per-item service overhead ~4.5× (10.2µs → 2.3µs,
// dominated by encoding/json decode+encode of the item lines; admission,
// routing and pool dispatch amortize to noise). The wall-clock ratio on
// this 1-CPU box is 2.7× because the irreducible simulation term — which
// batching cannot amortize — is serialized; with the pool's default
// GOMAXPROCS workers on m ≥ 4 real cores that term divides by m and the
// end-to-end ratio clears 5×.
func BenchmarkServeBatch(b *testing.B) {
	const batchItems = 100
	s := serve.New(serve.Config{Workers: 0, QueueSize: 2 * batchItems})
	defer s.Close()
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i < batchItems; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"workload":"atr","scheme":"GSS","seed":%d,"load":0.5}`, i)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", rd)
	w := &benchRecorder{hdr: make(http.Header, 4)}
	do := func() int {
		rd.Reset(body)
		w.body.Reset()
		w.status = 0
		s.Handler().ServeHTTP(w, req)
		return w.status
	}
	if code := do(); code != http.StatusOK { // compile the plan, warm the workers
		b.Fatalf("status %d: %s", code, w.body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/batchItems*1e9, "ns/item")
}

// BenchmarkServeRunWarm is BenchmarkServeRun with the test harness hoisted
// out of the measured path: one request object with a rewound body and a
// reusable recorder. With the pooled response encoder the warmed request is
// bounded by request plumbing (timeout context, body limiter, JSON decode)
// rather than response encoding; serve.TestRunRequestWarmAllocs asserts the
// bound.
//
// The NoTrace variant measures the same request with request tracing
// disabled; the pair bounds the tracing overhead (budget: tracing on stays
// within +5% latency and +8 allocs of off — the alloc half is asserted
// deterministically by serve.TestRunRequestWarmAllocs).
func BenchmarkServeRunWarm(b *testing.B) {
	benchServeRunWarm(b, serve.Config{Workers: 1, QueueSize: 8})
}

func BenchmarkServeRunWarmNoTrace(b *testing.B) {
	benchServeRunWarm(b, serve.Config{
		Workers: 1, QueueSize: 8, Trace: serve.TraceConfig{Disabled: true}})
}

func benchServeRunWarm(b *testing.B, cfg serve.Config) {
	s := serve.New(cfg)
	defer s.Close()
	const body = `{"workload":"atr","scheme":"GSS","seed":1,"load":0.5}`
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	w := &benchRecorder{hdr: make(http.Header, 4)}
	do := func() int {
		rd.Reset(body)
		w.body.Reset()
		w.status = 0
		s.Handler().ServeHTTP(w, req)
		return w.status
	}
	if code := do(); code != http.StatusOK { // compile the plan, warm the worker
		b.Fatalf("status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeRunWarmParallel drives warmed /v1/run requests from
// GOMAXPROCS closed-loop clients against the shared-nothing serve path
// with one pool worker per CPU. A warm key is resolved from the owning
// shard's published snapshot (a lock-free read on the handler goroutine)
// and executed on whichever worker picks it up, so with -cpu 1,2,4 the
// ns/op column is the per-core scaling table that scripts/bench.sh records
// under "scaling" in BENCH.json (and scripts/loadtest.sh gates end to end
// on multi-core hosts). Tracing is off: the flight recorder's ring is the
// one intentionally shared structure on the request path.
// BenchmarkServeRunChunked measures one warmed 1000-run /v1/run request
// end to end, serial (chunks:1) versus chunked across the pool (chunks
// auto-selected, one per worker with GOMAXPROCS workers). The two variants
// return byte-identical NDJSON bodies (TestChunkedRunDifferential), so the
// serial/chunked ns/op ratio is the request-latency speedup intra-request
// parallelism buys: ~1× on a single-core host (chunking degenerates to
// one chunk), approaching the core count on real multi-core machines —
// scripts/loadtest.sh's chunked stage gates ≥1.8× at 2 cores and ≥3× at 4.
func BenchmarkServeRunChunked(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	for _, variant := range []struct {
		name   string
		chunks int
	}{{"serial", 1}, {"chunked", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			s := serve.New(serve.Config{
				Workers:   procs,
				QueueSize: 4 * procs,
				Trace:     serve.TraceConfig{Disabled: true},
			})
			defer s.Close()
			body := fmt.Sprintf(
				`{"workload":"atr","scheme":"GSS","seed":1,"load":0.5,"runs":1000,"chunks":%d}`,
				variant.chunks)
			rd := strings.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
			w := &benchRecorder{hdr: make(http.Header, 4)}
			do := func() int {
				rd.Reset(body)
				w.body.Reset()
				w.status = 0
				s.Handler().ServeHTTP(w, req)
				return w.status
			}
			if code := do(); code != http.StatusOK {
				b.Fatalf("status %d: %s", code, w.body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := do(); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}

func BenchmarkServeRunWarmParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	s := serve.New(serve.Config{
		QueueSize: 4 * procs,
		Trace:     serve.TraceConfig{Disabled: true},
	})
	defer s.Close()
	const body = `{"workload":"atr","scheme":"GSS","seed":1,"load":0.5}`
	{
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
		w := &benchRecorder{hdr: make(http.Header, 4)}
		s.Handler().ServeHTTP(w, req) // compile the plan, publish the snapshot
		if w.status != http.StatusOK {
			b.Fatalf("warmup status %d: %s", w.status, w.body.String())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
		w := &benchRecorder{hdr: make(http.Header, 4)}
		for pb.Next() {
			rd.Reset(body)
			w.body.Reset()
			w.status = 0
			s.Handler().ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Errorf("status %d", w.status)
				return
			}
		}
	})
}

// BenchmarkServeTextChurn measures the plan-cache miss path of .andor text
// requests: single-run /v1/run requests cycle round-robin over twice as
// many distinct random applications as the default plan cache holds, so
// after the first cycle every request finds its text in the text memo,
// misses the plan cache, parses, compiles and evicts. B/op and allocs/op
// are the per-miss garbage the collector has to clear. The bodies quote
// the text with %q, which escapes no '>'; the Marshal variant spells it as
// json.Marshal and HTTP clients do, with \u003e escapes.
func BenchmarkServeTextChurn(b *testing.B) {
	benchServeText(b, textBodies(256, func(text string) string { return fmt.Sprintf("%q", text) }))
}

func BenchmarkServeTextChurnMarshal(b *testing.B) {
	benchServeText(b, textBodies(256, marshalText))
}

// BenchmarkServeTextHit measures a warm .andor text request, spelled as
// json.Marshal spells it: the text memo and the plan cache both hit, so
// nothing is parsed or compiled, and B/op is the garbage a warm text
// request leaves.
func BenchmarkServeTextHit(b *testing.B) {
	benchServeText(b, textBodies(1, marshalText))
}

// textBodies renders single-run /v1/run bodies for n distinct random
// applications, quoting each text with quote.
func textBodies(n int, quote func(string) string) []string {
	bodies := make([]string, n)
	for i := range bodies {
		text := andor.FormatText(workload.Random(uint64(i+1), andor.DefaultRandomOpts()))
		bodies[i] = fmt.Sprintf(`{"text":%s,"scheme":"GSS","seed":%d}`, quote(text), i)
	}
	return bodies
}

func marshalText(text string) string {
	q, err := json.Marshal(text)
	if err != nil {
		panic(err)
	}
	return string(q)
}

// benchServeText cycles round-robin over bodies on a one-worker server
// with the default plan cache of 128 plans, after one warm-up cycle.
func benchServeText(b *testing.B, bodies []string) {
	s := serve.New(serve.Config{
		Workers: 1, QueueSize: 8, CacheSize: 128,
		Trace: serve.TraceConfig{Disabled: true},
	})
	defer s.Close()
	rd := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	w := &benchRecorder{hdr: make(http.Header, 4)}
	do := func(i int) {
		rd.Reset(bodies[i%len(bodies)])
		w.body.Reset()
		w.status = 0
		s.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.body.String())
		}
	}
	for i := range bodies {
		do(i) // memoize every text and fill the plan cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(i)
	}
}
