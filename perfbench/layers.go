package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
)

// layerMetric is one per-layer metric of the traced run. Every traced run
// prints all of them; a metric of a layer the workload does not exercise
// reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"serve.decode_us", "us"}, {"serve.admit_us", "us"}, {"serve.cache_us", "us"},
	{"serve.compile_us", "us"}, {"serve.queue_us", "us"}, {"serve.exec_us", "us"},
	{"serve.exec_mc_us", "us"}, {"serve.encode_us", "us"}, {"serve.transport_us", "us"},
	{"serve.unattributed_us", "us"}, {"serve.server_mean_us", "us"}, {"serve.client_mean_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_evictions_per_kreq", "count"},
	{"serve.schedcache_hit_ratio", "ratio"}, {"serve.exec_mc_ns_per_run", "ns"},
	{"serve.ndjson_share", "ratio"},
	{"andor.parse_us", "us"}, {"andor.format_us", "us"}, {"andor.decompose_us", "us"},
	{"core.compile_cold_us", "us"}, {"core.compile_warm_us", "us"}, {"core.run_us", "us"},
	{"core.sections_per_run", "count"}, {"core.or_resolves_per_run", "count"},
	{"sim.events_per_run", "count"}, {"sim.speed_changes_per_run", "count"},
	{"exectime.sample_ns_per_task", "ns"},
	{"experiments.fig4a_s", "s"}, {"experiments.fig6a_s", "s"},
	{"experiments.hetero_biglittle_s", "s"}, {"experiments.harness_share", "ratio"},
	{"obs.trace_overhead_us", "us"}, {"bench.gen_lateness_p99_us", "us"},
}

// phasePriority resolves overlapping server spans to the innermost one, so
// nested spans count once: compile sits inside cache and exec, exec.mc and
// a chunk's queue wait inside the handler's fan-out exec span.
var phasePriority = map[string]int{
	"compile": 7, "exec.mc": 6, "queue": 5, "exec": 4, "cache": 3, "admit": 2, "decode": 1, "encode": 1,
}

var budgetPhases = []string{"decode", "admit", "cache", "compile", "queue", "exec", "exec.mc", "encode"}

// selfTimes splits one request trace's duration among its phases: every
// instant goes to the highest-priority span covering it. The remainder is
// time no span covers.
func selfTimes(t obs.RequestTrace) (self map[string]float64, covered float64) {
	self = map[string]float64{}
	cuts := []float64{0, t.DurationUS}
	for _, s := range t.Spans {
		cuts = append(cuts, s.StartUS, s.StartUS+s.DurUS)
	}
	sort.Float64s(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a < 0 || b > t.DurationUS || b <= a {
			continue
		}
		best, bestP := "", 0
		for _, s := range t.Spans {
			if s.StartUS <= a && s.StartUS+s.DurUS >= b && phasePriority[s.Phase] > bestP {
				best, bestP = s.Phase, phasePriority[s.Phase]
			}
		}
		if best != "" {
			self[best] += b - a
			covered += b - a
		}
	}
	return self, covered
}

// budget is the layer budget of the traced requests joined with their
// client-side round trips.
type budget struct {
	n              int
	self           map[string]float64 // mean self time per request, µs
	server, client float64            // mean server duration and client RTT, µs
	unattributed   float64
	mcNsPerRun     float64
	ndjsonShare    float64
	histServer     float64            // serve.http.latency_seconds mean over the whole traced phase, µs
	histPhase      map[string]float64 // phase histogram sum ÷ requests, µs
	histReq        float64
}

func layerBudget(traces []obs.RequestTrace, rtt map[string]int64, before, after map[string]float64) budget {
	b := budget{self: map[string]float64{}, histPhase: map[string]float64{}}
	var mcNs, mcRuns, encode, execAll float64
	for _, t := range traces {
		r, ok := rtt[t.TraceID]
		if !ok {
			continue
		}
		self, covered := selfTimes(t)
		for p, v := range self {
			b.self[p] += v
		}
		b.n++
		b.server += t.DurationUS
		b.client += float64(r) / 1e3
		b.unattributed += t.DurationUS - covered
		multi := false
		for _, s := range t.Spans {
			if s.Phase == "exec.mc" {
				mcNs += s.DurUS * 1e3
				mcRuns += float64(s.N)
				multi = multi || s.N > 1
			}
		}
		if multi && t.Endpoint == "/v1/run" {
			encode += self["encode"]
			execAll += self["encode"] + self["exec"] + self["exec.mc"]
		}
	}
	if b.n > 0 {
		for p := range b.self {
			b.self[p] /= float64(b.n)
		}
		b.server /= float64(b.n)
		b.client /= float64(b.n)
		b.unattributed /= float64(b.n)
	}
	if mcRuns > 0 {
		b.mcNsPerRun = mcNs / mcRuns
	}
	if execAll > 0 {
		b.ndjsonShare = encode / execAll
	}
	b.histReq = counterDelta(before, after, "serve_http_latency_seconds_count")
	if b.histReq > 0 {
		b.histServer = counterDelta(before, after, "serve_http_latency_seconds_sum") / b.histReq * 1e6
		for _, p := range budgetPhases {
			k := `{phase="` + p + `"}`
			b.histPhase[p] = counterDelta(before, after, "serve_phase_latency_seconds_sum"+k) / b.histReq * 1e6
		}
	}
	return b
}

// report renders the budget so its rows visibly add up to the client mean.
func (b budget) report() []string {
	out := []string{fmt.Sprintf("layer budget over %d traced requests joined with their client round trips (µs per request):", b.n)}
	sum := 0.0
	for _, p := range budgetPhases {
		out = append(out, fmt.Sprintf("  %-13s %9.2f   (phase histogram mean %9.2f, nested spans included)", p, b.self[p], b.histPhase[p]))
		sum += b.self[p]
	}
	transport := b.client - b.server
	out = append(out,
		fmt.Sprintf("  %-13s %9.2f   (client round trip - server duration)", "transport", transport),
		fmt.Sprintf("  %-13s %9.2f   (server duration no span covers)", "unattributed", b.unattributed),
		fmt.Sprintf("  %-13s %9.2f   = traced client mean %.2f", "sum", sum+transport+b.unattributed, b.client),
		fmt.Sprintf("  server mean %.2f over these requests; serve.http.latency_seconds mean %.2f over all %.0f traced requests",
			b.server, b.histServer, b.histReq))
	return out
}

// spanRec is one benchmark-side span around a call into a layer's public
// API. Spans stay in memory and are written when the run ends.
type spanRec struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
}

type tracer struct {
	t0    time.Time
	spans []spanRec
	sum   map[string]time.Duration
	calls map[string]int
}

// maxKeptSpans bounds the spans written out; aggregates cover every call.
const maxKeptSpans = 50000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]time.Duration{}, calls: map[string]int{}}
}

// span times fn as one span named name covering `calls` calls.
func (tr *tracer) span(name string, calls int, fn func()) {
	s := time.Now()
	fn()
	tr.add(name, calls, s, time.Since(s))
}

// add books a span measured by the caller.
func (tr *tracer) add(name string, calls int, s time.Time, d time.Duration) {
	tr.sum[name] += d
	tr.calls[name] += calls
	if len(tr.spans) < maxKeptSpans {
		tr.spans = append(tr.spans, spanRec{Name: name, Ph: "X", TS: s.Sub(tr.t0).Microseconds(), Dur: d.Microseconds(), PID: 1, TID: 1})
	}
}

// meanUS is the mean time per call of the named span, µs.
func (tr *tracer) meanUS(name string) float64 {
	if tr.calls[name] == 0 {
		return 0
	}
	return tr.sum[name].Seconds() * 1e6 / float64(tr.calls[name])
}

// write dumps the spans as a Chrome trace_event file.
func (tr *tracer) write(path string) error {
	b, err := json.Marshal(map[string]any{"traceEvents": tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// eventCounter counts the simulator's structured events.
type eventCounter struct{ events, speedChanges int }

func (c *eventCounter) Event(e obs.Event) {
	c.events++
	if e.Kind == obs.EvSpeedChange {
		c.speedChanges++
	}
}

// probeRun is one in-process replay of a request: plan, scheme and seed.
type probeRun struct {
	app    *app
	scheme core.Scheme
	seed   uint64
}

// replayLayers replays a workload's applications and runs in-process,
// timing the public call of each layer, for about `budget`.
func replayLayers(tr *tracer, runs []probeRun, budget time.Duration) (map[string]float64, error) {
	d := newDeriver()
	var apps []*app
	seen := map[app]bool{}
	for _, r := range runs {
		if !seen[*r.app] {
			seen[*r.app] = true
			apps = append(apps, r.app)
		}
	}
	type appState struct {
		g    *andor.Graph
		text string
		plan *core.Plan
		sc   *schedcache.Cache
	}
	states := map[app]*appState{}
	for _, a := range apps {
		g, err := d.graph(a)
		if err != nil {
			return nil, err
		}
		p, err := d.plan(a)
		if err != nil {
			return nil, err
		}
		sc := schedcache.New(core.DefaultScheduleCacheCapacity)
		if _, err := compileApp(g, a, sc); err != nil {
			return nil, err
		}
		states[*a] = &appState{g: g, text: andor.FormatText(g), plan: p, sc: sc}
	}

	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	arena := core.NewArena()
	var res core.RunResult
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	deadline := func(p *core.Plan) float64 { return p.CTWorst / 0.5 }

	// Counts come from one instrumented pass; the timed passes run bare.
	reg := obs.NewMetrics()
	ec := &eventCounter{}
	for _, r := range runs {
		st := states[*r.app]
		src.Reseed(r.seed)
		keep(st.plan.RunInto(core.RunConfig{Scheme: r.scheme, Deadline: deadline(st.plan), Sampler: sampler,
			Metrics: reg, Tracer: ec}, arena, &res))
	}
	snap := reg.Snapshot()
	sections, _ := snap.Counter(core.MetricSections)
	resolves, _ := snap.Counter(core.MetricORResolves)

	end := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		for _, a := range apps {
			st := states[*a]
			tr.span("andor.FormatText", 1, func() { st.text = andor.FormatText(st.g) })
			tr.span("andor.ParseText", 1, func() { _, err := andor.ParseText(st.text); keep(err) })
			tr.span("andor.Decompose", 1, func() { _, err := andor.Decompose(st.g); keep(err) })
			tr.span("core.NewPlan(cold)", 1, func() { _, err := compileApp(st.g, a, nil); keep(err) })
			tr.span("core.NewPlan(warm)", 1, func() { _, err := compileApp(st.g, a, st.sc); keep(err) })
			for _, sec := range st.plan.Sections.All {
				var wcet, acet []float64
				for _, n := range sec.Nodes {
					if n.WCET > 0 {
						wcet = append(wcet, n.WCET)
						acet = append(acet, n.ACET)
					}
				}
				if len(wcet) == 0 {
					continue
				}
				dst := make([]float64, len(wcet))
				// 64 calls per span: one call is too short to time alone.
				tr.span("exectime.Sampler.SampleBatch", 64*len(wcet), func() {
					for k := 0; k < 64; k++ {
						sampler.SampleBatch(wcet, acet, dst)
					}
				})
			}
		}
		for _, r := range runs {
			st := states[*r.app]
			src.Reseed(r.seed)
			cfg := core.RunConfig{Scheme: r.scheme, Deadline: deadline(st.plan), Sampler: sampler}
			tr.span("core.Plan.RunInto", 1, func() { keep(st.plan.RunInto(cfg, arena, &res)) })
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	n := float64(len(runs))
	m := map[string]float64{
		"andor.parse_us":            tr.meanUS("andor.ParseText"),
		"andor.format_us":           tr.meanUS("andor.FormatText"),
		"andor.decompose_us":        tr.meanUS("andor.Decompose"),
		"core.compile_cold_us":      tr.meanUS("core.NewPlan(cold)"),
		"core.compile_warm_us":      tr.meanUS("core.NewPlan(warm)"),
		"core.run_us":               tr.meanUS("core.Plan.RunInto"),
		"core.sections_per_run":     float64(sections) / n,
		"core.or_resolves_per_run":  float64(resolves) / n,
		"sim.events_per_run":        float64(ec.events) / n,
		"sim.speed_changes_per_run": float64(ec.speedChanges) / n,
		// The span counts tasks as calls, so its mean is per task.
		"exectime.sample_ns_per_task": tr.meanUS("exectime.Sampler.SampleBatch") * 1e3,
	}
	return m, nil
}

// probeRuns turns a request cycle into in-process replays: runs=1 requests
// as they are, multi-run and compare requests as their first run.
func probeRuns(cycle []*request) []probeRun {
	var out []probeRun
	for _, q := range cycle {
		s := q.scheme
		seed := q.seed
		if q.runs > 1 || q.compare {
			var master exectime.Source
			master.Reseed(q.seed)
			seed = master.Uint64()
		}
		out = append(out, probeRun{app: q.app, scheme: s, seed: seed})
	}
	return out
}

// traceServe is the traced run of a serve workload: an untraced and a
// traced andord serve the same traffic for a third of the time each, the
// traced one's /metrics and flight recorder give the server-side layer
// budget, and the inputs are then replayed in-process.
func traceServe(andord string, w *serveWorkload, seed uint64, seconds float64, tr *tracer) (map[string]float64, []string, *loopResult, error) {
	cycle, warm := w.build(seed)
	if err := expectAll(append(append([]*request{}, cycle...), warm...)); err != nil {
		return nil, nil, nil, err
	}
	book := &loopResult{}
	phase := time.Duration(seconds / 3 * float64(time.Second))
	load := func(addr string, traced bool) *loopResult {
		if w.open {
			return openLoop(addr, cycle, w.burst, w.rate, phase, traced)
		}
		return closedLoop(addr, cycle, w.burst, phase, traced)
	}

	srv, _, err := serveSetup(andord, w, cycle, warm, false, book)
	if err != nil {
		return nil, nil, nil, err
	}
	plain := load(srv.addr, false)
	book.merge(plain)
	if err := srv.stop(); err != nil {
		return nil, nil, nil, err
	}

	srv, _, err = serveSetup(andord, w, cycle, warm, true, book)
	if err != nil {
		return nil, nil, nil, err
	}
	before, err := srv.scrape()
	if err != nil {
		srv.kill()
		return nil, nil, nil, err
	}
	traced := load(srv.addr, true)
	book.merge(traced)
	after, err := srv.scrape()
	if err != nil {
		srv.kill()
		return nil, nil, nil, err
	}
	traces, err := srv.traces(traceRing)
	if err != nil {
		srv.kill()
		return nil, nil, nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, nil, nil, err
	}

	b := layerBudget(traces, traced.traces, before, after)
	m := map[string]float64{
		"serve.transport_us":       b.client - b.server,
		"serve.unattributed_us":    b.unattributed,
		"serve.server_mean_us":     b.server,
		"serve.client_mean_us":     b.client,
		"serve.exec_mc_ns_per_run": b.mcNsPerRun,
		"serve.ndjson_share":       b.ndjsonShare,
		"obs.trace_overhead_us":    traced.meanRTTus() - plain.meanRTTus(),
	}
	for _, p := range budgetPhases {
		name := "serve." + p + "_us"
		if p == "exec.mc" {
			name = "serve.exec_mc_us"
		}
		m[name] = b.self[p]
	}
	hits := counterDelta(before, after, "serve_cache_hits")
	misses := counterDelta(before, after, "serve_cache_misses")
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if b.histReq > 0 {
		m["serve.cache_evictions_per_kreq"] = counterDelta(before, after, "serve_cache_evictions") / b.histReq * 1000
	}
	sh := counterDelta(before, after, "core_schedcache_hits")
	sm := counterDelta(before, after, "core_schedcache_misses")
	if sh+sm > 0 {
		m["serve.schedcache_hit_ratio"] = sh / (sh + sm)
	}
	if w.open {
		late := append(append([]int64(nil), plain.late...), traced.late...)
		if len(late) > 0 {
			m["bench.gen_lateness_p99_us"] = summarize(late).p99 * 1e3
		}
	}
	report := b.report()
	report = append(report, fmt.Sprintf("traced client mean %.2f µs vs untraced %.2f µs (obs.trace_overhead_us %.2f)",
		traced.meanRTTus(), plain.meanRTTus(), m["obs.trace_overhead_us"]))

	layers, err := replayLayers(tr, probeRuns(cycle), phase)
	if err != nil {
		return nil, nil, nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	return m, report, book, nil
}

// traceFigures is the traced run of the figures workload: each figure is
// timed on its own, the figures' plans are replayed in-process, and the
// harness share is what the figure time leaves after its simulated runs.
func traceFigures(seed uint64, seconds float64, tr *tracer) (map[string]float64, []string, *loopResult, error) {
	if err := warmFigures(); err != nil {
		return nil, nil, nil, err
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, nil, nil, err
	}
	book := &loopResult{}
	m := map[string]float64{}
	metricOf := map[string]string{"4a": "experiments.fig4a_s", "6a": "experiments.fig6a_s", "hetero-biglittle": "experiments.hetero_biglittle_s"}
	// Probe apps: the plans each figure simulates (6a's α-rescaled
	// synthetic plans are represented by the unscaled one).
	figApps := map[string][]*app{
		"4a":               {{workload: "atr", platform: "transmeta", procs: 2}},
		"6a":               {{workload: "synthetic", platform: "transmeta", procs: 2}},
		"hetero-biglittle": {{workload: "atr", placement: "fastest-first"}, {workload: "atr", placement: "energy-greedy"}, {workload: "atr", placement: "class-affinity"}},
	}
	paper := []core.Scheme{core.NPM, core.SPM, core.GSS, core.SS1, core.SS2, core.AS}
	r := workloadRand(seed, "figures-trace")
	var report []string
	var simCPU, figCPU float64
	for _, id := range figureIDs {
		var times []float64
		var runs int64
		end := time.Now().Add(time.Duration(seconds / 6 * float64(time.Second)))
		for k := 0; k < 5 || time.Now().Before(end); k++ {
			s := time.Now()
			figSeed := 1 + uint64(k%figureSeeds)
			digest, n, err := regenerate(id, figSeed)
			d := time.Since(s)
			book.attempted++
			if err != nil || digest != goldenOf(golden, id, figSeed) {
				book.failed++
				book.failures = append(book.failures, fmt.Sprintf("figure %s seed %d: digest %s, err %v", id, figSeed, digest, err))
			}
			tr.add("experiments."+id, 1, s, d)
			times = append(times, d.Seconds())
			runs = n
		}
		figS := median(times)
		m[metricOf[id]] = figS
		var pr []probeRun
		for i := 0; i < 256; i++ {
			apps := figApps[id]
			pr = append(pr, probeRun{app: apps[i%len(apps)], scheme: paper[i%len(paper)], seed: r.Uint64()})
		}
		sub := newTracer()
		layers, err := replayLayers(sub, pr, time.Duration(seconds/12*float64(time.Second)))
		if err != nil {
			return nil, nil, nil, err
		}
		for k, v := range layers {
			m[k] += v / float64(len(figureIDs))
		}
		simCPU += float64(runs) * layers["core.run_us"] / 1e6
		figCPU += figS * float64(senders)
		report = append(report, fmt.Sprintf("figure %-16s median %.4f s over %d regenerations, %d simulated runs each at %.2f µs per run",
			id, figS, len(times), runs, layers["core.run_us"]))
		for k, v := range sub.sum {
			tr.sum[k] += v
			tr.calls[k] += sub.calls[k]
		}
		tr.spans = append(tr.spans, sub.spans...)
	}
	m["experiments.harness_share"] = 1 - simCPU/figCPU
	report = append(report, fmt.Sprintf("harness share %.3f: 1 - (runs x core.run_us) / (figure time x %d workers)", m["experiments.harness_share"], senders))
	return m, report, book, nil
}
