package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"andorsched/internal/andor"
	"andorsched/internal/cli"
	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/serve"
	"andorsched/internal/stats"
	"andorsched/internal/workload"
)

// app identifies one plan-cache key as a client spells it: a builtin
// workload or an application text, on a homogeneous platform or on the
// big.LITTLE reference platform with a placement policy.
type app struct {
	workload  string // "atr" or "synthetic"; empty when text is set
	text      string // .andor application text
	platform  string
	procs     int
	placement string // non-empty selects hetero "biglittle"
}

// appSpec renders the app's fields of a request body.
func (a *app) appSpec(b *bytes.Buffer) {
	if a.text != "" {
		b.WriteString(`"text":`)
		t, _ := json.Marshal(a.text)
		b.Write(t)
	} else {
		b.WriteString(`"workload":"` + a.workload + `"`)
	}
	if a.placement != "" {
		b.WriteString(`,"hetero":"biglittle","placement":"` + a.placement + `"`)
		return
	}
	b.WriteString(`,"platform":"` + a.platform + `","procs":` + strconv.Itoa(a.procs))
}

// request is one pre-rendered HTTP request plus everything needed to check
// its answer.
type request struct {
	path     string
	body     []byte
	wire     []byte
	app      *app
	scheme   core.Scheme
	seed     uint64
	runs     int    // the request's runs field (frames for compare)
	compare  bool   // /v1/compare over all schemes
	credit   int64  // what a successful answer adds to serve.runs
	expect   uint64 // digest of the in-process answer
	violates bool   // the in-process answer breaks Theorem 1
}

var allSchemes = append(append([]core.Scheme{}, core.Schemes...), core.ExtendedSchemes...)

func newRunRequest(a *app, scheme core.Scheme, seed uint64, runs int) *request {
	var b bytes.Buffer
	b.WriteByte('{')
	a.appSpec(&b)
	b.WriteString(`,"scheme":"` + scheme.String() + `","seed":` + strconv.FormatUint(seed, 10))
	if runs > 1 {
		b.WriteString(`,"runs":` + strconv.Itoa(runs))
	}
	b.WriteByte('}')
	return finish(&request{path: "/v1/run", body: b.Bytes(), app: a, scheme: scheme, seed: seed, runs: runs})
}

func newCompareRequest(a *app, seed uint64, frames int) *request {
	var b bytes.Buffer
	b.WriteByte('{')
	a.appSpec(&b)
	b.WriteString(`,"schemes":["all"],"runs":` + strconv.Itoa(frames) + `,"seed":` + strconv.FormatUint(seed, 10) + `}`)
	return finish(&request{path: "/v1/compare", body: b.Bytes(), app: a, seed: seed, runs: frames, compare: true})
}

func finish(q *request) *request {
	// serve.runs counts one per run, and for compare one per scheme per
	// frame plus the frame's NPM baseline.
	q.credit = int64(q.runs)
	if q.compare {
		q.credit *= int64(len(allSchemes) + 1)
	}
	q.wire = []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: andord\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		q.path, len(q.body), q.body))
	return q
}

// deriver recomputes answers in-process through the public core API, the
// way andord computes them, so every response can be compared byte for
// byte.
type deriver struct {
	graphs  map[string]*andor.Graph
	plans   map[app]*core.Plan
	arena   *core.Arena
	src     *exectime.Source
	sampler *exectime.Sampler
	res     core.RunResult
	base    core.RunResult
}

func newDeriver() *deriver {
	src := exectime.NewSource(0)
	return &deriver{
		graphs: map[string]*andor.Graph{}, plans: map[app]*core.Plan{},
		arena: core.NewArena(), src: src, sampler: exectime.NewSampler(src),
	}
}

// graph returns the app's application graph, parsing texts as andord does.
func (d *deriver) graph(a *app) (*andor.Graph, error) {
	k := a.workload
	if a.text != "" {
		k = "text:" + a.text
	}
	if g, ok := d.graphs[k]; ok {
		return g, nil
	}
	var g *andor.Graph
	var err error
	switch {
	case a.text != "":
		g, err = andor.ParseText(a.text)
	case a.workload == "atr":
		g = workload.ATR(workload.DefaultATRConfig())
	case a.workload == "synthetic":
		g = workload.Synthetic()
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		return nil, err
	}
	d.graphs[k] = g
	return g, nil
}

// plan compiles the app's plan once.
func (d *deriver) plan(a *app) (*core.Plan, error) {
	if p, ok := d.plans[*a]; ok {
		return p, nil
	}
	g, err := d.graph(a)
	if err != nil {
		return nil, err
	}
	p, err := compileApp(g, a, nil)
	if err != nil {
		return nil, err
	}
	d.plans[*a] = p
	return p, nil
}

// schedCache is a section-schedule cache handed to the off-line phase.
type schedCache = *schedcache.Cache

// compileApp runs the off-line phase for a against an explicit section
// schedule cache (nil disables it).
func compileApp(g *andor.Graph, a *app, sc schedCache) (*core.Plan, error) {
	ov := power.DefaultOverheads()
	if a.placement != "" {
		place, err := cli.ParsePlacement(a.placement)
		if err != nil {
			return nil, err
		}
		return core.NewHeteroPlanWithCache(g, power.BigLittle(), ov, place, sc)
	}
	plat, err := cli.ParsePlatform(a.platform)
	if err != nil {
		return nil, err
	}
	return core.NewPlanWithCache(g, a.procs, plat, ov, sc)
}

// fillRow mirrors the serve layer's row rendering of one run.
func fillRow(row *serve.RunRow, run int, res *core.RunResult) {
	*row = serve.RunRow{
		Run: run, Scheme: res.Scheme.String(), DeadlineS: res.Deadline, FinishS: res.Finish,
		MetDeadline: res.MetDeadline, EnergyJ: res.Energy(), ActiveJ: res.ActiveEnergy,
		OverheadJ: res.OverheadEnergy, IdleJ: res.IdleEnergy, SpeedChanges: res.SpeedChanges,
		ClassGrossJ: append([]float64(nil), res.ClassGrossEnergy...),
		ClassIdleJ:  append([]float64(nil), res.ClassIdleEnergy...),
	}
	for _, c := range res.Path {
		row.Path = append(row.Path, c.Branch)
	}
}

// answer computes the exact response body andord owes q, and whether it
// breaks Theorem 1 (a deadline miss or a latest-start-time violation).
func (d *deriver) answer(q *request) ([]byte, bool, error) {
	plan, err := d.plan(q.app)
	if err != nil {
		return nil, false, err
	}
	deadline := plan.CTWorst / 0.5 // andord's default load
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	violates := false
	run := func(scheme core.Scheme, seed uint64, res *core.RunResult) error {
		d.src.Reseed(seed)
		err := plan.RunInto(core.RunConfig{Scheme: scheme, Deadline: deadline, Sampler: d.sampler}, d.arena, res)
		if err == nil && (!res.MetDeadline || res.LSTViolations > 0) {
			violates = true
		}
		return err
	}
	switch {
	case q.compare:
		norm := make([]stats.Acc, len(allSchemes))
		chg := make([]stats.Acc, len(allSchemes))
		missed := make([]int, len(allSchemes))
		var npm stats.Acc
		var master exectime.Source
		master.Reseed(q.seed)
		for f := 0; f < q.runs; f++ {
			s := master.Uint64()
			if err := run(core.NPM, s, &d.base); err != nil {
				return nil, false, err
			}
			npm.Add(d.base.Energy())
			for i, sc := range allSchemes {
				if err := run(sc, s, &d.res); err != nil {
					return nil, false, err
				}
				norm[i].Add(d.res.Energy() / d.base.Energy())
				chg[i].Add(float64(d.res.SpeedChanges))
				if !d.res.MetDeadline {
					missed[i]++
				}
			}
		}
		resp := serve.CompareResponse{App: plan.Graph.Name, Runs: q.runs, DeadlineS: deadline, NPMEnergyJ: npm.Mean()}
		for i, sc := range allSchemes {
			resp.Schemes = append(resp.Schemes, serve.CompareScheme{
				Scheme: sc.String(), MeanNormEnergy: norm[i].Mean(), CI95: norm[i].CI95(),
				MeanSpeedChanges: chg[i].Mean(), DeadlineMisses: missed[i],
			})
		}
		err = enc.Encode(resp)
	case q.runs <= 1:
		if err := run(q.scheme, q.seed, &d.res); err != nil {
			return nil, false, err
		}
		var row serve.RunRow
		fillRow(&row, 0, &d.res)
		err = enc.Encode(row)
	default:
		var mc core.MCStats
		var master exectime.Source
		master.Reseed(q.seed)
		var row serve.RunRow
		for i := 0; i < q.runs; i++ {
			if err := run(q.scheme, master.Uint64(), &d.res); err != nil {
				return nil, false, err
			}
			fillRow(&row, i, &d.res)
			if err := enc.Encode(row); err != nil {
				return nil, false, err
			}
			mc.Observe(&d.res)
		}
		sum := serve.RunSummary{
			Summary: true, Runs: mc.Done, Scheme: q.scheme.String(), DeadlineS: deadline,
			MeanEnergyJ: mc.Energy.Mean(), MeanFinishS: mc.Finish.Mean(), MaxFinishS: mc.Finish.Max(),
			DeadlineMisses: mc.Misses, LSTViolations: mc.LSTViolations, SpeedChanges: mc.SpeedChanges,
		}
		sum.MeanClassGrossJ, sum.MeanClassIdleJ = mc.ClassMeans()
		if sum.DeadlineMisses > 0 || sum.LSTViolations > 0 {
			violates = true
		}
		err = enc.Encode(sum)
	}
	if err != nil {
		return nil, false, err
	}
	return out.Bytes(), violates, nil
}

// expectAll derives every distinct request's answer digest.
func expectAll(reqs []*request) error {
	d := newDeriver()
	for _, q := range reqs {
		body, bad, err := d.answer(q)
		if err != nil {
			return fmt.Errorf("re-derive %s %s: %w", q.path, q.body, err)
		}
		q.expect, q.violates = digest(body), bad
	}
	return nil
}
