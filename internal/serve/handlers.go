package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/obs"
)

// planFor resolves spec to its compiled plan. A warm key is found by a
// counter-free peek at the owning shard's published view (a lock-free
// read of one bucket); peeked reports such a hit, which the caller credits in-job to the
// worker executing the request (wk.pw.hits), so the warm path writes no
// counter another goroutine writes. A cold key is resolved by routePlan,
// which first parses any text the memo let resolveApp skip.
func (s *Server) planFor(ctx context.Context, spec *AppSpec) (plan *core.Plan, peeked bool, apiErr *apiError) {
	ra, apiErr := s.resolveApp(spec)
	if apiErr != nil {
		return nil, false, apiErr
	}
	if plan, ok := s.pool.planPeek(ra.key); ok {
		obs.TraceFromContext(ctx).MarkDetail(PhaseCache, "hit")
		return plan, true, nil
	}
	plan, _, apiErr = s.routePlan(ctx, ra)
	return plan, false, apiErr
}

// routePlan resolves ra in its owner's shard with a blocking submit routed
// to homeFor(ra.key), compiling on a miss; the owner counts its own hit or
// miss. The owner queue serializes compiles for its keys, so
// duplicate-compile suppression falls out of the routing: a request that
// queued behind an in-flight compile of the same key finds it done. Text
// the memo left unparsed is parsed here, on the caller's goroutine, so the
// owner queue does no more work than a compile.
func (s *Server) routePlan(ctx context.Context, ra resolvedApp) (*core.Plan, bool, *apiError) {
	if apiErr := ra.parseDeferred(); apiErr != nil {
		return nil, false, apiErr
	}
	var plan *core.Plan
	var hit bool
	var err error
	submitErr := s.pool.submit(ctx, s.pool.homeFor(ra.key), true, 1, func(ctx context.Context, wk *Worker) {
		rec := obs.TraceFromContext(ctx)
		plan, hit, err = wk.OwnerPlan(ra.key, func(sched *schedcache.Cache) (*core.Plan, error) {
			tc := rec.SinceStart()
			defer rec.RecordOffset(PhaseCompile, tc)
			return buildPlan(ra, sched)
		})
		if hit {
			rec.MarkDetail(PhaseCache, "hit")
		} else {
			rec.MarkDetail(PhaseCache, "miss")
		}
	}, nil)
	if jp, ok := submitErr.(*jobPanic); ok {
		panic(jp)
	}
	switch {
	case errors.Is(submitErr, context.DeadlineExceeded) || errors.Is(submitErr, context.Canceled):
		return nil, false, errf(http.StatusServiceUnavailable, "timed out waiting for plan compile")
	case submitErr != nil:
		return nil, false, errf(http.StatusServiceUnavailable, "plan compile unavailable: %v", submitErr)
	case err != nil:
		// Compile failures are application problems (invalid graph,
		// non-positive procs): the client's fault.
		return nil, false, errf(http.StatusBadRequest, "plan: %v", err)
	}
	return plan, hit, nil
}

// buildPlan compiles ra's plan against the given section-schedule cache
// shard. A plan-cache miss on a graph whose sections were seen before
// (same structure at a different procs/platform, or an evicted plan) then
// skips the canonical simulations.
func buildPlan(ra resolvedApp, sched *schedcache.Cache) (*core.Plan, error) {
	if ra.hp != nil {
		return core.NewHeteroPlanWithCache(ra.g, ra.hp, ra.key.ov, ra.place, sched)
	}
	plat, err := parsePlatformMemo(ra.key.platform)
	if err != nil {
		return nil, err
	}
	return core.NewPlanWithCache(ra.g, ra.key.procs, plat, ra.key.ov, sched)
}

// handlePlan compiles (or fetches) a plan and returns its summary.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct{ AppSpec }
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	// Compiles are the most expensive thing a client can ask for; they sit
	// behind tenant admission like runs do (charging zero run tokens).
	release, ok := s.admit(w, r, 0)
	if !ok {
		return
	}
	defer release()
	// /v1/plan runs no job a peek hit could be credited in, so it
	// resolves on the shard owner directly, which counts the hit itself.
	ra, apiErr := s.resolveApp(&req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	plan, hit, apiErr := s.routePlan(r.Context(), ra)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	resp := PlanResponse{
		App:         plan.Graph.Name,
		Nodes:       plan.Graph.Len(),
		Sections:    plan.NumSections(),
		Paths:       plan.Sections.NumPaths(),
		Procs:       plan.Procs,
		CTWorst:     plan.CTWorst,
		CTAvg:       plan.CTAvg,
		MinDeadline: plan.MinDeadline(),
		Cached:      hit,
	}
	if plan.Platform == nil {
		resp.Platform = plan.Hetero.Name
		resp.Levels = plan.Hetero.MaxLevels()
		resp.Classes = plan.Hetero.NumClasses()
		resp.Placement = plan.Placement.Name()
	} else {
		resp.Platform = plan.Platform.Name
		resp.Levels = plan.Platform.NumLevels()
	}
	s.writeJSONTraced(w, r, http.StatusOK, resp)
}

// fillRow writes one run's result into row, reusing row.Path.
func fillRow(row *RunRow, run int, res *core.RunResult) {
	row.Run = run
	row.Scheme = res.Scheme.String()
	row.DeadlineS = res.Deadline
	row.FinishS = res.Finish
	row.MetDeadline = res.MetDeadline
	row.EnergyJ = res.Energy()
	row.ActiveJ = res.ActiveEnergy
	row.OverheadJ = res.OverheadEnergy
	row.IdleJ = res.IdleEnergy
	row.SpeedChanges = res.SpeedChanges
	// Heterogeneous runs carry per-class breakdowns; identical-processor
	// results have nil slices and the append keeps the row's nil (the
	// fields stay omitted and the warm identical-processor path stays
	// allocation-free).
	row.ClassGrossJ = append(row.ClassGrossJ[:0], res.ClassGrossEnergy...)
	row.ClassIdleJ = append(row.ClassIdleJ[:0], res.ClassIdleEnergy...)
	row.Path = row.Path[:0]
	for _, c := range res.Path {
		row.Path = append(row.Path, c.Branch)
	}
}

// mcSummary renders an accumulated Monte-Carlo experiment as the stream's
// trailing summary row.
func mcSummary(mc *core.MCStats, cfg core.RunConfig) RunSummary {
	rs := RunSummary{
		Summary: true, Runs: mc.Done, Scheme: cfg.Scheme.String(), DeadlineS: cfg.Deadline,
		MeanEnergyJ: mc.Energy.Mean(), MeanFinishS: mc.Finish.Mean(), MaxFinishS: mc.Finish.Max(),
		DeadlineMisses: mc.Misses, LSTViolations: mc.LSTViolations, SpeedChanges: mc.SpeedChanges,
	}
	rs.MeanClassGrossJ, rs.MeanClassIdleJ = mc.ClassMeans()
	return rs
}

// runState is one /v1/run request's reusable state: the decoded request
// and its text buffer, and, for a single run, the pool job's inputs and
// outputs. handleRun takes one from runStatePool and puts it back when it
// is done, so a warm single run allocates none of these. exec is run
// bound once, so submitting it allocates no closure either.
type runState struct {
	req  RunRequest
	text []byte // backs req.rawText
	exec func(context.Context, *Worker)

	plan   *core.Plan
	peeked bool
	cfg    core.RunConfig
	row    RunRow
	runErr error
}

var runStatePool = sync.Pool{New: func() any {
	rs := new(runState)
	rs.exec = rs.run
	return rs
}}

// run is a single run's pool job.
func (rs *runState) run(_ context.Context, wk *Worker) {
	if rs.peeked {
		wk.pw.hits.Add(1)
	}
	cfg := rs.cfg
	if !cfg.WorstCase {
		cfg.Sampler = wk.Sampler
	}
	// A single run draws its random stream from the seed itself.
	wk.Src.Reseed(rs.req.Seed)
	if rs.runErr = rs.plan.RunInto(cfg, wk.Arena, &wk.Res); rs.runErr == nil {
		fillRow(&rs.row, 0, &wk.Res)
	}
}

// release empties rs and puts it back in the pool, unless its text buffer
// or row path grew past what the pool retains.
func (rs *runState) release() {
	rs.req, rs.plan, rs.cfg, rs.runErr = RunRequest{}, nil, core.RunConfig{}, nil
	if cap(rs.text) <= jsonBufMaxRetained && 8*cap(rs.row.Path) <= jsonBufMaxRetained {
		runStatePool.Put(rs)
	}
}

// handleRun executes an application once (JSON response) or runs=N times
// (NDJSON: one row per run, then a summary row). The simulation itself
// runs on pool workers' arenas, which also encode a Monte-Carlo request's
// rows; this handler decodes, resolves the plan, reduces the summary and
// writes the response.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	rs := runStatePool.Get().(*runState)
	defer rs.release()
	req := &rs.req
	if apiErr := s.decodeRun(r, rs); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	schemeName := req.Scheme
	if schemeName == "" {
		schemeName = "GSS"
	}
	scheme, err := core.ParseScheme(schemeName)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	runs := req.Runs
	if runs == 0 {
		runs = 1
	}
	if runs < 1 || runs > s.cfg.MaxRuns {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("runs %d outside [1, %d]", runs, s.cfg.MaxRuns))
		return
	}
	if req.Chunks < 0 || req.Chunks > maxRunChunks {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunks %d outside [0, %d]", req.Chunks, maxRunChunks))
		return
	}
	release, ok := s.admit(w, r, runs)
	if !ok {
		return
	}
	defer release()
	plan, peeked, apiErr := s.planFor(r.Context(), &req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	deadline, apiErr := resolveDeadline(plan, req.Deadline, req.Load)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	cfg := core.RunConfig{Scheme: scheme, Deadline: deadline, WorstCase: req.Worst}
	if runs > 1 {
		s.runMonteCarlo(w, r, plan, peeked, cfg, runs, req.Seed,
			chunkCount(runs, s.pool.Workers(), req.Chunks, minRunsPerChunk))
		return
	}

	rs.plan, rs.peeked, rs.cfg = plan, peeked, cfg
	if !s.checkPoolErr(w, s.pool.submit(r.Context(), anyWorker, false, 1, rs.exec, nil)) {
		return
	}
	if rs.runErr != nil {
		s.writeError(w, http.StatusInternalServerError, rs.runErr.Error())
		return
	}
	s.runs.Inc()
	s.writeRowTraced(w, r, &rs.row)
}

// handleCompare runs every requested scheme over the same random numbers
// and reports energies normalized to NPM.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req CompareRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	schemes := make([]core.Scheme, 0, 9)
	if len(req.Schemes) == 0 || (len(req.Schemes) == 1 && req.Schemes[0] == "all") {
		schemes = append(schemes, core.Schemes...)
		schemes = append(schemes, core.ExtendedSchemes...)
	} else {
		for _, name := range req.Schemes {
			sc, err := core.ParseScheme(name)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			schemes = append(schemes, sc)
		}
	}
	runs := req.Runs
	if runs == 0 {
		runs = 200
	}
	// Divide rather than multiply: runs*len(schemes) can wrap negative.
	if runs < 1 || runs > s.cfg.MaxRuns/len(schemes) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("runs %d × %d schemes exceeds the limit of %d total executions",
				runs, len(schemes), s.cfg.MaxRuns))
		return
	}
	if req.Chunks < 0 || req.Chunks > maxRunChunks {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunks %d outside [0, %d]", req.Chunks, maxRunChunks))
		return
	}
	// A compare costs one NPM baseline plus one run per scheme per frame.
	release, ok := s.admit(w, r, runs*(len(schemes)+1))
	if !ok {
		return
	}
	defer release()
	plan, peeked, apiErr := s.planFor(r.Context(), &req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	deadline, apiErr := resolveDeadline(plan, req.Deadline, req.Load)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	// Each frame costs one NPM baseline plus one run per scheme, so the
	// per-chunk floor is correspondingly lower than /v1/run's.
	minFrames := minRunsPerChunk / (len(schemes) + 1)
	if minFrames < 8 {
		minFrames = 8
	}
	s.runCompare(w, r, plan, peeked, schemes, deadline, runs, req.Seed,
		chunkCount(runs, s.pool.Workers(), req.Chunks, minFrames))
}

// checkPoolErr maps the failure of a pool submission or of the work it
// ran onto a response; true means the work completed and the caller
// should proceed. Pool failures are capacity conditions (429, 503); a job
// that panicked is re-raised here, on the handler goroutine, for the
// middleware to answer and count; any other error is a simulation failure
// (500).
func (s *Server) checkPoolErr(w http.ResponseWriter, err error) bool {
	if jp, ok := err.(*jobPanic); ok {
		panic(jp)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueFull):
		s.writeRateLimited(w, s.pool.RetryAfter(), "server at capacity, retry later")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusServiceUnavailable, "request timed out")
	case errors.Is(err, ErrPoolClosed):
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errNonFinite):
		writeEncodeFailed(w)
	default:
		s.writeError(w, http.StatusInternalServerError, err.Error())
	}
	return false
}

// handleHealthz reports liveness plus basic capacity numbers, refreshed
// through the same snapshot path the other read endpoints use.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.refreshStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.cfg.Workers,
		"queue_capacity": s.cfg.QueueSize,
		"in_flight":      s.pool.InFlight(),
		"queue_age_s":    s.pool.OldestQueueAge().Seconds(),
		"cached_plans":   s.pool.CachedPlans(),
		"tenants":        s.limiter.Len(),
	})
}

// handleMetrics exposes the registry in the Prometheus text exposition
// (0.0.4) or, when the Accept header asks for it, OpenMetrics — the only
// format in which exemplars (trace IDs on the phase histograms' +Inf
// buckets) are valid. Gauges sourced outside the registry (schedule
// cache, tenants, queue) are refreshed via the shared snapshot first. The
// body is rendered through the pooled-encoder buffer so a scrape neither
// allocates per line nor streams an error-prone partial response.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshStats()
	snap := s.metrics.Snapshot()
	b := jsonBufPool.Get().(*jsonBuf)
	b.buf.Reset()
	var err error
	contentType := "text/plain; version=0.0.4; charset=utf-8"
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		contentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		err = obs.WriteOpenMetrics(&b.buf, snap)
	} else {
		err = obs.WritePrometheus(&b.buf, snap)
	}
	defer putJSONBuf(b)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b.buf.Bytes())
}

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format (the way Prometheus does when exemplar scraping
// is on).
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}
