package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
)

// BatchRequest carries many small run requests in one HTTP round trip, so
// N Monte-Carlo experiments cost one connection, one admission decision
// and one response instead of N of each.
type BatchRequest struct {
	// Items are independent run requests (same shape as /v1/run bodies);
	// each item's runs (default 1) aggregate into its summary line rather
	// than streaming rows.
	Items []RunRequest `json:"items"`
}

// BatchItemResult is one item's line in the NDJSON response: either an
// execution summary (Error empty) or a per-item failure. Item indexes
// refer to the request's items array; lines are emitted in item order.
type BatchItemResult struct {
	Item  int    `json:"item"`
	Error string `json:"error,omitempty"`
	// The remaining fields mirror RunSummary for a successful item.
	Runs           int     `json:"runs,omitempty"`
	Scheme         string  `json:"scheme,omitempty"`
	DeadlineS      float64 `json:"deadline_s,omitempty"`
	MeanEnergyJ    float64 `json:"mean_energy_j,omitempty"`
	MeanFinishS    float64 `json:"mean_finish_s,omitempty"`
	MaxFinishS     float64 `json:"max_finish_s,omitempty"`
	DeadlineMisses int     `json:"deadline_misses,omitempty"`
	LSTViolations  int     `json:"lst_violations,omitempty"`
	SpeedChanges   int     `json:"speed_changes,omitempty"`
	// Per-class energy means, heterogeneous items only (see RunSummary).
	MeanClassGrossJ []float64 `json:"mean_class_gross_j,omitempty"`
	MeanClassIdleJ  []float64 `json:"mean_class_idle_j,omitempty"`
}

// BatchSummary is the trailing line of a batch response; its presence is
// the completeness marker clients (and loadgen) already rely on for
// /v1/run streams.
type BatchSummary struct {
	Summary bool `json:"summary"`
	Items   int  `json:"items"`
	OK      int  `json:"ok"`
	Errors  int  `json:"errors"`
	Runs    int  `json:"runs"`
}

// batchSeedBase seeds the derivation of per-item default seeds: item i of
// a batch whose items omit their seed runs with exectime.SeedAt(
// batchSeedBase, i). Fixed so seedless batches are reproducible across
// processes; arbitrary otherwise.
const batchSeedBase = 0x8f1c_33d9_5b24_a6e7

// batchItem is one item after validation: ready to execute, or already
// failed with its error line.
type batchItem struct {
	plan   *core.Plan
	peeked bool // plan hit by peek, credited by the executing worker
	cfg    core.RunConfig
	runs   int
	seed   uint64
	res    BatchItemResult
}

// handleBatch executes every item of the request across the worker pool
// and answers one NDJSON stream of per-item summaries plus a trailing
// batch summary. The whole batch passes tenant admission once (charging
// the sum of its items' runs), then items are executed in parallel with
// blocking pool submission — an admitted batch rides out queue contention
// instead of failing partway. Item-level application errors (bad scheme,
// infeasible deadline, unknown workload) become per-item error lines, not
// request failures; request-level errors (malformed JSON, size/count/run
// caps, admission) keep their usual statuses.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req BatchRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.batchItems.Add(int64(len(req.Items)))
	totalRuns := 0
	for i := range req.Items {
		runs := req.Items[i].Runs
		if runs == 0 {
			runs = 1
		}
		if runs < 1 || runs > s.cfg.MaxRuns {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item %d: runs %d outside [1, %d]", i, runs, s.cfg.MaxRuns))
			return
		}
		totalRuns += runs
		if totalRuns > s.cfg.MaxRuns {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch totals more than %d runs", s.cfg.MaxRuns))
			return
		}
	}
	release, ok := s.admit(w, r, totalRuns)
	if !ok {
		return
	}
	defer release()

	// Resolve every item up front: scheme, plan (through the cache, so a
	// batch of one workload compiles once) and deadline. Failures become
	// the item's line; the rest of the batch proceeds.
	items := make([]batchItem, len(req.Items))
	for i := range req.Items {
		it := &items[i]
		it.res.Item = i
		spec := &req.Items[i]
		schemeName := spec.Scheme
		if schemeName == "" {
			schemeName = "GSS"
		}
		scheme, err := core.ParseScheme(schemeName)
		if err != nil {
			it.res.Error = err.Error()
			continue
		}
		plan, peeked, apiErr := s.planFor(r.Context(), &spec.AppSpec)
		if apiErr != nil {
			if apiErr.status == http.StatusServiceUnavailable {
				// A compile timeout is a request-level condition (the batch's
				// context is gone), not an item defect.
				s.writeError(w, apiErr.status, apiErr.msg)
				return
			}
			it.res.Error = apiErr.msg
			continue
		}
		deadline, apiErr := resolveDeadline(plan, spec.Deadline, spec.Load)
		if apiErr != nil {
			it.res.Error = apiErr.msg
			continue
		}
		it.plan, it.peeked = plan, peeked
		// The sampler is bound per worker at execution time; here only the
		// scheme, deadline and worst-case mode are fixed.
		it.cfg = core.RunConfig{Scheme: scheme, Deadline: deadline, WorstCase: spec.Worst}
		it.runs = spec.Runs
		if it.runs == 0 {
			it.runs = 1
		}
		it.seed = spec.Seed
		if it.seed == 0 {
			// Items that do not pick a seed get distinct, deterministic
			// per-item defaults. Sharing /v1/run's literal default (0) across
			// the batch made every seedless item replay one random stream:
			// a batch of "independent" replications silently returned N
			// copies of the same experiment. (Seed 0 therefore cannot be
			// requested explicitly in a batch item; any other value is used
			// verbatim, and resubmitting the same batch reproduces the same
			// per-item streams.)
			it.seed = exectime.SeedAt(batchSeedBase, uint64(i))
		}
	}

	// Execute in parallel across the pool. Items are striped into one
	// chunk per worker — one pool job per chunk, not per item — so the
	// dispatch cost (goroutine, queue round-trip, completion channel) is
	// paid ~workers times per batch instead of ~items times. Blocking
	// submission keeps an admitted batch from failing on transient queue
	// pressure.
	valid := make([]*batchItem, 0, len(items))
	for i := range items {
		if items[i].plan != nil {
			valid = append(valid, &items[i])
		}
	}
	chunks := s.pool.Workers()
	if chunks > len(valid) {
		chunks = len(valid)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		executed int64
	)
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(valid)/chunks, (c+1)*len(valid)/chunks
		chunk := valid[lo:hi]
		chunkUnits := int64(0)
		for _, it := range chunk {
			chunkUnits += int64(it.runs)
		}
		wg.Add(1)
		go func(chunk []*batchItem, chunkUnits int64) {
			defer wg.Done()
			err := s.pool.submit(r.Context(), anyWorker, true, chunkUnits, func(ctx context.Context, wk *Worker) {
				done := int64(0)
				defer func() {
					mu.Lock()
					executed += done
					mu.Unlock()
				}()
				for _, it := range chunk {
					if ctx.Err() != nil {
						return // request-level failure, handled below
					}
					if it.peeked {
						wk.pw.hits.Add(1)
					}
					var mc core.MCStats
					err := monteCarloOn(ctx, wk, it.plan, it.cfg, it.seed, 0, it.runs,
						func(_ int, res *core.RunResult) error {
							mc.Observe(res)
							return nil
						})
					done += int64(mc.Done)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						it.res.Error = err.Error()
						continue
					}
					sum := mcSummary(&mc, it.cfg)
					it.res = BatchItemResult{
						Item: it.res.Item, Runs: sum.Runs, Scheme: sum.Scheme,
						DeadlineS: sum.DeadlineS, MeanEnergyJ: sum.MeanEnergyJ,
						MeanFinishS: sum.MeanFinishS, MaxFinishS: sum.MaxFinishS,
						DeadlineMisses: sum.DeadlineMisses, LSTViolations: sum.LSTViolations,
						SpeedChanges:    sum.SpeedChanges,
						MeanClassGrossJ: sum.MeanClassGrossJ, MeanClassIdleJ: sum.MeanClassIdleJ,
					}
				}
			}, nil)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(chunk, chunkUnits)
	}
	wg.Wait()
	s.runs.Add(executed)
	if err := r.Context().Err(); err != nil {
		// The batch's own deadline expired (or the client left) mid-flight;
		// nothing has been written, so report it properly.
		s.writeError(w, http.StatusServiceUnavailable, "batch timed out before completing")
		return
	}
	if firstErr != nil {
		s.checkPoolErr(w, firstErr)
		return
	}

	// All items settled: encode the lines in item order, then the
	// completeness marker, and commit the 200 with the whole body known. An
	// item whose summary JSON cannot carry (a non-finite mean) becomes
	// that item's error line.
	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	defer rec.RecordOffset(PhaseEncode, t0, 0)
	jb := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(jb)
	jb.buf.Reset()
	sum := BatchSummary{Summary: true, Items: len(items)}
	for i := range items {
		res := &items[i].res
		if res.Error == "" {
			if jb.enc.Encode(res) == nil {
				sum.OK++
				sum.Runs += res.Runs
				continue
			}
			*res = BatchItemResult{Item: res.Item, Error: errNonFinite.Error()}
		}
		sum.Errors++
		_ = jb.enc.Encode(res) // an item number and an error string always encode
	}
	_ = jb.enc.Encode(sum)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(jb.buf.Bytes())
}
