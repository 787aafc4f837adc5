package serve

import (
	"net/http"
	"runtime/metrics"
	"strconv"

	"andorsched/internal/obs"
)

// refreshStats re-derives every gauge whose source of truth lives outside
// the registry — the section-schedule cache (summed across worker shards),
// the per-tenant admission counters, the pool's queue depth/age, and the
// runtime's GC cycle and allocation totals — and folds the per-worker
// plan-shard counters into the registry's plan-cache instruments. It runs
// on every read path that reports this state (/metrics, /healthz,
// /debug/requests), so a server that is never scraped still answers them
// consistently. This is the only place worker-local cache counters meet
// shared state: request execution never pays for metrics aggregation.
func (s *Server) refreshStats() {
	st := s.pool.SchedCacheStats()
	s.metrics.Gauge(MetricSchedCacheHits).Set(float64(st.Hits))
	s.metrics.Gauge(MetricSchedCacheMisses).Set(float64(st.Misses))
	s.metrics.Gauge(MetricSchedCacheEvictions).Set(float64(st.Evictions))
	s.metrics.Gauge(MetricSchedCacheSize).Set(float64(st.Size))
	s.mergePlanStats()
	for _, ts := range s.limiter.Snapshot() {
		s.metrics.Gauge(tenantMetricName(ts.Tenant, "admitted")).Set(float64(ts.Admitted))
		s.metrics.Gauge(tenantMetricName(ts.Tenant, "rejected")).Set(float64(ts.Rejected))
		s.metrics.Gauge(tenantMetricName(ts.Tenant, "inflight")).Set(float64(ts.Inflight))
		s.metrics.Gauge(tenantMetricName(ts.Tenant, "runs")).Set(float64(ts.Runs))
	}
	s.metrics.Gauge(MetricQueueDepth).Set(float64(s.pool.QueueDepth()))
	s.metrics.Gauge(MetricQueueAge).Set(s.pool.OldestQueueAge().Seconds())
	rt := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(rt)
	s.metrics.Gauge(MetricGCCycles).Set(float64(rt[0].Value.Uint64()))
	s.metrics.Gauge(MetricAllocBytes).Set(float64(rt[1].Value.Uint64()))
}

// mergePlanStats credits the growth of the merged per-worker plan-shard
// counters since the last merge to the registry's monotonic plan-cache
// counters. A merge racing the Close-time graveyard fold can transiently
// observe a total below lastMerged (a worker counter already zeroed, its
// graveyard credit not yet visible); such deltas are skipped without
// advancing the high-water mark, so the next merge catches up and nothing
// is lost or double-counted.
func (s *Server) mergePlanStats() {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := s.pool.PlanCacheStats()
	if d := st.Hits - s.lastMerged.Hits; d > 0 {
		s.metrics.Counter(MetricCacheHits).Add(d)
		s.lastMerged.Hits = st.Hits
	}
	if d := st.Misses - s.lastMerged.Misses; d > 0 {
		s.metrics.Counter(MetricCacheMisses).Add(d)
		s.lastMerged.Misses = st.Misses
	}
	if d := st.Evictions - s.lastMerged.Evictions; d > 0 {
		s.metrics.Counter(MetricCacheEvictions).Add(d)
		s.lastMerged.Evictions = st.Evictions
	}
	s.metrics.Gauge(MetricCacheSize).Set(float64(st.Size))
}

// DebugRequests is the GET /debug/requests response: the flight
// recorder's recent ring (newest first) and the slowest retained traces
// per endpoint, plus the pool state a slow trace usually implicates.
type DebugRequests struct {
	Recent     []obs.RequestTrace            `json:"recent"`
	Slowest    map[string][]obs.RequestTrace `json:"slowest"`
	InFlight   int                           `json:"in_flight"`
	QueueDepth int                           `json:"queue_depth"`
	QueueAgeS  float64                       `json:"queue_age_s"`
	// SpansDropped counts, over the recorder's lifetime, spans that
	// overflowed some trace's fixed span array (each trace also reports
	// its own dropped_spans, but evicted traces take that with them). A
	// steadily growing total means traces here are routinely incomplete —
	// fan-out (chunked runs, large batches) writing more phases than the
	// per-trace budget holds.
	SpansDropped int64 `json:"spans_dropped_total"`
}

// handleDebugRequests serves the flight recorder's contents as JSON.
// ?limit=N bounds the recent list (default 32).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		s.writeError(w, http.StatusNotFound, "request tracing is disabled")
		return
	}
	s.refreshStats()
	limit := 32
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, DebugRequests{
		Recent:       s.flight.Recent(limit),
		Slowest:      s.flight.Slowest(),
		InFlight:     s.pool.InFlight(),
		QueueDepth:   s.pool.QueueDepth(),
		QueueAgeS:    s.pool.OldestQueueAge().Seconds(),
		SpansDropped: s.flight.DroppedSpans(),
	})
}

// handleDebugRequest serves one retained trace by ID — as JSON, or as
// Chrome trace_event JSON (open in chrome://tracing or Perfetto) with
// ?format=chrome.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		s.writeError(w, http.StatusNotFound, "request tracing is disabled")
		return
	}
	id := r.PathValue("traceID")
	rt, ok := s.flight.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no retained trace with that ID (evicted or never seen)")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rt)
	case "chrome":
		data, err := obs.ChromeTraceRequest(rt)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace-`+rt.TraceID+`.json"`)
		_, _ = w.Write(data)
	default:
		s.writeError(w, http.StatusBadRequest, "format must be json or chrome")
	}
}
