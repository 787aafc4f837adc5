package serve

// Metric names registered by the server in its obs.Metrics registry and
// exported at GET /metrics (Prometheus text format; dots become
// underscores there, see obs.WritePrometheus).
const (
	// MetricRequests counts HTTP requests received (counter).
	MetricRequests = "serve.http.requests"
	// MetricErrors counts requests answered with a 4xx/5xx status
	// (counter). Queue rejections are counted separately.
	MetricErrors = "serve.http.errors"
	// MetricPanics counts handler panics recovered (counter).
	MetricPanics = "serve.http.panics"
	// MetricRejections counts requests rejected with 429 — by a full
	// admission queue or by per-tenant admission control (counter).
	MetricRejections = "serve.http.rejections"
	// MetricTenantRejections counts the subset of rejections made by
	// per-tenant admission control: rate limits, concurrency quotas and
	// run budgets, including never-satisfiable asks answered 400 (counter).
	MetricTenantRejections = "serve.tenant.rejections"
	// MetricBatchItems counts items carried by /v1/batch requests
	// (counter), admitted or not per item; compare with MetricRuns for the
	// executed work.
	MetricBatchItems = "serve.batch.items"
	// MetricLatency is the request latency histogram in seconds.
	MetricLatency = "serve.http.latency_seconds"
	// MetricPhaseLatency is the per-phase latency histogram family in
	// seconds, labeled {phase="..."} with the phase constants below. Each
	// series carries a trace-ID exemplar (OpenMetrics scrapes only) linking
	// its worst recent observation to /debug/requests/{traceID}.
	MetricPhaseLatency = "serve.phase.latency_seconds"
	// MetricQueueDepth is the admission queue's current depth (gauge).
	MetricQueueDepth = "serve.queue.depth"
	// MetricQueueAge is the age of the oldest queued job in seconds
	// (gauge), refreshed by the shared stats snapshot (scrapes, /healthz,
	// /debug/requests). Zero when the queue is empty.
	MetricQueueAge = "serve.queue.age_seconds"
	// MetricRuns counts simulated application executions performed
	// (counter): one per run of a /v1/run request, one per scheme per run
	// of a /v1/compare request.
	MetricRuns = "serve.runs"
	// MetricCacheHits counts plan-cache lookups that found an entry
	// (counter); a request queued behind an owner's compile of the same
	// key counts as a hit. A peek hit is counted by the worker that
	// executes the request.
	MetricCacheHits = "serve.cache.hits"
	// MetricCacheMisses counts plan-cache lookups that triggered a compile
	// (counter).
	MetricCacheMisses = "serve.cache.misses"
	// MetricCacheEvictions counts LRU evictions (counter).
	MetricCacheEvictions = "serve.cache.evictions"
	// MetricCacheSize is the number of cached plans (gauge).
	MetricCacheSize = "serve.cache.size"

	// MetricSchedCacheHits, MetricSchedCacheMisses and
	// MetricSchedCacheEvictions sum the workers' section-schedule cache
	// shards' monotonic counters; they are refreshed on each /metrics
	// scrape, and exported as gauges because the underlying counters reset
	// when a cache is resized.
	MetricSchedCacheHits      = "core.schedcache.hits"
	MetricSchedCacheMisses    = "core.schedcache.misses"
	MetricSchedCacheEvictions = "core.schedcache.evictions"
	// MetricSchedCacheSize is the section-schedule cache's current entry
	// count (gauge).
	MetricSchedCacheSize = "core.schedcache.size"

	// MetricGCCycles and MetricAllocBytes are the process's cumulative
	// completed GC cycles and heap bytes allocated, read from
	// runtime/metrics at scrape time (gauges, so they add nothing to the
	// request path). The growth of either between two scrapes, divided by
	// the growth of MetricRequests, is the GC cycles or bytes per request.
	MetricGCCycles   = "serve.runtime.gc_cycles"
	MetricAllocBytes = "serve.runtime.alloc_bytes"
)

// Phase names used for request trace spans and the MetricPhaseLatency
// label values. Spans with these names are recorded by the middleware,
// the handlers, the plan cache path and the worker pool; see
// docs/OBSERVABILITY.md for the span model.
const (
	// PhaseDecode is request-body JSON decoding.
	PhaseDecode = "decode"
	// PhaseAdmit is the per-tenant admission decision.
	PhaseAdmit = "admit"
	// PhaseCache is the plan-cache lookup; its detail is "hit" or "miss",
	// and on a miss the span contains the compile (PhaseCompile) it ran.
	PhaseCache = "cache"
	// PhaseCompile is an off-line plan compilation (core.NewPlan) executed
	// by this request (requests queued behind it record a cache hit
	// instead).
	PhaseCompile = "compile"
	// PhaseQueue is the wait from pool submission to worker pickup. A job
	// cancelled while queued still records it (with no PhaseExec).
	PhaseQueue = "queue"
	// PhaseExec is a worker's execution of one pool job; Monte-Carlo
	// requests add one handler-side "fan-out" exec span around all their
	// chunk jobs.
	PhaseExec = "exec"
	// PhaseExecMC is one Monte-Carlo loop within a job; its n is the number
	// of runs completed. Run chunks and batch items record one each,
	// concurrently.
	PhaseExecMC = "exec.mc"
	// PhaseEncode is response encoding, always outside the workers (JSON
	// responses, run and batch NDJSON emission).
	PhaseEncode = "encode"
)

// phaseNames lists every phase the server records, in pipeline order; New
// pre-resolves their histogram series so the completion path takes no
// registry lock.
var phaseNames = []string{
	PhaseDecode, PhaseAdmit, PhaseCache, PhaseCompile,
	PhaseQueue, PhaseExec, PhaseExecMC, PhaseEncode,
}

// Per-tenant counters are exported as gauges named
// "serve.tenant.<id>.admitted|rejected|inflight|runs", refreshed from the
// limiter on each /metrics scrape. The <id> segment is the tenant key
// squeezed to the metric charset by sanitizeTenant; the set of exported
// tenants is bounded by the limiter's MaxTenants LRU (gauges of evicted
// tenants stop updating but remain in the registry until restart).
func tenantMetricName(id, counter string) string {
	return "serve.tenant." + sanitizeTenant(id) + "." + counter
}

// sanitizeTenant maps a tenant key ("key:...", "ip:...") onto metric-name
// safe characters, truncated to keep pathological keys from bloating the
// exposition.
func sanitizeTenant(id string) string {
	const maxLen = 48
	b := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(b) < maxLen; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// latencyBuckets are the request-latency histogram bounds in seconds.
var latencyBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5, 5,
}
