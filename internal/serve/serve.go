// Package serve exposes the scheduler as a long-running HTTP/JSON service:
// the off-line phase (core.NewPlan) runs once per distinct application and
// is memoized in per-worker plan-cache shards — each key owned by one
// worker, which compiles it once and publishes it for lock-free reads —
// while on-line executions run on a bounded worker pool whose workers each
// own a core.Arena and a reseedable exectime source: the steady-state
// request path is the same zero-allocation machinery (core.MonteCarlo,
// core.CompareFrames) the experiment harness uses.
//
// Endpoints:
//
//	POST /v1/plan     compile (or fetch) a plan, return its summary
//	POST /v1/run      execute an application once, or runs=N times with
//	                  NDJSON row streaming and a trailing summary
//	POST /v1/batch    execute many small run requests in one round trip,
//	                  answered as NDJSON per-item summaries
//	POST /v1/compare  compare schemes under common random numbers
//	GET  /healthz     liveness + basic capacity numbers
//	GET  /metrics     Prometheus text exposition of the obs registry
//
// Robustness: per-request timeouts, request body size limits, input
// validation mapped to 400s, a bounded admission queue answering 429 with
// a Retry-After derived from queue depth and the observed drain rate,
// optional per-tenant admission control (token-bucket rate limits,
// concurrency quotas and run budgets — see the tenant package), panic
// recovery, and graceful drain on Shutdown (in-flight requests complete,
// the listener closes first). See docs/SERVER.md.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"andorsched/internal/obs"
	"andorsched/internal/serve/tenant"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the admission queue (default 64). When the queue is
	// full, requests are rejected with 429.
	QueueSize int
	// CacheSize bounds the plan cache (default 128 plans, split evenly
	// across the workers' shards).
	CacheSize int
	// RequestTimeout bounds each request end to end (default 15s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxRuns bounds the runs of a single /v1/run or /v1/compare request
	// (default 100000).
	MaxRuns int
	// MaxProcs bounds the procs a request may ask for (default 64).
	MaxProcs int
	// MaxBatchItems bounds the items of a single /v1/batch request
	// (default 256). The total runs of a batch are separately bounded by
	// MaxRuns.
	MaxBatchItems int
	// Tenant configures per-client admission control (rate limits,
	// concurrency quotas, run budgets). The zero value disables it.
	Tenant tenant.Config
	// Trace configures request-scoped tracing and the flight recorder. The
	// zero value ENABLES tracing with default retention — every request
	// gets an X-Trace-Id and phase spans; set Trace.Disabled to opt out.
	Trace TraceConfig
	// Metrics receives the server's instruments; a fresh registry is
	// created when nil.
	Metrics *obs.Metrics
}

// TraceConfig parameterizes request tracing (see docs/OBSERVABILITY.md).
type TraceConfig struct {
	// Disabled turns request tracing off entirely: no trace IDs, no
	// X-Trace-Id header, no flight recorder (/debug/requests answers 404),
	// no phase histograms. The request path then carries a nil trace
	// record, whose methods collapse to pointer comparisons.
	Disabled bool
	// RingSize is the flight recorder's recent-trace ring capacity
	// (default obs.DefaultFlightRing).
	RingSize int
	// SlowestPerEndpoint is how many slowest traces each endpoint retains
	// beyond the ring (default obs.DefaultFlightSlowest).
	SlowestPerEndpoint int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 100000
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 64
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// Server is the scheduling service. Create with New, expose via Handler
// (for tests or custom listeners) or Serve, stop with
// Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	pool    *Pool // also holds the per-worker plan-cache shards
	texts   *textMemo

	// statsMu guards the merge of per-worker cache counters into the
	// registry's monotonic instruments (refreshStats); lastMerged
	// remembers the totals already credited so each merge adds only the
	// delta. Read paths only — never touched by request execution.
	statsMu    sync.Mutex
	lastMerged PlanCacheStats
	limiter    *tenant.Limiter // nil when admission control is disabled
	mux        *http.ServeMux
	httpSrv    *http.Server
	start      time.Time

	requests    *obs.Counter
	errors      *obs.Counter
	panics      *obs.Counter
	rejections  *obs.Counter
	tenantRejNo *obs.Counter
	runs        *obs.Counter
	batchItems  *obs.Counter
	latency     *obs.Histogram

	// flight retains completed request traces (nil when Trace.Disabled).
	flight *obs.Flight
	// phaseHist maps each known phase to its pre-resolved series of the
	// MetricPhaseLatency family. Built once in New, read-only afterwards.
	phaseHist map[string]*obs.Histogram
}

// New builds a Server from cfg (zero value fine) without binding a port.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := cfg.Metrics
	s := &Server{
		cfg:         cfg,
		metrics:     m,
		pool:        NewPool(cfg.Workers, cfg.QueueSize, cfg.CacheSize),
		texts:       newTextMemo(cfg.CacheSize),
		limiter:     tenant.New(cfg.Tenant),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		requests:    m.Counter(MetricRequests),
		errors:      m.Counter(MetricErrors),
		panics:      m.Counter(MetricPanics),
		rejections:  m.Counter(MetricRejections),
		tenantRejNo: m.Counter(MetricTenantRejections),
		runs:        m.Counter(MetricRuns),
		batchItems:  m.Counter(MetricBatchItems),
		latency:     m.Histogram(MetricLatency, latencyBuckets),
	}
	if !cfg.Trace.Disabled {
		s.flight = obs.NewFlight(cfg.Trace.RingSize, cfg.Trace.SlowestPerEndpoint)
		s.phaseHist = make(map[string]*obs.Histogram, len(phaseNames))
		for _, phase := range phaseNames {
			s.phaseHist[phase] = m.LabeledHistogram(MetricPhaseLatency, "phase", phase, latencyBuckets)
		}
	}
	s.mux.HandleFunc("/v1/plan", s.wrap("/v1/plan", s.handlePlan))
	s.mux.HandleFunc("/v1/run", s.wrap("/v1/run", s.handleRun))
	s.mux.HandleFunc("/v1/batch", s.wrap("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/compare", s.wrap("/v1/compare", s.handleCompare))
	// Introspection endpoints are wrapped (timeout, panic recovery, counts)
	// but not traced: a metrics scraper or debug poll shouldn't churn the
	// flight recorder's ring.
	s.mux.HandleFunc("/healthz", s.wrap("", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.wrap("", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/requests", s.wrap("", s.handleDebugRequests))
	s.mux.HandleFunc("GET /debug/requests/{traceID}", s.wrap("", s.handleDebugRequest))
	return s
}

// Handler returns the server's root handler (middleware included).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// statusWriter captures the response status for the request trace. It
// passes Flush through so NDJSON streaming keeps working behind it. Only
// the handler goroutine writes to it: pool jobs never touch the
// ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusWriterPool recycles statusWriters; the traced request path reuses
// one instead of allocating.
var statusWriterPool = sync.Pool{New: func() any { return &statusWriter{} }}

// wrap is the per-request middleware: counting, latency, panic recovery,
// body size limit, the request timeout, and — for endpoints with a
// non-empty name — request tracing: the trace record starts before the
// handler (adopting an inbound W3C traceparent or generating a fresh
// trace ID, echoed in X-Trace-Id), rides the request context through the
// pipeline collecting phase spans, and lands in the flight recorder and
// the phase histograms afterwards. With tracing disabled (or endpoint "")
// the path is the pre-tracing one: no extra allocations, no header.
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		startReq := time.Now()
		var rec *obs.TraceRec
		var sw *statusWriter
		if endpoint != "" && s.flight != nil {
			rec = s.flight.Start(endpoint, r.Header.Get("Traceparent"), startReq)
			w.Header().Set("X-Trace-Id", rec.ID())
			sw = statusWriterPool.Get().(*statusWriter)
			sw.ResponseWriter, sw.status = w, 0
			w = sw
		}
		defer func() {
			status := 0
			if p := recover(); p != nil {
				s.panics.Inc()
				s.errors.Inc()
				// Best effort: if the handler already wrote, this is a no-op
				// on the status line but still terminates the response.
				http.Error(w, `{"error":"internal server error"}`, http.StatusInternalServerError)
				status = http.StatusInternalServerError
			}
			s.latency.Observe(time.Since(startReq).Seconds())
			if rec != nil {
				if status == 0 {
					if status = sw.status; status == 0 {
						status = http.StatusOK // nothing written: implicit 200
					}
				}
				sw.ResponseWriter = nil
				statusWriterPool.Put(sw)
				s.observePhases(rec)
				s.flight.Finish(rec, status)
			}
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(obs.ContextWithTrace(ctx, rec))
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		h(w, r)
	}
}

// observePhases feeds a completed trace's spans into the per-phase
// latency histograms, offering the trace ID as the exemplar.
func (s *Server) observePhases(rec *obs.TraceRec) {
	// The arrival time stands in for "now" on the exemplar: its only
	// consumers are the 60s retention TTL and the scrape timestamp, both
	// indifferent to a request-duration skew, and it saves a clock read.
	now := rec.StartTime()
	id := rec.ID()
	rec.VisitSpans(func(phase string, _, dur time.Duration, _ string, _ int64) {
		h := s.phaseHist[phase]
		if h == nil {
			// Unknown phase (future producer): resolve through the registry.
			h = s.metrics.LabeledHistogram(MetricPhaseLatency, "phase", phase, latencyBuckets)
		}
		h.ObserveExemplar(dur.Seconds(), id, now)
	})
}

// Serve accepts connections on l until Shutdown or Close. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.Serve(l)
}

// Shutdown drains gracefully: the listener closes (new connections are
// refused), in-flight requests run to completion within ctx, then the
// worker pool stops. Safe to call without a listener (Handler-only use);
// it then just stops the pool.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.pool.Close()
	return err
}

// Close stops the pool without waiting for in-flight HTTP requests. For
// tests that use Handler directly.
func (s *Server) Close() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.pool.Close()
}

// jsonBuf pairs a reusable buffer with an encoder bound to it, pooled so
// the steady-state response path allocates neither. Encoding into the
// buffer (rather than straight to the ResponseWriter) also means an encode
// failure can still become a clean 500 — nothing has been written yet —
// and lets net/http set Content-Length instead of chunking.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{
	New: func() any {
		b := &jsonBuf{}
		b.enc = json.NewEncoder(&b.buf)
		return b
	},
}

// jsonBufMaxRetained bounds the buffers returned to the pool: a rare huge
// response (a long path trace, a wide compare) should not pin its backing
// array for the life of the process.
const jsonBufMaxRetained = 64 << 10

func putJSONBuf(b *jsonBuf) {
	if b.buf.Cap() <= jsonBufMaxRetained {
		jsonBufPool.Put(b)
	}
}

// errNonFinite fails a Monte-Carlo chunk whose row holds a NaN or an
// infinity, which JSON cannot carry; the handler answers it with
// writeEncodeFailed.
var errNonFinite = errors.New("response encoding failed")

// writeEncodeFailed answers a response that could not be encoded (a
// non-finite result). Nothing has been written yet, so it is a clean 500.
func writeEncodeFailed(w http.ResponseWriter) {
	http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(b)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		writeEncodeFailed(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
}

// writeRowTraced answers a single run's row, encoded by appendRow (the
// one definition of a row's wire form) into a pooled buffer, with an
// encode span on the request's trace record.
func (s *Server) writeRowTraced(w http.ResponseWriter, r *http.Request, row *RunRow) {
	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	defer rec.RecordOffset(PhaseEncode, t0, 0)
	b := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(b)
	b.buf.Reset()
	out, ok := appendRow(b.buf.AvailableBuffer(), row)
	if !ok {
		writeEncodeFailed(w)
		return
	}
	b.buf.Write(out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.buf.Bytes())
}

// writeJSONTraced is writeJSON with an encode span on the request's
// trace record.
func (s *Server) writeJSONTraced(w http.ResponseWriter, r *http.Request, status int, v any) {
	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	writeJSON(w, status, v)
	rec.RecordOffset(PhaseEncode, t0, 0)
}

// writeError writes a JSON error body and counts it. 429s go through
// writeRateLimited instead, which owes the client a Retry-After.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.errors.Inc()
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeRateLimited answers 429 with a Retry-After derived from the actual
// schedule that rejected the request — a tenant bucket's refill time or
// the pool's queue-drain estimate — rounded up to whole seconds (the
// header's integer form) with a 1s floor.
func (s *Server) writeRateLimited(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	s.errors.Inc()
	s.rejections.Inc()
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": msg})
}

// admit runs the per-tenant admission decision for a request consuming
// runs simulation runs. It returns a release to defer (always non-nil)
// and whether the request may proceed; on rejection the response has been
// written. With admission control disabled every request passes.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, runs int) (func(), bool) {
	if s.limiter == nil {
		return func() {}, true
	}
	rec := obs.TraceFromContext(r.Context())
	dec, release := s.limiter.Admit(s.limiter.KeyFromRequest(r), runs)
	rec.Mark(PhaseAdmit, dec.Tenant)
	if dec.OK {
		return release, true
	}
	s.tenantRejNo.Inc()
	if dec.Never {
		// No amount of waiting satisfies this ask; a 429 would have the
		// client retry forever.
		s.writeError(w, http.StatusBadRequest, dec.Reason)
		return func() {}, false
	}
	s.writeRateLimited(w, dec.RetryAfter, dec.Reason)
	return func() {}, false
}

// decodeJSON decodes the request body into v, mapping the failure modes
// onto statuses: malformed input → 400, oversized body → 413. The body is
// read into a pooled buffer (readJSON), so a request decodes without a
// json.Decoder or its read buffer.
func (s *Server) decodeJSON(r *http.Request, v any) *apiError {
	rec := obs.TraceFromContext(r.Context())
	defer rec.Mark(PhaseDecode, "")
	b := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(b)
	return s.bodyError(readJSON(&b.buf, r.Body, v))
}

// bodyError maps a body decoding error onto the client's answer; nil
// stays nil.
func (s *Server) bodyError(err error) *apiError {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errTrailingData):
		return errf(http.StatusBadRequest, "%v", err)
	case strings.Contains(err.Error(), "request body too large"):
		return errf(http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
	default:
		return errf(http.StatusBadRequest, "invalid JSON body: %v", err)
	}
}

// errTrailingData rejects a body with data after its JSON value: a
// truncated or concatenated body is a client bug better surfaced than
// ignored.
var errTrailingData = errors.New("trailing data after JSON body")

// readJSON reads body whole into buf and decodes it into v (decodeRead).
func readJSON(buf *bytes.Buffer, body io.Reader, v any) error {
	buf.Reset()
	_, readErr := buf.ReadFrom(body)
	return decodeRead(buf, readErr, v)
}

// decodeRead decodes into v the body read into buf, whose read ended with
// readErr. A body that read cleanly and holds exactly one JSON value is
// decoded straight from buf. Anything else — a read error such as the
// size limit, a syntax error, trailing data — is decoded again by a
// json.Decoder over the bytes read followed by the read's error, with
// More() deciding on trailing data, so every body is accepted or refused
// with exactly the error a json.Decoder reading the body itself reports.
// Decoding copies strings and raw messages, so nothing in v aliases buf.
func decodeRead(buf *bytes.Buffer, readErr error, v any) error {
	if readErr == nil && json.Unmarshal(buf.Bytes(), v) == nil {
		return nil
	}
	stream := io.Reader(buf)
	if readErr != nil {
		stream = io.MultiReader(buf, failedReader{readErr})
	}
	dec := json.NewDecoder(stream)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// failedReader replays the error a body read ended with.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// requirePost gates an endpoint to POST.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
		return false
	}
	return true
}
