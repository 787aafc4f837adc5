package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"andorsched/internal/obs"
	"andorsched/internal/serve/tenant"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestTraceIDOnAllResponses pins the header contract: every response from
// the /v1 endpoints — success or failure — carries an X-Trace-Id.
func TestTraceIDOnAllResponses(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"plan-ok", "/v1/plan", `{"workload":"atr","procs":2}`, http.StatusOK},
		{"plan-bad-json", "/v1/plan", `{`, http.StatusBadRequest},
		{"run-ok", "/v1/run", `{"workload":"atr","scheme":"GSS"}`, http.StatusOK},
		{"run-stream-ok", "/v1/run", `{"workload":"atr","scheme":"GSS","runs":3}`, http.StatusOK},
		{"run-bad-scheme", "/v1/run", `{"workload":"atr","scheme":"NOPE"}`, http.StatusBadRequest},
		{"run-bad-runs", "/v1/run", `{"workload":"atr","runs":-2}`, http.StatusBadRequest},
		{"compare-ok", "/v1/compare", `{"workload":"atr","schemes":["GSS"],"runs":2}`, http.StatusOK},
		{"compare-bad", "/v1/compare", `{"workload":"atr","schemes":["NOPE"]}`, http.StatusBadRequest},
		{"batch-ok", "/v1/batch", `{"items":[{"workload":"atr","scheme":"GSS"}]}`, http.StatusOK},
		{"batch-empty", "/v1/batch", `{"items":[]}`, http.StatusBadRequest},
		{"run-unknown-workload", "/v1/run", `{"workload":"no-such-app"}`, http.StatusBadRequest},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		w := post(t, s, tc.path, tc.body)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.wantStatus, w.Body.String())
		}
		id := w.Header().Get("X-Trace-Id")
		if !traceIDRe.MatchString(id) {
			t.Errorf("%s: X-Trace-Id %q is not 32 hex digits", tc.name, id)
			continue
		}
		if seen[id] {
			t.Errorf("%s: trace ID %s repeated across requests", tc.name, id)
		}
		seen[id] = true
	}

	// Method-not-allowed responses are traced too (the middleware runs
	// before the method gate).
	req := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: status %d, want 405", w.Code)
	}
	if id := w.Header().Get("X-Trace-Id"); !traceIDRe.MatchString(id) {
		t.Errorf("405 response X-Trace-Id %q", id)
	}
}

// TestInboundTraceparent checks W3C trace-context adoption: the response
// echoes the inbound trace ID and the retained trace records the caller's
// span as its parent.
func TestInboundTraceparent(t *testing.T) {
	s := newTestServer(t, Config{})
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req := httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"workload":"atr","scheme":"GSS"}`))
	req.Header.Set("Traceparent", parent)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if id := w.Header().Get("X-Trace-Id"); id != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("X-Trace-Id %q did not adopt the inbound trace ID", id)
	}
	rt, ok := s.flight.Get("0af7651916cd43dd8448eb211c80319c")
	if !ok {
		t.Fatal("trace not retained")
	}
	if rt.ParentSpan != "b7ad6b7169203331" {
		t.Errorf("parent span %q, want b7ad6b7169203331", rt.ParentSpan)
	}
}

// spanCoverage returns the fraction of the trace's wall-clock covered by
// the union of its span intervals.
func spanCoverage(rt obs.RequestTrace) float64 {
	if rt.DurationUS <= 0 || len(rt.Spans) == 0 {
		return 0
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(rt.Spans))
	for _, sp := range rt.Spans {
		ivs = append(ivs, iv{sp.StartUS, sp.StartUS + sp.DurUS})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, ivs[0].lo
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return covered / rt.DurationUS
}

// TestTraceRetrievalAndCoverage drives a warmed streaming /v1/run,
// retrieves its trace from /debug/requests/{traceID} (JSON and Chrome
// forms) and requires the phase spans to cover ≥95% of the request's
// wall-clock.
func TestTraceRetrievalAndCoverage(t *testing.T) {
	s := newTestServer(t, Config{})
	warm := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS"}`)
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", warm.Code, warm.Body.String())
	}
	w := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS","runs":200,"seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Trace-Id")

	req := httptest.NewRequest(http.MethodGet, "/debug/requests/"+id, nil)
	dw := httptest.NewRecorder()
	s.Handler().ServeHTTP(dw, req)
	if dw.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests/%s: status %d: %s", id, dw.Code, dw.Body.String())
	}
	var rt obs.RequestTrace
	decodeBody(t, dw, &rt)
	if rt.TraceID != id || rt.Endpoint != "/v1/run" || rt.Status != http.StatusOK {
		t.Fatalf("trace = %+v", rt)
	}
	phases := map[string]bool{}
	for _, sp := range rt.Spans {
		phases[sp.Phase] = true
	}
	for _, want := range []string{PhaseDecode, PhaseCache, PhaseQueue, PhaseExec, PhaseExecMC} {
		if !phases[want] {
			t.Errorf("trace missing phase %q: %+v", want, rt.Spans)
		}
	}
	if cov := spanCoverage(rt); cov < 0.95 {
		t.Errorf("phase spans cover %.1f%% of wall-clock, want >= 95%%: %+v", 100*cov, rt.Spans)
	}

	// Chrome export of the same trace.
	req = httptest.NewRequest(http.MethodGet, "/debug/requests/"+id+"?format=chrome", nil)
	cw := httptest.NewRecorder()
	s.Handler().ServeHTTP(cw, req)
	if cw.Code != http.StatusOK {
		t.Fatalf("chrome export: status %d: %s", cw.Code, cw.Body.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	decodeBody(t, cw, &tf)
	names := map[string]bool{}
	for _, e := range tf.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"/v1/run", PhaseExec, PhaseQueue} {
		if !names[want] {
			t.Errorf("chrome export missing slice %q", want)
		}
	}

	// The listing endpoint sees it too.
	req = httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	lw := httptest.NewRecorder()
	s.Handler().ServeHTTP(lw, req)
	if lw.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests: status %d", lw.Code)
	}
	var list DebugRequests
	decodeBody(t, lw, &list)
	if len(list.Recent) == 0 || len(list.Slowest["/v1/run"]) == 0 {
		t.Errorf("debug listing empty: %+v", list)
	}

	// An unknown ID is a 404; a malformed one too.
	for _, bad := range []string{strings.Repeat("0", 31) + "1", "zz"} {
		req = httptest.NewRequest(http.MethodGet, "/debug/requests/"+bad, nil)
		bw := httptest.NewRecorder()
		s.Handler().ServeHTTP(bw, req)
		if bw.Code != http.StatusNotFound {
			t.Errorf("GET /debug/requests/%s: status %d, want 404", bad, bw.Code)
		}
	}
}

// TestTracingDisabled checks the opt-out: no header, no flight recorder,
// /debug/requests answers 404.
func TestTracingDisabled(t *testing.T) {
	s := newTestServer(t, Config{Trace: TraceConfig{Disabled: true}})
	w := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if id := w.Header().Get("X-Trace-Id"); id != "" {
		t.Errorf("disabled tracing still set X-Trace-Id %q", id)
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/requests", nil)
	dw := httptest.NewRecorder()
	s.Handler().ServeHTTP(dw, req)
	if dw.Code != http.StatusNotFound {
		t.Errorf("GET /debug/requests with tracing disabled: status %d, want 404", dw.Code)
	}
}

// collectPhases returns the recorded phase names of a live record.
func collectPhases(rec *obs.TraceRec) []string {
	var out []string
	rec.VisitSpans(func(phase string, _, _ time.Duration, _ string, _ int64) {
		out = append(out, phase)
	})
	return out
}

// TestQueueWaitCancellation pins the satellite contract: a job cancelled
// while queued records a queue-wait span but no execution span, and the
// pool's gauges return to zero. Run under -race it also proves the
// record handoff between submitter and worker is clean.
func TestQueueWaitCancellation(t *testing.T) {
	p := NewPool(1, 4, 16)
	defer p.Close()
	f := obs.NewFlight(8, 2)

	// Occupy the single worker.
	block := make(chan struct{})
	runningA := make(chan struct{})
	doneA := make(chan error, 1)
	go func() {
		doneA <- p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, wk *Worker) {
			close(runningA)
			<-block
		}, nil)
	}()
	<-runningA

	// Queue a traced job, then cancel it before the worker frees up.
	rec := f.Start("/v1/run", "", time.Now())
	ctx, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), rec))
	queued := make(chan error, 1)
	go func() {
		queued <- p.submit(ctx, anyWorker, false, 1, func(ctx context.Context, wk *Worker) {
			t.Error("cancelled job executed")
		}, nil)
	}()
	// Wait until the job is visibly queued, then cancel and release the
	// worker so it drains the dead job.
	for i := 0; p.OldestQueueAge() == 0; i++ {
		if i > 1000 {
			t.Fatal("job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(block)
	if err := <-queued; err != context.Canceled {
		t.Fatalf("cancelled submit returned %v, want context.Canceled", err)
	}
	if err := <-doneA; err != nil {
		t.Fatalf("blocking job failed: %v", err)
	}

	phases := collectPhases(rec)
	if len(phases) != 1 || phases[0] != PhaseQueue {
		t.Errorf("cancelled-while-queued job recorded %v, want exactly [queue]", phases)
	}
	if n := p.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after drain, want 0", n)
	}
	if age := p.OldestQueueAge(); age != 0 {
		t.Errorf("OldestQueueAge = %v after drain, want 0", age)
	}
}

// TestQueueWaitCancelledBeforeSend covers the waiting submit's blocked
// send: a caller that gives up while waiting for queue space still
// records its wait as queue time, and the queue-age map is cleaned up.
func TestQueueWaitCancelledBeforeSend(t *testing.T) {
	p := NewPool(1, 1, 16)
	defer p.Close()
	f := obs.NewFlight(8, 2)

	block := make(chan struct{})
	runningA := make(chan struct{})
	doneA := make(chan error, 1)
	go func() {
		doneA <- p.submit(context.Background(), anyWorker, false, 1, func(ctx context.Context, wk *Worker) {
			close(runningA)
			<-block
		}, nil)
	}()
	<-runningA
	// Fill the 1-slot queue.
	doneB := make(chan error, 1)
	go func() {
		doneB <- p.submit(context.Background(), anyWorker, true, 1, func(ctx context.Context, wk *Worker) {}, nil)
	}()
	for i := 0; p.InFlight() < 2; i++ {
		if i > 1000 {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// A traced waiting submit now blocks on the send; cancel it there.
	rec := f.Start("/v1/batch", "", time.Now())
	ctx, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), rec))
	blocked := make(chan error, 1)
	go func() {
		blocked <- p.submit(ctx, anyWorker, true, 1, func(ctx context.Context, wk *Worker) {
			t.Error("cancelled job executed")
		}, nil)
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the blocking send
	cancel()
	if err := <-blocked; err != context.Canceled {
		t.Fatalf("cancelled waiting submit returned %v, want context.Canceled", err)
	}
	close(block)
	if err := <-doneA; err != nil {
		t.Fatalf("blocking job failed: %v", err)
	}
	if err := <-doneB; err != nil {
		t.Fatalf("queued job failed: %v", err)
	}

	phases := collectPhases(rec)
	if len(phases) != 1 || phases[0] != PhaseQueue {
		t.Errorf("cancelled-before-send job recorded %v, want exactly [queue]", phases)
	}
	if n := p.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after drain, want 0", n)
	}
	if age := p.OldestQueueAge(); age != 0 {
		t.Errorf("OldestQueueAge = %v after drain, want 0", age)
	}
}

// TestMetricsContentTypeAndExemplars pins the exposition contracts: the
// default scrape is 0.0.4 with an explicit charset and no exemplars; an
// OpenMetrics Accept gets the OpenMetrics content type, the phase
// histograms' trace-ID exemplars, and the # EOF terminator.
func TestMetricsContentTypeAndExemplars(t *testing.T) {
	s := newTestServer(t, Config{})
	run := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS"}`)
	if run.Code != http.StatusOK {
		t.Fatalf("run status %d", run.Code)
	}
	id := run.Header().Get("X-Trace-Id")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("scrape status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	body := w.Body.String()
	if !strings.Contains(body, `serve_phase_latency_seconds_bucket{phase="exec",`) {
		t.Errorf("scrape missing phase histogram:\n%s", body)
	}
	if strings.Contains(body, "# {") {
		t.Error("0.0.4 exposition carries exemplars")
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
		t.Errorf("OpenMetrics Content-Type %q", ct)
	}
	om := w.Body.String()
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics body does not end with # EOF")
	}
	if !strings.Contains(om, `# {trace_id="`+id+`"}`) {
		t.Errorf("OpenMetrics scrape missing the run's exemplar (trace %s):\n%s", id, om)
	}
}

// TestScrapeFreeTenantState pins the satellite fix: tenant gauges are
// refreshed by any stats-reading endpoint (here /healthz), not only by
// /metrics scrapes.
func TestScrapeFreeTenantState(t *testing.T) {
	s := newTestServer(t, Config{Tenant: tenant.Config{Enabled: true, RequestsPerSec: 1000}})
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run",
			strings.NewReader(`{"workload":"atr","scheme":"GSS"}`))
		req.Header.Set("X-API-Key", "acme")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	// No /metrics scrape has happened; /healthz must still refresh the
	// tenant gauges.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	snap := s.Metrics().Snapshot()
	admitted, ok := snap.Gauge(tenantMetricName("key:acme", "admitted"))
	if !ok || admitted != 3 {
		t.Errorf("tenant admitted gauge = %v (present=%v), want 3 without a scrape", admitted, ok)
	}
	inflight, _ := snap.Gauge(tenantMetricName("key:acme", "inflight"))
	if inflight != 0 {
		t.Errorf("tenant inflight gauge = %v, want 0", inflight)
	}
}
