package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a Server with small, test-friendly capacities.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 16
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// post runs one POST through the full middleware stack.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeBody(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/plan", `{"workload":"atr","procs":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp PlanResponse
	decodeBody(t, w, &resp)
	if resp.Nodes == 0 || resp.Sections == 0 || resp.CTWorst <= 0 {
		t.Errorf("implausible plan summary: %+v", resp)
	}
	if resp.CTAvg > resp.CTWorst {
		t.Errorf("CTAvg %g > CTWorst %g", resp.CTAvg, resp.CTWorst)
	}
	if resp.Cached {
		t.Error("first compile reported as cached")
	}

	// The same application again must come from the cache.
	w = post(t, s, "/v1/plan", `{"workload":"atr","procs":2}`)
	var again PlanResponse
	decodeBody(t, w, &again)
	if !again.Cached {
		t.Error("second identical request not served from cache")
	}
	if again.CTWorst != resp.CTWorst {
		t.Errorf("cached plan differs: %g vs %g", again.CTWorst, resp.CTWorst)
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"workload":"synthetic","scheme":"GSS","load":0.5,"seed":7}`
	w1 := post(t, s, "/v1/run", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w1.Code, w1.Body.String())
	}
	var row RunRow
	decodeBody(t, w1, &row)
	if row.Scheme != "GSS" || row.FinishS <= 0 || row.EnergyJ <= 0 {
		t.Errorf("implausible row: %+v", row)
	}
	if !row.MetDeadline {
		t.Errorf("GSS missed the deadline: %+v", row)
	}
	// Same seed, same everything: responses must be byte-identical.
	w2 := post(t, s, "/v1/run", body)
	if w1.Body.String() != w2.Body.String() {
		t.Errorf("same seed produced different responses:\n%s\n%s", w1.Body, w2.Body)
	}
	// A different seed must (for this workload) produce a different run.
	w3 := post(t, s, "/v1/run", `{"workload":"synthetic","scheme":"GSS","load":0.5,"seed":8}`)
	if w1.Body.String() == w3.Body.String() {
		t.Error("different seeds produced identical responses")
	}
}

func TestRunWorstCase(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/run", `{"workload":"synthetic","scheme":"NPM","load":0.8,"worst":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var row RunRow
	decodeBody(t, w, &row)
	if !row.MetDeadline {
		t.Errorf("worst case under a feasible deadline must meet it: %+v", row)
	}
	if row.FinishS > row.DeadlineS {
		t.Errorf("finish %g beyond deadline %g", row.FinishS, row.DeadlineS)
	}
}

func TestRunStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	const runs = 50
	w := post(t, s, "/v1/run", `{"workload":"synthetic","scheme":"AS","runs":50,"seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != runs+1 {
		t.Fatalf("got %d lines, want %d rows + summary", len(lines), runs)
	}
	for i, line := range lines[:runs] {
		var row RunRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Run != i {
			t.Fatalf("row %d has run index %d", i, row.Run)
		}
	}
	var sum RunSummary
	if err := json.Unmarshal([]byte(lines[runs]), &sum); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if !sum.Summary || sum.Runs != runs {
		t.Errorf("bad summary: %+v", sum)
	}
	if sum.MeanEnergyJ <= 0 || sum.MaxFinishS <= 0 {
		t.Errorf("implausible summary stats: %+v", sum)
	}
}

func TestCompareEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/compare",
		`{"workload":"synthetic","schemes":["NPM","GSS","AS"],"runs":30,"load":0.5,"seed":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp CompareResponse
	decodeBody(t, w, &resp)
	if len(resp.Schemes) != 3 {
		t.Fatalf("got %d schemes", len(resp.Schemes))
	}
	if resp.Schemes[0].Scheme != "NPM" || resp.Schemes[0].MeanNormEnergy != 1 {
		t.Errorf("NPM must normalize to exactly 1: %+v", resp.Schemes[0])
	}
	for _, sc := range resp.Schemes {
		if sc.MeanNormEnergy <= 0 || sc.MeanNormEnergy > 1.5 {
			t.Errorf("%s: implausible normalized energy %g", sc.Scheme, sc.MeanNormEnergy)
		}
		if sc.DeadlineMisses != 0 {
			t.Errorf("%s: %d deadline misses", sc.Scheme, sc.DeadlineMisses)
		}
	}
	// The dynamic scheme must beat NPM on energy under slack.
	if gss := resp.Schemes[1]; gss.MeanNormEnergy >= 1 {
		t.Errorf("GSS norm energy %g not below NPM", gss.MeanNormEnergy)
	}
}

func TestCompareDefaultsToAllSchemes(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{
		`{"workload":"synthetic","runs":5}`,
		`{"workload":"synthetic","runs":5,"schemes":["all"]}`,
	} {
		w := post(t, s, "/v1/compare", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		var resp CompareResponse
		decodeBody(t, w, &resp)
		if len(resp.Schemes) != 9 {
			t.Errorf("%s: compare covered %d schemes, want all 9", body, len(resp.Schemes))
		}
	}
}

// TestCompareRunsOverflow: a run count whose product with the scheme
// count wraps past the integer range must be refused as too large, not
// slip through validation into a huge allocation.
func TestCompareRunsOverflow(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := post(t, s, "/v1/compare", `{"workload":"atr","schemes":["all"],"runs":1024819115206086201}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"no app", "/v1/run", `{}`, 400},
		{"two apps", "/v1/run", `{"workload":"atr","text":"task A 1ms 1ms"}`, 400},
		{"bad workload", "/v1/run", `{"workload":"../../etc/passwd"}`, 400},
		{"file path workload", "/v1/run", `{"workload":"workloads/atr.andor"}`, 400},
		{"bad scheme", "/v1/run", `{"workload":"atr","scheme":"TURBO"}`, 400},
		{"bad platform", "/v1/run", `{"workload":"atr","platform":"pentium"}`, 400},
		{"bad procs", "/v1/run", `{"workload":"atr","procs":-3}`, 400},
		{"huge procs", "/v1/run", `{"workload":"atr","procs":1000}`, 400},
		{"bad load", "/v1/run", `{"workload":"atr","load":1.5}`, 400},
		{"infeasible deadline", "/v1/run", `{"workload":"atr","deadline":1e-9}`, 400},
		{"negative deadline", "/v1/run", `{"workload":"atr","deadline":-1}`, 400},
		{"negative overheads", "/v1/run", `{"workload":"atr","overheads":{"speed_change_us":-1}}`, 400},
		{"excess runs", "/v1/run", `{"workload":"atr","runs":1000000000}`, 400},
		{"negative runs", "/v1/run", `{"workload":"atr","runs":-5}`, 400},
		{"malformed json", "/v1/run", `{"workload":`, 400},
		{"trailing garbage", "/v1/run", `{"workload":"atr"} extra`, 400},
		{"bad graph json", "/v1/plan", `{"graph":{"nodes":"nope"}}`, 400},
		{"invalid text", "/v1/plan", `{"text":"task A"}`, 400},
		{"compare bad scheme", "/v1/compare", `{"workload":"atr","schemes":["bogus"]}`, 400},
		{"compare excess total", "/v1/compare", `{"workload":"atr","runs":999999}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			decodeBody(t, w, &e)
			if e.Error == "" {
				t.Error("error response without error message")
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/run", "/v1/compare"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d", path, w.Code)
		}
		if allow := w.Header().Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s: Allow %q", path, allow)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := `{"workload":"atr","text":"` + strings.Repeat("x", 4096) + `"}`
	w := post(t, s, "/v1/run", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", w.Code, w.Body.String())
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{})
	s.mux.HandleFunc("/boom", s.wrap("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != 1 {
		t.Errorf("panic counter %d, want 1", n)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3, QueueSize: 9})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h map[string]any
	decodeBody(t, w, &h)
	if h["status"] != "ok" {
		t.Errorf("status field %v", h["status"])
	}
	if h["workers"].(float64) != 3 || h["queue_capacity"].(float64) != 9 {
		t.Errorf("capacity numbers wrong: %v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, "/v1/run", `{"workload":"synthetic"}`)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"serve_http_requests", "serve_http_latency_seconds_bucket",
		"serve_runs", "serve_cache_misses",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestRuntimeGauges: /metrics carries the process's cumulative GC cycles
// and allocated bytes, and both grow between scrapes that bracket
// allocation and a collection.
func TestRuntimeGauges(t *testing.T) {
	s := newTestServer(t, Config{})
	scrape := func() (gc, alloc float64) {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		found := 0
		for _, line := range strings.Split(w.Body.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			var dst *float64
			switch name {
			case "serve_runtime_gc_cycles":
				dst = &gc
			case "serve_runtime_alloc_bytes":
				dst = &alloc
			default:
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			*dst = v
			found++
		}
		if found != 2 {
			t.Fatalf("/metrics lacks the runtime gauges:\n%s", w.Body.String())
		}
		return gc, alloc
	}
	gc0, alloc0 := scrape()
	post(t, s, "/v1/run", `{"workload":"synthetic"}`)
	runtime.GC()
	gc1, alloc1 := scrape()
	if gc1 <= gc0 || alloc1 <= alloc0 {
		t.Errorf("runtime gauges did not grow: gc_cycles %g -> %g, alloc_bytes %g -> %g", gc0, gc1, alloc0, alloc1)
	}
}

// TestCrossingEdgeErrorBody: a text with several edges that cross a
// section boundary is refused with one and the same 400 body every time,
// naming the first crossing edge in the section's topological order.
func TestCrossingEdgeErrorBody(t *testing.T) {
	const text = "task A 1ms 1ms\ntask B 1ms 1ms\nor O\ntask C 1ms 1ms\ntask D 1ms 1ms\ntask E 1ms 1ms\n" +
		"edge A -> O\nedge A -> B\nedge O -> C\nedge C -> D\nedge C -> E\nedge B -> D\nedge B -> E"
	const want = `text: andor: edge "C" -> "D" crosses a section boundary`
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/run", "/v1/plan"} {
		body, err := json.Marshal(map[string]any{"text": text})
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for i := 0; i < 20; i++ {
			w := post(t, s, path, string(body))
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
			}
			if i == 0 {
				first = w.Body.String()
				var e struct {
					Error string `json:"error"`
				}
				decodeBody(t, w, &e)
				if e.Error != want {
					t.Fatalf("%s: error %q, want %q", path, e.Error, want)
				}
			} else if w.Body.String() != first {
				t.Fatalf("%s: request %d answered %q, the first %q", path, i, w.Body.String(), first)
			}
		}
	}
}
