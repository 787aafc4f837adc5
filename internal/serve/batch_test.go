package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"andorsched/internal/serve/tenant"
)

// parseBatchBody splits a batch NDJSON response into item lines and the
// trailing summary, failing the test when the summary is missing.
func parseBatchBody(t *testing.T, body string) ([]BatchItemResult, BatchSummary) {
	t.Helper()
	var items []BatchItemResult
	var sum BatchSummary
	sawSummary := false
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if sawSummary {
			t.Fatalf("data after the summary line: %q", line)
		}
		if strings.Contains(line, `"summary":true`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("bad summary line %q: %v", line, err)
			}
			sawSummary = true
			continue
		}
		var it BatchItemResult
		if err := json.Unmarshal([]byte(line), &it); err != nil {
			t.Fatalf("bad item line %q: %v", line, err)
		}
		items = append(items, it)
	}
	if !sawSummary {
		t.Fatalf("batch response missing its trailing summary:\n%s", body)
	}
	return items, sum
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/batch", `{"items":[
		{"workload":"atr","scheme":"GSS","seed":7,"runs":5,"load":0.5},
		{"workload":"atr","scheme":"AS","seed":8,"runs":3,"load":0.5},
		{"workload":"synthetic","scheme":"SS1","seed":9,"load":0.5}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q, want NDJSON", ct)
	}
	items, sum := parseBatchBody(t, w.Body.String())
	if len(items) != 3 {
		t.Fatalf("%d item lines, want 3", len(items))
	}
	for i, it := range items {
		if it.Item != i {
			t.Errorf("line %d has item index %d; lines must be in item order", i, it.Item)
		}
		if it.Error != "" {
			t.Errorf("item %d failed: %s", i, it.Error)
		}
		if it.MeanEnergyJ <= 0 || it.MeanFinishS <= 0 {
			t.Errorf("item %d has implausible summary: %+v", i, it)
		}
	}
	if items[0].Runs != 5 || items[1].Runs != 3 || items[2].Runs != 1 {
		t.Errorf("run counts %d/%d/%d, want 5/3/1", items[0].Runs, items[1].Runs, items[2].Runs)
	}
	want := BatchSummary{Summary: true, Items: 3, OK: 3, Errors: 0, Runs: 9}
	if sum != want {
		t.Errorf("summary %+v, want %+v", sum, want)
	}
}

// TestBatchMatchesRunEndpoint pins the contract that a batch item is
// exactly a /v1/run request: same workload, scheme, seed and runs must
// produce the identical summary through either endpoint.
func TestBatchMatchesRunEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	w := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS","seed":41,"runs":6,"load":0.5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("run status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var runSum RunSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runSum); err != nil {
		t.Fatalf("run summary: %v", err)
	}

	w = post(t, s, "/v1/batch", `{"items":[{"workload":"atr","scheme":"GSS","seed":41,"runs":6,"load":0.5}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	items, _ := parseBatchBody(t, w.Body.String())
	if len(items) != 1 {
		t.Fatalf("%d items, want 1", len(items))
	}
	it := items[0]
	if it.Runs != runSum.Runs || it.MeanEnergyJ != runSum.MeanEnergyJ ||
		it.MeanFinishS != runSum.MeanFinishS || it.MaxFinishS != runSum.MaxFinishS ||
		it.DeadlineMisses != runSum.DeadlineMisses || it.SpeedChanges != runSum.SpeedChanges {
		t.Errorf("batch item %+v diverges from /v1/run summary %+v", it, runSum)
	}
}

// TestBatchItemErrorsAreIsolated: a defective item yields its own error
// line; the remaining items still execute and the response completes.
func TestBatchItemErrorsAreIsolated(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/batch", `{"items":[
		{"workload":"atr","scheme":"GSS","load":0.5},
		{"workload":"atr","scheme":"NOPE"},
		{"workload":"nonexistent","scheme":"GSS"},
		{"workload":"atr","scheme":"AS","deadline":1e-9}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	items, sum := parseBatchBody(t, w.Body.String())
	if len(items) != 4 {
		t.Fatalf("%d item lines, want 4", len(items))
	}
	if items[0].Error != "" {
		t.Errorf("healthy item failed: %s", items[0].Error)
	}
	for i := 1; i <= 3; i++ {
		if items[i].Error == "" {
			t.Errorf("defective item %d reported no error: %+v", i, items[i])
		}
	}
	if sum.OK != 1 || sum.Errors != 3 || sum.Items != 4 {
		t.Errorf("summary %+v, want 1 ok / 3 errors / 4 items", sum)
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxRuns: 50, MaxBatchItems: 4})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"no items", `{"items":[]}`, http.StatusBadRequest},
		{"missing items", `{}`, http.StatusBadRequest},
		{"too many items", `{"items":[{"workload":"atr"},{"workload":"atr"},{"workload":"atr"},{"workload":"atr"},{"workload":"atr"}]}`, http.StatusBadRequest},
		{"item runs over cap", `{"items":[{"workload":"atr","runs":51}]}`, http.StatusBadRequest},
		{"negative runs", `{"items":[{"workload":"atr","runs":-2}]}`, http.StatusBadRequest},
		{"total runs over cap", `{"items":[{"workload":"atr","runs":30},{"workload":"atr","runs":30}]}`, http.StatusBadRequest},
		{"trailing garbage", `{"items":[{"workload":"atr"}]} extra`, http.StatusBadRequest},
		{"not json", `nope`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/batch", tc.body)
			if w.Code != tc.wantStatus {
				t.Errorf("status %d, want %d (%s)", w.Code, tc.wantStatus, w.Body.String())
			}
		})
	}
}

// TestTenantRateLimit429 drives one tenant past its bucket and checks the
// full rejection contract: 429, JSON error body, Retry-After parsing as a
// positive integer that matches the bucket's refill schedule, and
// isolation of other tenants.
func TestTenantRateLimit429(t *testing.T) {
	s := newTestServer(t, Config{Tenant: tenant.Config{
		Enabled:        true,
		RequestsPerSec: 0.5, // refill schedule of 2s ⇒ Retry-After must be 2
		Burst:          2,
	}})
	body := `{"workload":"atr","scheme":"GSS","load":0.5}`
	doAs := func(key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		req.Header.Set("X-API-Key", key)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	for i := 0; i < 2; i++ {
		if w := doAs("alpha"); w.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := doAs("alpha")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", w.Code)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs <= 0 {
		t.Fatalf("Retry-After %q does not parse as a positive integer", ra)
	}
	if secs != 2 {
		t.Errorf("Retry-After %d, want 2 (one token at 0.5/s)", secs)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("429 body %q is not a JSON error", w.Body.String())
	}
	// A different API key has its own untouched bucket.
	if w := doAs("beta"); w.Code != http.StatusOK {
		t.Errorf("other tenant rejected: status %d", w.Code)
	}
	// The metrics endpoint exports the per-tenant counters.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mw := httptest.NewRecorder()
	s.Handler().ServeHTTP(mw, req)
	for _, want := range []string{
		"serve_tenant_key_alpha_admitted 2",
		"serve_tenant_key_alpha_rejected 1",
		"serve_tenant_key_beta_admitted 1",
		"serve_tenant_rejections 1",
	} {
		if !strings.Contains(mw.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantRunBudget: the run bucket charges Monte-Carlo runs at
// admission, and an ask beyond the whole bucket is a 400, not a retry
// loop.
func TestTenantRunBudget(t *testing.T) {
	s := newTestServer(t, Config{Tenant: tenant.Config{
		Enabled:        true,
		RequestsPerSec: 1000,
		RunsPerSec:     100,
		RunBurst:       40,
	}})
	do := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		req.Header.Set("X-API-Key", "gamma")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	if w := do(`{"workload":"atr","runs":40,"load":0.5}`); w.Code != http.StatusOK {
		t.Fatalf("within budget: status %d: %s", w.Code, w.Body.String())
	}
	w := do(`{"workload":"atr","runs":10,"load":0.5}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("drained budget: status %d, want 429", w.Code)
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs <= 0 {
		t.Fatalf("Retry-After %q not a positive integer", w.Header().Get("Retry-After"))
	}
	w = do(`{"workload":"atr","runs":41,"load":0.5}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("never-satisfiable ask: status %d, want 400", w.Code)
	}
}

// TestTenantBatchAdmission: a batch is one admission decision charging
// the sum of its items' runs.
func TestTenantBatchAdmission(t *testing.T) {
	s := newTestServer(t, Config{Tenant: tenant.Config{
		Enabled:        true,
		RequestsPerSec: 1000,
		RunsPerSec:     100,
		RunBurst:       20,
	}})
	do := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		req.Header.Set("X-API-Key", "delta")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	if w := do(`{"items":[{"workload":"atr","runs":8,"load":0.5},{"workload":"atr","runs":8,"load":0.5}]}`); w.Code != http.StatusOK {
		t.Fatalf("batch within budget: status %d: %s", w.Code, w.Body.String())
	}
	// Budget now holds 4 run tokens: a 2×4-run batch must be rejected as a
	// whole, with a Retry-After covering the 4-token deficit.
	w := do(`{"items":[{"workload":"atr","runs":4,"load":0.5},{"workload":"atr","runs":4,"load":0.5}]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs <= 0 {
		t.Fatalf("Retry-After %q not a positive integer", w.Header().Get("Retry-After"))
	}
}

// FuzzBatchEndpoint drives arbitrary bytes through the full /v1/batch
// decode path — middleware, size limit, JSON decode, per-item validation,
// admission, execution, NDJSON encoding — and checks the server never
// panics and never answers outside its documented status set.
func FuzzBatchEndpoint(f *testing.F) {
	s := New(Config{
		Workers:        2,
		QueueSize:      8,
		MaxBodyBytes:   1 << 18,
		MaxRuns:        8,
		MaxBatchItems:  4,
		RequestTimeout: 5 * time.Second,
	})
	defer s.Close()

	f.Add([]byte(`{"items":[{"workload":"atr","scheme":"GSS","runs":2,"load":0.5}]}`))
	f.Add([]byte(`{"items":[{"workload":"atr"},{"workload":"synthetic","scheme":"AS","seed":3}]}`))
	f.Add([]byte(`{"items":[{"text":"task A 1ms 1ms"}]}`))
	for _, body := range hugeTimeBodies {
		f.Add([]byte(`{"items":[` + body + `]}`))
	}
	f.Add([]byte(`{"items":[{"workload":"atr","runs":1000000}]}`))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"items":[{},{},{},{},{}]}`))
	f.Add([]byte(`{"items":[{"workload":"atr"}]} trailing`))
	f.Add([]byte(`{"items":`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"workload":"atr"}]`))
	f.Add([]byte(`{"items":[{"graph":{"name":"g","nodes":[{"name":"a","kind":"compute","wcet":1,"acet":0.5}],"edges":[]}}]}`))
	f.Add([]byte(`{"items":[{"workload":"random:77","scheme":"SS2","runs":2}]}`))
	f.Add([]byte(`{"items":[{"workload":"atr","deadline":-5}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := fuzzPost(t, s, "/v1/batch", data)
		if !ok {
			return
		}
		// A 200 batch is NDJSON whose last line is the completeness summary.
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		var sum BatchSummary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Summary {
			t.Fatalf("200 batch without summary line; body %s", body)
		}
		if sum.Items != len(lines)-1 {
			t.Fatalf("summary items %d but %d item lines", sum.Items, len(lines)-1)
		}
	})
}

// TestBatchConcurrentTenants exercises batch + tenant admission together
// under -race: several tenants submit batches concurrently; every
// response is either a complete 200 or a clean 429.
func TestBatchConcurrentTenants(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueSize: 32, Tenant: tenant.Config{
		Enabled:        true,
		RequestsPerSec: 50,
		Burst:          10,
	}})
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			key := fmt.Sprintf("tenant-%d", g%3)
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(`{"items":[{"workload":"atr","scheme":"GSS","seed":%d,"load":0.5},{"workload":"atr","scheme":"AS","seed":%d,"load":0.5}]}`, i, i+100)
				req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
				req.Header.Set("X-API-Key", key)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
					if !strings.Contains(w.Body.String(), `"summary":true`) {
						errs <- fmt.Errorf("200 without summary: %s", w.Body.String())
						return
					}
				case http.StatusTooManyRequests:
					if _, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil {
						errs <- fmt.Errorf("429 with bad Retry-After %q", w.Header().Get("Retry-After"))
						return
					}
				default:
					errs <- fmt.Errorf("unexpected status %d: %s", w.Code, w.Body.String())
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
