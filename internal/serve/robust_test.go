package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// nonFiniteBodies are application specs whose task times or branch
// probabilities are NaN or infinite. Each used to be accepted: the NaN
// times crashed andord's pool worker on /v1/run, the infinite ones cached
// a plan whose answers failed to encode, and the NaN probabilities ran.
var nonFiniteBodies = []string{
	`{"text":"task A NaNms NaNms\ntask B 2ms 1ms\nedge A -> B","procs":2}`,
	`{"text":"task A Infms Infms\ntask B 2ms 1ms\nedge A -> B","procs":2}`,
	`{"text":"task A 3ms 1ms\nor O\ntask B 2ms 1ms\ntask C 2ms 1ms\nedge A -> O\nedge O -> B C\nprob O NaN NaN","procs":2}`,
}

func TestNonFiniteApplicationsRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/run", "/v1/compare"} {
		for _, body := range nonFiniteBodies {
			if w := post(t, s, path, body); w.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", path, body, w.Code, w.Body.String())
			}
		}
	}
	if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != 0 {
		t.Errorf("%d recovered panics", n)
	}
}

// hugeTimeBodies are applications with finite task times on two
// processors: 1e300 s is more cycles at f_max than a float64 holds and
// must be refused at compile time, 1e200 s fits and runs.
var hugeTimeBodies = []string{
	`{"text":"task A 1e300s 1e300s","procs":2}`,
	`{"text":"task A 1e200s 1e200s","procs":2}`,
}

// TestHugeTaskTimes: a task whose padded cycles overflow is a 400 naming
// the task on every endpoint, and the same text as a batch item's error;
// it used to compile into a plan whose answers failed to encode (500). A
// huge but representable time still answers 200.
func TestHugeTaskTimes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const overflowErr = "plan: core: task \"A\": padded times"
	for _, tc := range []struct{ path, extra string }{
		{"/v1/plan", ""},
		{"/v1/run", ""},
		{"/v1/run", `,"runs":4`},
		{"/v1/compare", ""},
	} {
		for k, body := range hugeTimeBodies {
			body = body[:len(body)-1] + tc.extra + "}"
			w := post(t, s, tc.path, body)
			var e struct {
				Error string `json:"error"`
			}
			if k == 1 {
				if w.Code != http.StatusOK {
					t.Errorf("%s %s: status %d, want 200: %s", tc.path, body, w.Code, w.Body.String())
				}
				continue
			}
			decodeBody(t, w, &e)
			if w.Code != http.StatusBadRequest || !strings.HasPrefix(e.Error, overflowErr) {
				t.Errorf("%s %s: status %d, error %q; want 400 %q…", tc.path, body, w.Code, e.Error, overflowErr)
			}
		}
	}
	w := post(t, s, "/v1/batch", `{"items":[`+hugeTimeBodies[0]+`,`+hugeTimeBodies[1]+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	items, _ := parseBatchBody(t, w.Body.String())
	if len(items) != 2 || !strings.HasPrefix(items[0].Error, overflowErr) || items[1].Error != "" {
		t.Errorf("batch items %+v: want item 0 to fail with %q…, item 1 to run", items, overflowErr)
	}
}

// TestPoolJobPanicRecovered: a panicking pool job, whether submitted
// directly or as a fan-out chunk, comes back to its handler as a 500 and
// a counted panic. The worker survives on fresh state: the pool drains,
// and the next request answers exactly as a fresh server does.
func TestPoolJobPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	s.mux.HandleFunc("/submit-panic", s.wrap("/submit-panic", func(w http.ResponseWriter, r *http.Request) {
		err := s.pool.submit(r.Context(), anyWorker, false, 1, func(context.Context, *Worker) {
			panic("job boom")
		}, nil)
		s.checkPoolErr(w, err)
	}))
	s.mux.HandleFunc("/fanout-panic", s.wrap("/fanout-panic", func(w http.ResponseWriter, r *http.Request) {
		s.execChunks(w, r, false, 40, 4, 1, func(c, lo, hi int) func(context.Context, *Worker) error {
			return func(ctx context.Context, wk *Worker) error {
				if c == 2 {
					wk.Arena = nil // a half-finished job leaves its state torn
					panic("chunk boom")
				}
				return nil
			}
		})
	}))
	const body = `{"workload":"atr","scheme":"GSS","seed":5,"runs":3}`
	fresh := post(t, newTestServer(t, Config{Workers: 2}), "/v1/run", body)
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh server: status %d: %s", fresh.Code, fresh.Body.String())
	}

	for i, path := range []string{"/submit-panic", "/fanout-panic", "/submit-panic", "/fanout-panic"} {
		if w := post(t, s, path, ""); w.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500: %s", path, w.Code, w.Body.String())
		}
		if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != int64(i+1) {
			t.Fatalf("after %s: panic counter %d, want %d", path, n, i+1)
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.pool.InFlight() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := s.pool.InFlight(); n != 0 {
			t.Fatalf("after %s: %d jobs still in flight", path, n)
		}
		// Both workers must still serve, on untorn state.
		for k := 0; k < 4; k++ {
			w := post(t, s, "/v1/run", body)
			if w.Code != http.StatusOK || w.Body.String() != fresh.Body.String() {
				t.Fatalf("after %s: status %d, answer differs from a fresh server's:\n%s\nwant:\n%s",
					path, w.Code, w.Body.String(), fresh.Body.String())
			}
		}
	}
}

// overflowApp is a finite application whose results overflow to +Inf:
// two processors idle for most of a 1e308 s deadline, so the idle energy
// does, and JSON cannot carry it.
const overflowApp = `"text":"task A 3ms 1ms\ntask B 2ms 1ms\nedge A -> B","procs":2,"deadline":1e308`

// TestNonFiniteResultIs500: a result JSON cannot carry is answered with a
// clean 500 before any status line, for a single run, for a Monte-Carlo
// request of any size and chunking, and for a compare — never a 200 with
// a cut NDJSON body.
func TestNonFiniteResultIs500(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct{ path, body string }{
		{"/v1/run", `{` + overflowApp + `}`},
		{"/v1/run", `{` + overflowApp + `,"runs":3}`},
		{"/v1/run", `{` + overflowApp + `,"runs":300}`},
		{"/v1/run", `{` + overflowApp + `,"runs":300,"chunks":5}`},
		{"/v1/compare", `{` + overflowApp + `}`},
	} {
		w := post(t, s, tc.path, tc.body)
		if w.Code != http.StatusInternalServerError || w.Body.String() != "{\"error\":\"response encoding failed\"}\n" {
			t.Errorf("%s %s: status %d, body %q; want 500 response encoding failed", tc.path, tc.body, w.Code, w.Body.String())
		}
	}
	// The pool is not left holding anything: the next request answers.
	if w := post(t, s, "/v1/run", `{"workload":"atr","runs":300}`); w.Code != http.StatusOK {
		t.Fatalf("after the failures: status %d", w.Code)
	}
}

// TestBatchNonFiniteItemIsItsError: in a batch, an item whose summary is
// not finite becomes that item's error line, counted in the summary's
// errors; the other items keep their results.
func TestBatchNonFiniteItemIsItsError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, "/v1/batch", `{"items":[{"workload":"atr","runs":2,"seed":3},{`+overflowApp+`,"runs":2},{"workload":"atr","seed":4}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	items, sum := parseBatchBody(t, w.Body.String())
	if len(items) != 3 || items[0].Error != "" || items[1].Error == "" || items[2].Error != "" {
		t.Fatalf("items %+v: want item 1 alone failed", items)
	}
	if items[1].Item != 1 || items[1].Runs != 0 || items[0].Runs != 2 {
		t.Errorf("item lines %+v", items)
	}
	if sum != (BatchSummary{Summary: true, Items: 3, OK: 2, Errors: 1, Runs: 3}) {
		t.Errorf("summary %+v", sum)
	}
}
