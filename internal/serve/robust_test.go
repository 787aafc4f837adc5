package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/power"
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

// shortProbBody's Or node O has two branch probabilities and three
// successors; compiling it used to panic, and /v1/run answered 500.
const shortProbBody = `{"text":"task A 1ms 1ms\nor O\ntask B 1ms 1ms\ntask C 1ms 1ms\ntask D 1ms 1ms\n` +
	`edge A -> O\nedge O -> B C\nprob O 0.5 0.5\nedge O -> D","procs":2}`

func TestShortBranchProbsRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/run", "/v1/compare"} {
		w := post(t, s, path, shortProbBody)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `OR node \"O\"`) {
			t.Errorf("%s: status %d, want 400 naming the OR node: %s", path, w.Code, w.Body.String())
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

// overflowApp is a finite application whose results would overflow to
// +Inf: two processors idle for most of a 1e308 s deadline, so the idle
// energy would.
const overflowApp = `"text":"task A 3ms 1ms\ntask B 2ms 1ms\nedge A -> B","procs":2,"deadline":1e308`

// TestHugeDeadlineIs400: a deadline whose energy bound overflows is
// refused with a 400 naming the field that set it — an explicit deadline
// or a load small enough that CT_worst/load overflows — for a single run,
// a Monte-Carlo request of any size and chunking, and a compare.
func TestHugeDeadlineIs400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	withLoad := strings.Replace(overflowApp, `"deadline":1e308`, `"load":1e-320`, 1)
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/run", `{` + overflowApp + `}`, "deadline"},
		{"/v1/run", `{` + overflowApp + `,"runs":3}`, "deadline"},
		{"/v1/run", `{` + overflowApp + `,"runs":300}`, "deadline"},
		{"/v1/run", `{` + overflowApp + `,"runs":300,"chunks":5}`, "deadline"},
		{"/v1/compare", `{` + overflowApp + `}`, "deadline"},
		{"/v1/run", `{` + withLoad + `}`, "load"},
		{"/v1/compare", `{` + withLoad + `}`, "load"},
	} {
		w := post(t, s, tc.path, tc.body)
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, w, &e)
		if w.Code != http.StatusBadRequest || !strings.HasPrefix(e.Error, tc.field+" ") {
			t.Errorf("%s %s: status %d, error %q; want 400 naming %s", tc.path, tc.body, w.Code, e.Error, tc.field)
		}
	}
	// The largest accepted deadline runs and encodes; the next one up is
	// refused.
	accepted, refused := deadlineEdgeBodies(t)
	for _, path := range []string{"/v1/run", "/v1/compare"} {
		for _, body := range []string{accepted, accepted[:len(accepted)-1] + `,"runs":3}`} {
			if w := post(t, s, path, body); w.Code != http.StatusOK {
				t.Errorf("%s %s: status %d, want 200: %s", path, body, w.Code, w.Body.String())
			}
		}
		if w := post(t, s, path, refused); w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400: %s", path, refused, w.Code, w.Body.String())
		}
	}
}

// deadlineEdgeBodies returns overflowApp's application at the largest
// deadline its plan's energy bound allows, and at the next float64 up.
func deadlineEdgeBodies(tb testing.TB) (accepted, refused string) {
	g, err := andor.ParseText("task A 3ms 1ms\ntask B 2ms 1ms\nedge A -> B")
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		tb.Fatal(err)
	}
	// Positive floats order as their bits do: search the bits for the last
	// deadline whose bound is finite.
	lo, hi := math.Float64bits(plan.CTWorst), math.Float64bits(math.MaxFloat64)
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if math.IsInf(plan.EnergyBound(math.Float64frombits(mid)), 0) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	body := func(d float64) string {
		return strings.Replace(`{`+overflowApp+`}`, "1e308", strconv.FormatFloat(d, 'g', -1, 64), 1)
	}
	max := math.Float64frombits(lo)
	return body(max), body(math.Nextafter(max, math.Inf(1)))
}

// TestNonFiniteResultEncodeFails: a result JSON cannot carry — which the
// deadline checks keep a client from causing — still fails cleanly: a
// Monte-Carlo chunk's add returns errNonFinite, which checkPoolErr
// answers with a 500, and the single-run encoder answers a 500 itself,
// before any status line.
func TestNonFiniteResultEncodeFails(t *testing.T) {
	res := core.RunResult{Scheme: core.GSS, Deadline: 1, Finish: 0.5, IdleEnergy: math.Inf(1)}
	var b runChunkBuf
	b.prepare(1)
	if err := b.add(0, &res); err != errNonFinite {
		t.Errorf("runChunkBuf.add: error %v, want errNonFinite", err)
	}
	s := newTestServer(t, Config{Workers: 1})
	const want = "{\"error\":\"response encoding failed\"}\n"
	w := httptest.NewRecorder()
	if s.checkPoolErr(w, errNonFinite) {
		t.Error("checkPoolErr reported errNonFinite as success")
	}
	if w.Code != http.StatusInternalServerError || w.Body.String() != want {
		t.Errorf("checkPoolErr(errNonFinite): status %d, body %q", w.Code, w.Body.String())
	}
	var row RunRow
	fillRow(&row, 0, &res)
	w = httptest.NewRecorder()
	s.writeRowTraced(w, httptest.NewRequest(http.MethodPost, "/v1/run", nil), &row)
	if w.Code != http.StatusInternalServerError || w.Body.String() != want {
		t.Errorf("writeRowTraced: status %d, body %q", w.Code, w.Body.String())
	}
}

// TestBatchNonFiniteItemIsItsError: in a batch, an item whose deadline's
// energy bound overflows fails with the 400's message as its error,
// counted in the summary's errors; the other items keep their results.
func TestBatchNonFiniteItemIsItsError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, "/v1/batch", `{"items":[{"workload":"atr","runs":2,"seed":3},{`+overflowApp+`,"runs":2},{"workload":"atr","seed":4}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	items, sum := parseBatchBody(t, w.Body.String())
	if len(items) != 3 || items[0].Error != "" || !strings.HasPrefix(items[1].Error, "deadline ") || items[2].Error != "" {
		t.Fatalf("items %+v: want item 1 alone failed, on its deadline", items)
	}
	if items[1].Item != 1 || items[1].Runs != 0 || items[0].Runs != 2 {
		t.Errorf("item lines %+v", items)
	}
	if sum != (BatchSummary{Summary: true, Items: 3, OK: 2, Errors: 1, Runs: 3}) {
		t.Errorf("summary %+v", sum)
	}
}
