package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestWorkerRunZeroAlloc pins the steady-state contract the pool relies
// on: a warmed worker executing the /v1/run inner loop — reseed, RunInto,
// fillRow, appendRow into a reused buffer — allocates nothing.
func TestWorkerRunZeroAlloc(t *testing.T) {
	plan, err := core.NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	src := exectime.NewSource(1)
	wk := &Worker{Arena: core.NewArena(), Src: src, Sampler: exectime.NewSampler(src)}
	cfg := core.RunConfig{Scheme: core.AS, Deadline: plan.CTWorst / 0.5, Sampler: wk.Sampler}
	var row RunRow
	var out []byte
	seed := uint64(0)
	run := func() {
		wk.Src.Reseed(seed)
		seed++
		if err := plan.RunInto(cfg, wk.Arena, &wk.Res); err != nil {
			t.Fatal(err)
		}
		fillRow(&row, 0, &wk.Res)
		out, _ = appendRow(out[:0], &row)
	}
	for i := 0; i < 10; i++ {
		run() // warm the arena, the row's path buffer and out
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warmed worker run path allocates %.1f times per run, want 0", allocs)
	}
}

// TestWriteJSONPooledAllocs pins the encoder pool's contract: a warmed
// writeJSON — pooled buffer, pooled encoder, one Write to the wire — stays
// within the ISSUE's ≤8 allocs/op budget (the remaining allocations are
// json.Marshal internals, not buffer churn).
func TestWriteJSONPooledAllocs(t *testing.T) {
	row := RunRow{Scheme: "GSS", DeadlineS: 0.5, FinishS: 0.4, MetDeadline: true,
		EnergyJ: 1.25, ActiveJ: 1.0, OverheadJ: 0.05, IdleJ: 0.2, SpeedChanges: 7,
		Path: []int{1, 0, 2}}
	w := newReusableRecorder()
	run := func() {
		w.reset()
		writeJSON(w, http.StatusOK, &row)
		if w.status != http.StatusOK || w.body.Len() == 0 {
			t.Fatal("writeJSON produced no response")
		}
	}
	run() // populate the pool
	if allocs := testing.AllocsPerRun(100, run); allocs > 8 {
		t.Errorf("warmed writeJSON allocates %.1f times per op, want <= 8", allocs)
	}
}

// reusableRecorder is a ResponseWriter whose header map and body buffer
// survive reset, so alloc measurements of the full handler path count the
// server's work, not the test harness's.
type reusableRecorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newReusableRecorder() *reusableRecorder {
	return &reusableRecorder{hdr: make(http.Header, 4)}
}

func (r *reusableRecorder) Header() http.Header { return r.hdr }
func (r *reusableRecorder) WriteHeader(c int)   { r.status = c }
func (r *reusableRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *reusableRecorder) reset() {
	for k := range r.hdr {
		delete(r.hdr, k)
	}
	r.body.Reset()
	r.status = 0
}

// minPerRun measures the allocations and bytes per call of f as
// testing.AllocsPerRun measures allocations — one warm-up call, then runs
// calls at GOMAXPROCS 1 — reps times, and keeps the least of each. Under
// the race detector sync.Pool drops entries at random, and a request
// whose pooled state was dropped rebuilds it; the minimum is the cost
// with the pools warm.
func minPerRun(reps, runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// TestRunRequestWarmAllocs bounds the whole warmed single-run /v1/run
// ServeHTTP path — middleware, decode, plan-cache hit, pool round trip,
// simulation, pooled encode — with a reusable request and recorder so only
// the server's own allocations are counted. The irreducible floor is
// request plumbing (context.WithTimeout, WithContext, MaxBytesReader):
// the body is read into a pooled buffer and decoded in one pass, the
// handler's request state and the pool job are pooled, and the encoder
// pool removed the encoding term (measured ~45 allocs/op before pooling).
//
// Measured twice — tracing off and on — to pin the tracing budget: the
// traced path may add at most 8 allocations (it actually adds ~4: the
// trace-ID hex string, its header value, the trace context value, and the
// phase-observation closure; the record and status writer are pooled).
//
// A warmed .andor text body must stay within 6 allocations of the
// workload body: the text memo keys it without parsing (ParseText alone
// allocates ~5.6 KB in ~11 allocations on this graph) or rendering it. Spelled as
// json.Marshal spells it, with \u003e escapes, the text may add at most 64
// bytes per request: it is unescaped into a pooled buffer and hashed
// there, never copied into a string.
func TestRunRequestWarmAllocs(t *testing.T) {
	measure := func(cfg Config, body string) (allocs, bytes float64) {
		s := newTestServer(t, cfg)
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
		w := newReusableRecorder()
		run := func() {
			rd.Reset(body)
			w.reset()
			s.Handler().ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body.String())
			}
		}
		for i := 0; i < 5; i++ {
			run() // compile the plan, warm the worker arena and the pools
		}
		return minPerRun(20, 1, run)
	}
	const body = `{"workload":"atr","scheme":"GSS","seed":11}`
	untraced := Config{Workers: 1, QueueSize: 8, Trace: TraceConfig{Disabled: true}}
	off, offBytes := measure(untraced, body)
	on, _ := measure(Config{Workers: 1, QueueSize: 8}, body)
	t.Logf("warmed /v1/run ServeHTTP: %.1f allocs/op (%.0f B) untraced, %.1f traced", off, offBytes, on)
	if off > 32 {
		t.Errorf("warmed untraced /v1/run allocates %.1f times per op, want <= 32", off)
	}
	if on > off+8 {
		t.Errorf("tracing adds %.1f allocs per request (%.1f -> %.1f), budget is +8",
			on-off, off, on)
	}

	text := andor.FormatText(workload.Random(4, andor.DefaultRandomOpts())) // 24 nodes, ~1.5 KB
	textBody := fmt.Sprintf(`{"text":%q,"scheme":"GSS","seed":11}`, text)
	textOff, _ := measure(untraced, textBody)
	t.Logf("warmed /v1/run ServeHTTP with a %d-byte text: %.1f allocs/op untraced", len(text), textOff)
	if textOff > off+6 {
		t.Errorf("warmed text body allocates %.1f times per op, workload body %.1f; budget is +6",
			textOff, off)
	}
	marshalled, err := json.Marshal(map[string]any{"text": text, "scheme": "GSS", "seed": 11})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(marshalled), `\u003e`) {
		t.Fatalf("json.Marshal'd body has no \\u003e escape: %s", marshalled)
	}
	_, marshalledBytes := measure(untraced, string(marshalled))
	t.Logf("warmed /v1/run ServeHTTP with the json.Marshal'd text: %.0f B/op untraced", marshalledBytes)
	if marshalledBytes > offBytes+64 {
		t.Errorf("warmed json.Marshal'd text body allocates %.0f B per op, workload body %.0f B; budget is +64",
			marshalledBytes, offBytes)
	}
}

// TestRunRequestAllocsPerRun: a warmed Monte-Carlo /v1/run allocates
// nothing per run. Workers encode rows into pooled chunk buffers and the
// handler writes each chunk whole, so growing a chunked request tenfold,
// from 200 to 2000 runs over the same two chunks, may add only a few
// allocations: a chunk buffer the pool dropped is rebuilt in a fixed
// number of allocations (its rows sized from the first), whatever its run
// count.
func TestRunRequestAllocsPerRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	measure := func(runs int) float64 {
		body := fmt.Sprintf(`{"workload":"atr","scheme":"GSS","runs":%d,"seed":11}`, runs)
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
		w := newReusableRecorder()
		run := func() {
			rd.Reset(body)
			w.reset()
			s.Handler().ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body.String())
			}
		}
		for i := 0; i < 3; i++ {
			run() // compile, warm the arenas, size the pooled chunk buffers
		}
		allocs, _ := minPerRun(3, 10, run)
		return allocs
	}
	large := measure(2000) // first, so the pooled buffers fit both sizes
	small := measure(200)
	t.Logf("allocs/op: runs=200 %.1f, runs=2000 %.1f", small, large)
	if large-small > 12 {
		t.Errorf("runs=2000 allocates %.1f more times than runs=200 (%.1f vs %.1f); want <= 12, independent of runs",
			large-small, large, small)
	}
}

// TestTextMissAllocs bounds a text request that misses the plan cache:
// parsing its text, validating and decomposing it and compiling its plan
// build the graph, its sections and the plan in a few slabs each, so a
// miss allocates at most 108 times (216 when each node, edge list,
// section and task template was an object of its own). The server cycles
// over twice as many texts as its plan cache holds, so every request
// misses.
func TestTextMissAllocs(t *testing.T) {
	bodies := make([]string, 256)
	for i := range bodies {
		text := andor.FormatText(workload.Random(uint64(i+1), andor.DefaultRandomOpts()))
		bodies[i] = fmt.Sprintf(`{"text":%q,"scheme":"GSS","seed":%d}`, text, i)
	}
	s := newTestServer(t, Config{Workers: 1, QueueSize: 8, CacheSize: 128,
		Trace: TraceConfig{Disabled: true}})
	rd := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	w := newReusableRecorder()
	next := 0
	run := func() {
		rd.Reset(bodies[next%len(bodies)])
		next++
		w.reset()
		s.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.String())
		}
	}
	for range bodies {
		run() // memoize the texts, fill the plan cache
	}
	misses := s.pool.PlanCacheStats().Misses
	allocs, bytes := minPerRun(3, len(bodies), run)
	if n := s.pool.PlanCacheStats().Misses - misses; n != int64(1+3*len(bodies)) {
		t.Fatalf("%d of %d requests missed the plan cache", n, 1+3*len(bodies))
	}
	t.Logf("a text miss: %.1f allocs, %.0f B", allocs, bytes)
	if allocs > 108 {
		t.Errorf("a text miss allocates %.1f times, want <= 108", allocs)
	}
}

// TestTextMissBytesIndependentOfCacheSize: a text request that misses the
// plan cache allocates the same at any cache size. The owner republishes
// only the buckets of the keys it inserts and evicts, never a copy of the
// whole shard, so the miss cost must not grow with -cache: the bytes per
// miss at a cache of 128 plans stay within 10% of those at 8. Both
// servers cycle over the same 256 texts, so every request misses. Both get
// the same text memo: sized from -cache, the memo of the small server
// would hold 64 of the 256 texts, and its parse-digest-insert on every
// request would cost ~9% of the bound on its own.
func TestTextMissBytesIndependentOfCacheSize(t *testing.T) {
	bodies := make([]string, 256)
	for i := range bodies {
		text := andor.FormatText(workload.Random(uint64(i+1), andor.DefaultRandomOpts()))
		bodies[i] = fmt.Sprintf(`{"text":%q,"scheme":"GSS","seed":%d}`, text, i)
	}
	missBytes := func(cacheSize int) float64 {
		s := newTestServer(t, Config{Workers: 1, QueueSize: 8, CacheSize: cacheSize,
			Trace: TraceConfig{Disabled: true}})
		s.texts = newTextMemo(128)
		rd := strings.NewReader("")
		req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
		w := newReusableRecorder()
		pass := func() {
			for _, body := range bodies {
				rd.Reset(body)
				w.reset()
				s.Handler().ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Fatalf("status %d: %s", w.status, w.body.String())
				}
			}
		}
		pass() // memoize the texts, fill the plan cache
		misses := s.pool.PlanCacheStats().Misses
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		if n := s.pool.PlanCacheStats().Misses - misses; n != int64(len(bodies)) {
			t.Fatalf("cache %d: %d of %d requests missed", cacheSize, n, len(bodies))
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(bodies))
	}
	small, large := missBytes(8), missBytes(128)
	t.Logf("bytes per text miss: %.0f at -cache 8, %.0f at -cache 128", small, large)
	if math.Abs(large-small) > 0.10*small {
		t.Errorf("a text miss allocates %.0f B at -cache 128 and %.0f B at -cache 8; want within 10%%", large, small)
	}
}
