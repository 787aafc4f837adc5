package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"andorsched/internal/obs"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name, ct, body string
		status         int
		want           outcome
	}{
		{"plain ok", "application/json", `{"run":0}`, 200, outOK},
		{"rejected", "application/json", `{"error":"full"}`, 429, outRejected},
		{"server error", "application/json", `{"error":"x"}`, 500, outFailed},
		{"bad request", "application/json", `{"error":"x"}`, 400, outFailed},
		{"ndjson complete", "application/x-ndjson",
			"{\"run\":0}\n{\"summary\":true,\"runs\":1}\n", 200, outOK},
		{"ndjson truncated", "application/x-ndjson",
			"{\"run\":0}\n{\"run\":1}\n", 200, outIncomplete},
		{"ndjson error line", "application/x-ndjson",
			"{\"run\":0}\n{\"error\":\"queue full\"}\n", 200, outIncomplete},
		{"ndjson empty", "application/x-ndjson", "", 200, outIncomplete},
	}
	for _, tc := range cases {
		if got := classify(tc.status, tc.ct, []byte(tc.body)); got != tc.want {
			t.Errorf("%s: classify = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRunClosedLoop(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n%5 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprintln(w, `{"run":0}`)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Body:        func(i int) []byte { return []byte(`{}`) },
		Concurrency: 4,
		Requests:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 100 {
		t.Errorf("sent %d, want 100", res.Sent)
	}
	if res.OK+res.Rejected != 100 || res.Failed != 0 || res.Incomplete != 0 {
		t.Errorf("unexpected outcome mix: %+v", res)
	}
	if res.Rejected != 20 {
		t.Errorf("rejected %d, want 20", res.Rejected)
	}
	if res.Percentile(50) <= 0 || res.Percentile(99) < res.Percentile(50) {
		t.Errorf("implausible percentiles: p50=%v p99=%v", res.Percentile(50), res.Percentile(99))
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

func TestRunDurationBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	start := time.Now()
	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Body:        func(i int) []byte { return []byte(`{}`) },
		Concurrency: 2,
		Duration:    200 * time.Millisecond,
		RPS:         50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("duration-bounded run took %v", el)
	}
	if res.Sent == 0 {
		t.Error("no requests issued")
	}
	// 50 RPS over 200ms is ~10 requests; allow broad slack but catch an
	// unthrottled runaway.
	if res.Sent > 40 {
		t.Errorf("pacing ineffective: %d requests in 200ms at 50 RPS", res.Sent)
	}
}

func TestRunExtremeRPS(t *testing.T) {
	// Regression: RPS high enough that time.Second/RPS rounds to a zero
	// interval used to panic time.NewTicker. The clamp makes such rates
	// effectively unthrottled; the run must still complete normally.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Body:        func(i int) []byte { return []byte(`{}`) },
		Concurrency: 2,
		Requests:    20,
		RPS:         2e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 20 || res.OK != 20 {
		t.Errorf("sent=%d ok=%d, want 20/20", res.Sent, res.OK)
	}
}

func TestRunSetsHeaders(t *testing.T) {
	var gotKey atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotKey.Store(r.Header.Get("X-API-Key"))
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	hdr := http.Header{}
	hdr.Set("X-API-Key", "tenant-a")
	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Body:     func(i int) []byte { return []byte(`{}`) },
		Requests: 4,
		Header:   hdr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 4 {
		t.Errorf("ok=%d, want 4", res.OK)
	}
	if k, _ := gotKey.Load().(string); k != "tenant-a" {
		t.Errorf("X-API-Key = %q, want tenant-a", k)
	}
}

func TestRunTrace(t *testing.T) {
	// A tracing run sends a valid traceparent on every request; the slowest
	// OK response's X-Trace-Id is surfaced for the /debug/requests lookup.
	var slow atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, _, ok := obs.ParseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintln(w, `{"error":"missing traceparent"}`)
			return
		}
		if slow.Add(1) == 7 {
			time.Sleep(50 * time.Millisecond) // make one request the clear slowest
			w.Header().Set("X-Trace-Id", "feed000000000000000000000000beef")
		} else {
			w.Header().Set("X-Trace-Id", tid.String())
		}
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Body:     func(i int) []byte { return []byte(`{}`) },
		Requests: 12,
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 12 || res.Traced != 12 {
		t.Errorf("ok=%d traced=%d, want 12/12", res.OK, res.Traced)
	}
	if res.SlowestTraceID != "feed000000000000000000000000beef" {
		t.Errorf("slowest trace %q, want the delayed request's ID", res.SlowestTraceID)
	}
	if res.SlowestLatency < 50*time.Millisecond {
		t.Errorf("slowest latency %v, want >= 50ms", res.SlowestLatency)
	}
	if !strings.Contains(res.String(), res.SlowestTraceID) {
		t.Error("report does not mention the slowest trace ID")
	}
}

func TestRunNoTraceByDefault(t *testing.T) {
	var sawTraceparent atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Traceparent") != "" {
			sawTraceparent.Store(true)
		}
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Body:     func(i int) []byte { return []byte(`{}`) },
		Requests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawTraceparent.Load() {
		t.Error("untraced run sent a traceparent header")
	}
	if res.SlowestTraceID != "" || res.Traced != 0 {
		t.Errorf("untraced run reported traces: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("no error for empty config")
	}
	if _, err := Run(context.Background(), Config{URL: "http://x", Body: func(int) []byte { return nil }}); err == nil {
		t.Error("no error without a stop condition")
	}
}

// TestRunPacedNoCoordinatedOmission: a paced run measures every request
// from its due time and never skips a due request. One request stalls
// the server's only client connection for ~200ms; the requests due during
// the stall must still be sent, and their latencies must include the
// time they spent waiting for it.
func TestRunPacedNoCoordinatedOmission(t *testing.T) {
	const stall = 200 * time.Millisecond
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 11 { // the request due at 100ms
			time.Sleep(stall)
		}
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	const rps, duration = 100, time.Second
	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Body:        func(i int) []byte { return []byte(`{}`) },
		Concurrency: 1,
		Duration:    duration,
		RPS:         rps,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int(rps * duration.Seconds())
	if res.Sent < want-1 || res.Sent > want+1 || res.OK != res.Sent {
		t.Fatalf("sent %d (ok %d), want %d ± 1: due requests were dropped", res.Sent, res.OK, want)
	}
	// Requests due at 110ms … 200ms were sent only after the stall ended
	// at ~300ms: ten latencies of at least ~100ms, plus the stalled one.
	slow := 0
	for _, lat := range res.latencies {
		if lat >= 90*time.Millisecond {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("%d latencies >= 90ms, want >= 10: the stall is missing from the requests due during it (p99 %v)",
			slow, res.Percentile(99))
	}
	if max := res.latencies[len(res.latencies)-1]; max < stall {
		t.Errorf("max latency %v, want >= the %v stall", max, stall)
	}
}
