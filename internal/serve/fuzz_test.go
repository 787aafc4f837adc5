package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzStatuses are the statuses the decode path may legitimately answer.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests:       true,
	http.StatusServiceUnavailable:    true,
}

// FuzzRunEndpoint drives arbitrary bytes through the real HTTP decode path
// of POST /v1/run — middleware, size limit, JSON decode, graph parsing and
// validation — and checks the server never panics and never answers
// outside its documented status set. The corpus seeds every .andor
// workload shipped in the repo (wrapped as request bodies) plus malformed,
// truncated and oversized inputs.
func FuzzRunEndpoint(f *testing.F) {
	// One server for the whole fuzz run; runs are capped tiny so even a
	// "valid" fuzz input finishes fast.
	s := New(Config{
		Workers:        2,
		QueueSize:      8,
		MaxBodyBytes:   1 << 18,
		MaxRuns:        4,
		RequestTimeout: 5 * time.Second,
	})
	defer s.Close()

	files, err := filepath.Glob(filepath.Join("..", "..", "workloads", "*.andor"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no .andor corpus files found")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"text": string(src), "runs": 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		// Truncated versions of a valid body exercise every partial-JSON
		// prefix class.
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-1])
	}
	f.Add([]byte(`{"workload":"atr","runs":2}`))
	f.Add([]byte(`{"graph":{"name":"g","nodes":[{"name":"a","kind":"compute","wcet":1,"acet":0.5}],"edges":[]}}`))
	f.Add([]byte(`{"text":"task A 1ms 1ms\ntask B 2ms"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"atr"} {"workload":"atr"}`))
	f.Add([]byte(`{"text":"` + strings.Repeat("task X 1ms 1ms\\n", 64) + `"}`))
	f.Add([]byte(`{"deadline":-1e308,"load":1e-300,"workload":"atr"}`))
	f.Add([]byte(`[[[[[[[[[[`))
	for _, body := range nonFiniteBodies {
		f.Add([]byte(body))
	}
	for _, body := range hugeTimeBodies {
		f.Add([]byte(body))
	}
	accepted, refused := deadlineEdgeBodies(f)
	f.Add([]byte(accepted))
	f.Add([]byte(refused))

	panicsBefore, _ := s.Metrics().Snapshot().Counter(MetricPanics)
	if panicsBefore != 0 {
		f.Fatal("panic counter dirty before fuzzing")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := fuzzPost(t, s, "/v1/run", data)
		if !ok {
			return
		}
		// A 200 is a run row or a stream of them.
		first := body
		if idx := bytes.IndexByte(body, '\n'); idx >= 0 {
			first = first[:idx]
		}
		var row RunRow
		if err := json.Unmarshal(first, &row); err != nil {
			t.Fatalf("200 with undecodable first row %q: %v", truncate(first), err)
		}
	})
}

// FuzzCompareEndpoint drives arbitrary bytes through the decode and
// validation path of POST /v1/compare with the same never-panic and
// status-set checks as FuzzRunEndpoint. Workers: 2 puts large requests on
// the chunked fan-out path, where a panic would escape the middleware.
func FuzzCompareEndpoint(f *testing.F) {
	s := New(Config{
		Workers:        2,
		QueueSize:      8,
		MaxBodyBytes:   1 << 18,
		MaxRuns:        8,
		RequestTimeout: 5 * time.Second,
	})
	defer s.Close()

	f.Add([]byte(`{"workload":"atr","schemes":["all"],"runs":1024819115206086201}`))
	f.Add([]byte(`{"workload":"atr","schemes":["NPM","GSS","AS"],"runs":2,"load":0.5,"seed":5}`))
	f.Add([]byte(`{"workload":"synthetic","schemes":["GSS","AS"],"runs":4,"chunks":2}`))
	f.Add([]byte(`{"text":"task A 1ms 1ms\ntask B 2ms","schemes":["ORA"],"runs":4}`))
	for _, body := range hugeTimeBodies {
		f.Add([]byte(body))
	}
	// The largest deadline accepted for a small application, and the next
	// value up, over a compare small enough to run.
	accepted, refused := deadlineEdgeBodies(f)
	for _, body := range []string{accepted, refused} {
		f.Add([]byte(body[:len(body)-1] + `,"schemes":["NPM","GSS"],"runs":2}`))
	}
	f.Add([]byte(`{"workload":"atr","schemes":["bogus"]}`))
	f.Add([]byte(`{"workload":"atr","runs":-9223372036854775808}`))
	f.Add([]byte(`{"workload":"atr","schemes":[],"chunks":65}`))
	f.Add([]byte(`{"workload":"atr","deadline":1e-9}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, ok := fuzzPost(t, s, "/v1/compare", data)
		if !ok {
			return
		}
		var resp CompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("200 with undecodable body %q: %v", truncate(body), err)
		}
	})
}

// fuzzPost sends one fuzz input to path and applies the checks every
// decode-path fuzzer shares: no recovered panic (the middleware turns
// panics into counted 500s, and a recovered panic is still a bug), a
// status from fuzzStatuses, and a JSON error message on every non-200. It
// returns the body and whether the answer was a 200.
func fuzzPost(t *testing.T, s *Server, path string, data []byte) ([]byte, bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != 0 {
		t.Fatalf("handler panicked on %d-byte input %q", len(data), truncate(data))
	}
	if !fuzzStatuses[w.Code] {
		t.Fatalf("status %d on input %q; body %s", w.Code, truncate(data), w.Body.String())
	}
	if w.Code != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d with non-JSON error body %q", w.Code, w.Body.String())
		}
		return nil, false
	}
	return w.Body.Bytes(), true
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return fmt.Sprintf("%s... (%d bytes)", b[:200], len(b))
	}
	return string(b)
}
