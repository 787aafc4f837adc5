// Package loadgen is an HTTP load generator for the andord service: a
// fixed set of workers issue requests back to back (closed loop) or on a
// fixed schedule at a target aggregate rate, classify every response, and
// report latency percentiles. It is used by cmd/andorload and by the serve
// package's end-to-end tests, which is why classification knows the
// service's streaming convention: a 200 NDJSON response without a trailing
// summary line is an Incomplete — the server accepted the request and then
// failed to deliver all of it, the one outcome a correct server never
// produces.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"andorsched/internal/obs"
)

// Config parameterizes one load run.
type Config struct {
	// URL is the full target URL (e.g. http://host:port/v1/run).
	URL string
	// Body produces the i-th request body. Required.
	Body func(i int) []byte
	// Concurrency is the number of closed-loop workers (default 4).
	Concurrency int
	// Requests caps the total requests issued. 0 means run until Duration
	// elapses (one of the two must be set).
	Requests int
	// Duration bounds the run in time when Requests is 0. An unpaced run
	// stops issuing and abandons in-flight requests when it elapses; a
	// paced run issues every request due inside it and lets them finish.
	Duration time.Duration
	// RPS paces the aggregate request rate; 0 means unthrottled. Request i
	// is due at start + i/RPS, and its latency is measured from that due
	// time, not from when a worker got around to sending it: a server
	// stall that holds up every worker shows up in the latencies of the
	// requests due during it (no coordinated omission), and no due request
	// is skipped. Rates beyond what the workers can sustain therefore
	// report growing latencies rather than a quietly lower rate.
	RPS float64
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Header holds extra headers set on every request (e.g. an X-API-Key
	// identifying the tenant). Content-Type is always application/json.
	Header http.Header
	// Trace sends a fresh W3C traceparent with every request and records
	// the server's X-Trace-Id answers, so a load run can be correlated
	// with the server's flight recorder: Result.SlowestTraceID names the
	// trace of the slowest successful request, ready to be fetched from
	// GET /debug/requests/{id}.
	Trace bool
}

// Result aggregates a run's outcomes. Every issued request lands in
// exactly one of OK, Rejected, Failed or Incomplete.
type Result struct {
	// Sent is the number of requests issued.
	Sent int
	// OK are complete 2xx responses (for NDJSON: summary line present).
	OK int
	// Rejected are 429s: correct backpressure, not errors.
	Rejected int
	// Failed are transport errors and unexpected statuses.
	Failed int
	// Incomplete are accepted (200) streaming responses missing their
	// trailing summary — dropped-but-accepted work. Always zero for a
	// correct server.
	Incomplete int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// SlowestTraceID is the X-Trace-Id of the slowest OK request, when
	// Config.Trace was set and the server answered with trace IDs.
	SlowestTraceID string
	// SlowestLatency is that request's latency.
	SlowestLatency time.Duration
	// Traced counts OK responses that carried an X-Trace-Id.
	Traced int

	latencies []time.Duration // successful (OK) request latencies, sorted
}

// Percentile returns the p-th latency percentile (0 < p <= 100) over OK
// requests, or 0 when none succeeded.
func (r *Result) Percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(float64(len(r.latencies))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.latencies) {
		idx = len(r.latencies) - 1
	}
	return r.latencies[idx]
}

// Throughput returns completed (OK) requests per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// String renders the standard report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests   %d in %.2fs (%.1f ok/s)\n", r.Sent, r.Elapsed.Seconds(), r.Throughput())
	fmt.Fprintf(&b, "ok         %d\n", r.OK)
	fmt.Fprintf(&b, "rejected   %d (429 backpressure)\n", r.Rejected)
	fmt.Fprintf(&b, "failed     %d\n", r.Failed)
	fmt.Fprintf(&b, "incomplete %d (accepted but not fully delivered)\n", r.Incomplete)
	if len(r.latencies) > 0 {
		fmt.Fprintf(&b, "latency    p50 %s  p95 %s  p99 %s  max %s\n",
			r.Percentile(50).Round(time.Microsecond),
			r.Percentile(95).Round(time.Microsecond),
			r.Percentile(99).Round(time.Microsecond),
			r.latencies[len(r.latencies)-1].Round(time.Microsecond))
	}
	if r.SlowestTraceID != "" {
		fmt.Fprintf(&b, "slowest    trace %s (%s)\n",
			r.SlowestTraceID, r.SlowestLatency.Round(time.Microsecond))
	}
	return b.String()
}

// outcome classifies one response.
type outcome int

const (
	outOK outcome = iota
	outRejected
	outFailed
	outIncomplete
)

// classify inspects a response body according to the service conventions.
func classify(status int, contentType string, body []byte) outcome {
	switch {
	case status == http.StatusTooManyRequests:
		return outRejected
	case status < 200 || status > 299:
		return outFailed
	}
	if !strings.Contains(contentType, "ndjson") {
		return outOK
	}
	// Streaming response: complete iff the last line is the summary and no
	// error line interrupted the stream.
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) == 0 {
		return outIncomplete
	}
	last := lines[len(lines)-1]
	if !bytes.Contains(last, []byte(`"summary":true`)) {
		return outIncomplete
	}
	for _, line := range lines {
		if bytes.Contains(line, []byte(`"error"`)) {
			return outIncomplete
		}
	}
	return outOK
}

// Run executes the load according to cfg until the request budget, the
// duration or ctx expires, whichever comes first.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.URL == "" || cfg.Body == nil {
		return nil, fmt.Errorf("loadgen: URL and Body are required")
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: one of Requests or Duration must be set")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	paced := cfg.RPS > 0
	if cfg.Duration > 0 && !paced {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var next atomic.Int64
	type shard struct {
		ok, rejected, failed, incomplete int
		lat                              []time.Duration
		traced                           int
		slowID                           string
		slowLat                          time.Duration
	}
	shards := make([]shard, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if cfg.Requests > 0 && i >= cfg.Requests {
					return
				}
				var due time.Time
				if paced {
					offset := time.Duration(float64(i) * float64(time.Second) / cfg.RPS)
					if cfg.Duration > 0 && offset >= cfg.Duration {
						return
					}
					due = start.Add(offset)
					if wait := time.Until(due); wait > 0 {
						timer := time.NewTimer(wait)
						select {
						case <-timer.C:
						case <-ctx.Done():
							timer.Stop()
							return
						}
					}
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL,
					bytes.NewReader(cfg.Body(i)))
				if err != nil {
					sh.failed++
					continue
				}
				for k, vs := range cfg.Header {
					for _, v := range vs {
						req.Header.Add(k, v)
					}
				}
				req.Header.Set("Content-Type", "application/json")
				if cfg.Trace {
					req.Header.Set("Traceparent", obs.Traceparent(obs.NewTraceID(), obs.NewSpanID()))
				}
				t0 := time.Now() // latency origin: the send, or the due time
				if paced {
					t0 = due
				}
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return // shutdown race, not a server failure
					}
					sh.failed++
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					sh.failed++
					continue
				}
				switch classify(resp.StatusCode, resp.Header.Get("Content-Type"), body) {
				case outOK:
					sh.ok++
					lat := time.Since(t0)
					sh.lat = append(sh.lat, lat)
					if id := resp.Header.Get("X-Trace-Id"); id != "" {
						sh.traced++
						if lat > sh.slowLat {
							sh.slowLat, sh.slowID = lat, id
						}
					}
				case outRejected:
					sh.rejected++
				case outIncomplete:
					sh.incomplete++
				default:
					sh.failed++
				}
			}
		}(&shards[wkr])
	}
	wg.Wait()

	res := &Result{Elapsed: time.Since(start)}
	for i := range shards {
		sh := &shards[i]
		res.OK += sh.ok
		res.Rejected += sh.rejected
		res.Failed += sh.failed
		res.Incomplete += sh.incomplete
		res.Traced += sh.traced
		if sh.slowLat > res.SlowestLatency {
			res.SlowestLatency, res.SlowestTraceID = sh.slowLat, sh.slowID
		}
		res.latencies = append(res.latencies, sh.lat...)
	}
	res.Sent = res.OK + res.Rejected + res.Failed + res.Incomplete
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res, nil
}
