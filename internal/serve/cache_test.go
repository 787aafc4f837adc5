package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

func testKey(n int) cacheKey {
	var k cacheKey
	k.graph[0] = byte(n)
	k.graph[1] = byte(n >> 8)
	k.platform = "transmeta"
	k.procs = 2
	return k
}

func compilePlan(t testing.TB) func() (*core.Plan, error) {
	g := workload.Synthetic()
	return func() (*core.Plan, error) {
		return core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	}
}

// ownerLookup resolves key the way routePlan does: a blocking submit
// routed to the key's shard owner, which looks the key up in its shard and
// compiles on a miss.
func ownerLookup(ctx context.Context, p *Pool, key cacheKey, compile func() (*core.Plan, error)) (*core.Plan, bool, error) {
	var plan *core.Plan
	var hit bool
	var err error
	if subErr := p.submit(ctx, p.homeFor(key), true, 1, func(ctx context.Context, wk *Worker) {
		plan, hit, err = wk.OwnerPlan(key, func(*schedcache.Cache) (*core.Plan, error) { return compile() })
	}, nil); subErr != nil {
		return nil, false, subErr
	}
	return plan, hit, err
}

// TestCacheSingleCompile: N concurrent identical lookups trigger exactly
// one compile — the owner queue serializes them, so every later lookup
// finds the first one's plan — and everyone gets the same Plan.
func TestCacheSingleCompile(t *testing.T) {
	p := NewPool(4, 64, 8)
	defer p.Close()
	var compiles atomic.Int64
	mk := compilePlan(t)
	compile := func() (*core.Plan, error) {
		compiles.Add(1)
		// Stretch the compile window so every goroutine is in flight
		// before it finishes.
		time.Sleep(20 * time.Millisecond)
		return mk()
	}

	const n = 64
	plans := make([]*core.Plan, n)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			p, _, err := ownerLookup(context.Background(), p, testKey(1), compile)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			plans[i] = p
		}(i)
	}
	start.Done()
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("compile ran %d times under %d concurrent requests, want exactly 1", got, n)
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d received a different Plan pointer", i)
		}
	}
	if got := p.CachedPlans(); got != 1 {
		t.Errorf("shards hold %d entries, want 1", got)
	}
	if st := p.PlanCacheStats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats %+v, want 1 miss and %d hits", st, n-1)
	}
}

// TestCacheLRUEviction: a full shard evicts its least recently used
// entry, and the eviction counter records it.
func TestCacheLRUEviction(t *testing.T) {
	p := NewPool(1, 8, 2) // one worker: a single shard of capacity 2
	defer p.Close()
	var compiles atomic.Int64
	mk := compilePlan(t)
	compile := func() (*core.Plan, error) { compiles.Add(1); return mk() }

	get := func(k int) {
		t.Helper()
		if _, _, err := ownerLookup(context.Background(), p, testKey(k), compile); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // refresh 1: now 2 is least recently used
	get(3) // evicts 2
	if got := p.CachedPlans(); got != 2 {
		t.Fatalf("shard holds %d plans, want 2", got)
	}
	if compiles.Load() != 3 {
		t.Fatalf("%d compiles for 3 distinct keys, want 3", compiles.Load())
	}
	get(1) // still cached
	if compiles.Load() != 3 {
		t.Error("key 1 was evicted but should have been refreshed")
	}
	get(2) // was evicted: recompiles
	if compiles.Load() != 4 {
		t.Error("evicted key 2 did not recompile")
	}
	if ev := p.PlanCacheStats().Evictions; ev != 2 {
		t.Errorf("eviction counter %d, want 2", ev)
	}
}

// TestCacheFailedCompileNotCached: a failed compile leaves nothing in the
// shard, so the next lookup compiles again.
func TestCacheFailedCompileNotCached(t *testing.T) {
	p := NewPool(2, 8, 8)
	defer p.Close()
	var compiles atomic.Int64
	boom := errors.New("boom")
	fail := func() (*core.Plan, error) { compiles.Add(1); return nil, boom }

	for i := 0; i < 3; i++ {
		if _, _, err := ownerLookup(context.Background(), p, testKey(9), fail); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err %v, want boom", i, err)
		}
	}
	if compiles.Load() != 3 {
		t.Errorf("failed compile was cached: %d compiles, want 3", compiles.Load())
	}
	if got := p.CachedPlans(); got != 0 {
		t.Errorf("failed entries left in the shards: %d plans", got)
	}
}

// TestCacheWaitBoundedByContext: a plan resolution waiting behind a busy
// owner queue honours the request's deadline and answers 503 instead of
// waiting for the owner, and no compile runs on its behalf.
func TestCacheWaitBoundedByContext(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueSize: 1, RequestTimeout: 50 * time.Millisecond})
	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupy the owner...
		defer wg.Done()
		_ = s.pool.submit(context.Background(), 0, false, 1, func(context.Context, *Worker) {
			close(running)
			<-gate
		}, nil)
	}()
	<-running
	go func() { // ...and its one private queue slot
		defer wg.Done()
		_ = s.pool.submit(context.Background(), 0, true, 1, func(context.Context, *Worker) {}, nil)
	}()
	for deadline := time.Now().Add(5 * time.Second); s.pool.QueueDepth() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("owner queue never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	w := post(t, s, "/v1/plan", `{"workload":"atr","procs":2}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("waited %v behind a busy owner, want about the 50ms request timeout", took)
	}
	close(gate)
	wg.Wait()
	if got := s.pool.CachedPlans(); got != 0 {
		t.Errorf("a compile ran for the timed-out request: %d plans cached", got)
	}
}

// TestHTTPSingleCompile drives the same property through the HTTP layer:
// concurrent identical /v1/plan requests produce one cache miss (one
// core.NewPlan) and n-1 hits.
func TestHTTPSingleCompile(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueSize: 64})
	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/plan", `{"workload":"atr","procs":4}`)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	// Shard counters merge into the registry on the read paths; refresh
	// like a scrape would before asserting on the snapshot.
	s.refreshStats()
	snap := s.Metrics().Snapshot()
	misses, _ := snap.Counter(MetricCacheMisses)
	hits, _ := snap.Counter(MetricCacheHits)
	if misses != 1 {
		t.Errorf("cache misses %d, want exactly 1 (duplicate-compile suppression)", misses)
	}
	if hits != n-1 {
		t.Errorf("cache hits %d, want %d", hits, n-1)
	}
}

// TestCacheKeyDistinguishesConfigs ensures the key covers everything the
// off-line phase depends on.
func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	s := newTestServer(t, Config{})
	bodies := []string{
		`{"workload":"synthetic","procs":2}`,
		`{"workload":"synthetic","procs":4}`,
		`{"workload":"synthetic","procs":2,"platform":"xscale"}`,
		`{"workload":"synthetic","procs":2,"overheads":{"speed_comp_cycles":9000,"speed_change_us":30,"volt_slew_us_per_volt":100}}`,
		`{"workload":"atr","procs":2}`,
	}
	for i, body := range bodies {
		w := post(t, s, "/v1/plan", body)
		if w.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	s.refreshStats()
	if misses, _ := s.Metrics().Snapshot().Counter(MetricCacheMisses); misses != int64(len(bodies)) {
		t.Errorf("%d distinct configurations produced %d misses", len(bodies), misses)
	}
	// Equivalent encodings collapse: the same graph as text hits the
	// workload's entry.
	g := workload.Synthetic()
	w := post(t, s, "/v1/plan", fmt.Sprintf(`{"text":%q,"procs":2}`, andor.FormatText(g)))
	if w.Code != http.StatusOK {
		t.Fatalf("text form: status %d: %s", w.Code, w.Body.String())
	}
	var resp PlanResponse
	decodeBody(t, w, &resp)
	if !resp.Cached {
		t.Error("text rendering of a cached workload missed the cache")
	}
}
