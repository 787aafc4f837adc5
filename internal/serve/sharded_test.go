package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
)

// TestSnapshotPublicationRace stress-tests the per-bucket publication of
// the plan shards under constant eviction. Owners churn shards of 12
// plans (4 buckets each) over 64 keys, while readers peek at random keys
// and scan whole buckets. Run under -race this proves the publication
// protocol. The readers assert that a peek never returns a nil plan. After
// each routed compile returns, the test asserts that the published views
// hold exactly the owners' entries: every key the owner holds (the one
// just compiled among them) is visible to peeks, every evicted key is
// gone, and the published sizes match.
func TestSnapshotPublicationRace(t *testing.T) {
	p := NewPool(2, 16, 24)
	defer p.Close()
	mk := compilePlan(t)

	const nKeys = 64
	keys := make([]cacheKey, nKeys)
	for i := range keys {
		keys[i] = testKey(i / 2)
		keys[i].procs = 2 + i%2 // pairs share a graph digest, so a bucket
		keys[i].graph[8] = byte(i / 2 * 7)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				k := keys[rng.Intn(nKeys)]
				if b := p.workers[p.homeFor(k)].plans.bucket(&k).Load(); b != nil {
					for _, e := range *b {
						if e.plan == nil {
							t.Errorf("bucket holds a nil plan for %v", e.key)
							stop.Store(true)
							return
						}
					}
				}
				if plan, ok := p.planPeek(k); ok && plan == nil {
					t.Errorf("planPeek returned ok with nil plan")
					stop.Store(true)
					return
				}
			}
		}(r)
	}

	held := make([]bool, nKeys) // the owners' entries after the last compile
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1500 && !t.Failed(); i++ {
		ki := rng.Intn(nKeys)
		k := keys[ki]
		err := p.submit(context.Background(), p.homeFor(k), true, 1, func(ctx context.Context, wk *Worker) {
			if _, _, err := wk.OwnerPlan(k, func(*schedcache.Cache) (*core.Plan, error) { return mk() }); err != nil {
				t.Errorf("OwnerPlan: %v", err)
			}
			// The owner's map may be read here, on the owner's goroutine.
			for j := range keys {
				if p.homeFor(keys[j]) == wk.pw.id {
					_, held[j] = wk.pw.plans.entries[keys[j]]
				}
			}
		}, nil)
		if err != nil {
			t.Fatalf("routed submit: %v", err)
		}
		if !held[ki] {
			t.Fatalf("key %d not held by its owner right after its compile", ki)
		}
		want := 0
		for j := range keys {
			if _, ok := p.planPeek(keys[j]); ok != held[j] {
				t.Errorf("after compile %d: peek of key %d = %v, owner holds it: %v", i, j, ok, held[j])
			}
			if held[j] {
				want++
			}
		}
		if got := p.CachedPlans(); got != want {
			t.Errorf("after compile %d: CachedPlans = %d, owners hold %d", i, got, want)
		}
	}
	stop.Store(true)
	wg.Wait()

	st := p.PlanCacheStats()
	if st.Evictions == 0 {
		t.Error("stress never evicted; shard capacity too large for the test to mean anything")
	}
	if st.Hits+st.Misses == 0 {
		t.Error("stress recorded no lookups")
	}
}

// TestPoolStatsConservationOnClose pins the graveyard bugfix: draining
// the pool must not lose per-worker cache counters — the merged totals
// after Close equal the totals before it, and hits+misses account for
// every owner lookup submitted. Chunked fan-outs racing the drain must
// leave the queued-units gauge balanced too: every unit enqueued is
// eventually picked up (or never admitted), so the gauge returns to zero.
func TestPoolStatsConservationOnClose(t *testing.T) {
	p := NewPool(3, 16, 6)
	mk := compilePlan(t)
	const ops = 300
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < ops; i++ {
		k := testKey(rng.Intn(20))
		if err := p.submit(context.Background(), p.homeFor(k), true, 1, func(ctx context.Context, wk *Worker) {
			_, _, _ = wk.OwnerPlan(k, func(*schedcache.Cache) (*core.Plan, error) { return mk() })
		}, nil); err != nil {
			t.Fatalf("routed submit: %v", err)
		}
	}
	// Race chunked submissions against the drain below: their units ride
	// the same accounting the counters do.
	var fanWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		fanWG.Add(1)
		go func() {
			defer fanWG.Done()
			for i := 0; i < 50; i++ {
				_ = p.fanOut(context.Background(), 3, 3, 7,
					func(int, int, int) func(context.Context, *Worker) error {
						return func(context.Context, *Worker) error { return nil }
					})
			}
		}()
	}
	before := p.PlanCacheStats()
	if got := before.Hits + before.Misses; got != ops {
		t.Fatalf("hits+misses = %d before close, want %d", got, ops)
	}
	p.Close()
	after := p.PlanCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Fatalf("counters changed across Close: before %+v, after %+v", before, after)
	}
	// Closing again must stay idempotent and keep the totals.
	p.Close()
	if again := p.PlanCacheStats(); again != after {
		t.Fatalf("counters changed across second Close: %+v vs %+v", again, after)
	}
	fanWG.Wait()
	if units := p.unitsQueued.Load(); units != 0 {
		t.Fatalf("queued-units gauge = %d after drain, want 0", units)
	}
}

// TestWarmRunNoServeMutexContention pins the "zero shared mutable state"
// claim of the warm request path with the runtime's own instrumentation:
// warmed /v1/run requests hammered concurrently must produce no
// mutex-contention samples with a serve-package frame. (Tracing and
// admission are off, as on a tuned production path.) The hammer
// goroutines drive ServeHTTP directly and report failures only after the
// load: the post helper's t.Helper and t.Errorf take testing's own locks,
// whose contention would show up under this package's frames — and the
// mutex profile is process-cumulative, so one such sample would fail
// every later run in the process.
func TestWarmRunNoServeMutexContention(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueSize: 64, Trace: TraceConfig{Disabled: true}})
	body := `{"workload":"atr","procs":4,"scheme":"GSS","seed":7}`
	// Hold the collector off for the measurement. A GC empties every
	// sync.Pool, and the first Get after it re-pins the pool under the
	// runtime's global pool lock; concurrent re-pins then show up as
	// contention under whichever serve frame called Get (encoding/json's
	// encoder pool via writeJSON), though no serve state is shared. The
	// warmup below runs with the collector off, so every pool is pinned
	// before profiling starts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the shard (and every worker's arena) before profiling.
	for i := 0; i < 8; i++ {
		if w := post(t, s, "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
		}
	}
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	var wg sync.WaitGroup
	failed := make([]*httptest.ResponseRecorder, 8)
	for g := range failed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					failed[g] = w
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, w := range failed {
		if w != nil {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("reading mutex profile: %v", err)
	}
	profile := buf.String()
	for _, line := range strings.Split(profile, "\n") {
		if strings.Contains(line, "internal/serve") {
			t.Fatalf("mutex contention inside internal/serve on the warmed run path:\n%s", profile)
		}
	}
}

// TestHeteroRunClassEnergy pins the per-class energy breakdown on the
// wire: heterogeneous runs carry class slices whose totals reproduce the
// aggregate energies, and homogeneous responses don't grow new fields.
func TestHeteroRunClassEnergy(t *testing.T) {
	s := newTestServer(t, Config{})
	relClose := func(a, b float64) bool {
		scale := 1.0
		if m := a; m < 0 {
			m = -m
		}
		if ab, bb := a, b; true {
			if ab < 0 {
				ab = -ab
			}
			if bb < 0 {
				bb = -bb
			}
			if ab > scale {
				scale = ab
			}
			if bb > scale {
				scale = bb
			}
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1e-9*scale
	}

	w := post(t, s, "/v1/run", `{"workload":"atr","hetero":"biglittle","scheme":"GSS","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var row RunRow
	decodeBody(t, w, &row)
	if len(row.ClassGrossJ) != 2 || len(row.ClassIdleJ) != 2 {
		t.Fatalf("class slices (%d,%d), want (2,2): %s", len(row.ClassGrossJ), len(row.ClassIdleJ), w.Body.String())
	}
	var gross, idle float64
	for c := range row.ClassGrossJ {
		gross += row.ClassGrossJ[c]
		idle += row.ClassIdleJ[c]
	}
	if want := row.ActiveJ + row.OverheadJ; !relClose(gross, want) {
		t.Errorf("Σ class_gross_j = %g, want active+overhead = %g", gross, want)
	}
	if !relClose(idle, row.IdleJ) {
		t.Errorf("Σ class_idle_j = %g, want idle_j = %g", idle, row.IdleJ)
	}

	// Streaming summary carries the per-class means.
	w = post(t, s, "/v1/run", `{"workload":"atr","hetero":"biglittle","scheme":"GSS","seed":3,"runs":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var sum RunSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Summary {
		t.Fatalf("last line is not a summary: %q (%v)", lines[len(lines)-1], err)
	}
	if len(sum.MeanClassGrossJ) != 2 || len(sum.MeanClassIdleJ) != 2 {
		t.Fatalf("summary class means (%d,%d), want (2,2)", len(sum.MeanClassGrossJ), len(sum.MeanClassIdleJ))
	}

	// Homogeneous responses stay free of the new fields.
	w = post(t, s, "/v1/run", `{"workload":"atr","procs":2,"scheme":"GSS","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("homogeneous status %d: %s", w.Code, w.Body.String())
	}
	if strings.Contains(w.Body.String(), "class_gross_j") {
		t.Errorf("homogeneous run grew class fields: %s", w.Body.String())
	}
}
