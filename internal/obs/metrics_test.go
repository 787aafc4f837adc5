package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if m.Counter("c") != c {
		t.Error("counter lookup is not idempotent")
	}

	g := m.Gauge("g")
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}

	h := m.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %g, want 556.5", h.Sum())
	}

	snap := m.Snapshot()
	hs, ok := snap.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// ≤1: {0.5, 1}; ≤10: {5}; ≤100: {50}; overflow: {500}.
	want := []int64{2, 1, 1, 1}
	for i, n := range hs.Counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if hs.Mean() != 556.5/5 {
		t.Errorf("mean = %g", hs.Mean())
	}
	if v, ok := snap.Counter("c"); !ok || v != 5 {
		t.Errorf("snapshot counter = %d,%v", v, ok)
	}
	if v, ok := snap.Gauge("g"); !ok || v != 4 {
		t.Errorf("snapshot gauge = %g,%v", v, ok)
	}
	if _, ok := snap.Counter("nope"); ok {
		t.Error("lookup of unknown counter succeeded")
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := NewMetrics()
	for _, n := range []string{"z", "a", "m"} {
		m.Counter(n).Inc()
		m.Gauge(n).Set(1)
		m.Histogram(n, []float64{1}).Observe(0)
	}
	s := m.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Errorf("counters not sorted: %v", s.Counters)
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name >= s.Histograms[i].Name {
			t.Errorf("histograms not sorted")
		}
	}
}

// TestMetricsConcurrent hammers one registry from many goroutines; run with
// -race (part of the tier-1 verify recipe) to prove the shared-registry
// paths the parallel experiment runner uses are data-race-free.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("shared.counter")
			g := m.Gauge("shared.gauge")
			h := m.Histogram("shared.hist", DefaultTimeBuckets)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(1e-4)
				if i%100 == 0 {
					m.Snapshot() // concurrent reads must be safe too
				}
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if v, _ := s.Counter("shared.counter"); v != workers*iters {
		t.Errorf("counter = %d, want %d", v, workers*iters)
	}
	if v, _ := s.Gauge("shared.gauge"); v != workers*iters*0.5 {
		t.Errorf("gauge = %g, want %g", v, workers*iters*0.5)
	}
	if h, _ := s.Histogram("shared.hist"); h.Count != workers*iters {
		t.Errorf("hist count = %d, want %d", h.Count, workers*iters)
	}
}

func TestSummary(t *testing.T) {
	m := NewMetrics()
	m.Counter("runs").Add(3)
	m.Gauge("busy_seconds").Set(0.25)
	m.Histogram("exec", DefaultTimeBuckets).Observe(2e-3)
	out := m.Snapshot().Summary()
	for _, want := range []string{"counters:", "runs", "gauges:", "busy_seconds",
		"histogram exec: count 1", "≤1ms:0", "≤10ms:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Event(Event{Kind: EvTaskDispatch, Time: 1})
	c.Event(Event{Kind: EvTaskFinish, Time: 2})
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	ev := c.Events()
	ev[0].Time = 99 // the returned slice is a copy
	if c.Events()[0].Time != 1 {
		t.Error("Events() aliases internal storage")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
