package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/workload"
)

// TestEquivalentEncodingsShareOneEntry: one graph submitted as a named
// workload, as its canonical text, as text with different whitespace and
// comments, and as JSON compiles once. The text memo keys each distinct
// text separately, but all of them map to one graph digest.
func TestEquivalentEncodingsShareOneEntry(t *testing.T) {
	s := newTestServer(t, Config{})
	g := workload.Synthetic()
	text := andor.FormatText(g)
	spaced := "# the synthetic workload, re-spaced\n\n" +
		strings.ReplaceAll(strings.ReplaceAll(text, " ", "  \t"), "\n", "   # note\n\n")
	js, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"workload":"synthetic","procs":2}`,
		fmt.Sprintf(`{"text":%q,"procs":2}`, text),
		fmt.Sprintf(`{"text":%q,"procs":2}`, spaced),
		fmt.Sprintf(`{"graph":%s,"procs":2}`, js),
	}
	// Twice round: the second pass resolves the texts through the memo.
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			w := post(t, s, "/v1/plan", body)
			if w.Code != http.StatusOK {
				t.Fatalf("pass %d body %d: status %d: %s", pass, i, w.Code, w.Body.String())
			}
			var resp PlanResponse
			decodeBody(t, w, &resp)
			if wantCached := pass > 0 || i > 0; resp.Cached != wantCached {
				t.Errorf("pass %d body %d: cached %v, want %v", pass, i, resp.Cached, wantCached)
			}
		}
	}
	s.refreshStats()
	if misses, _ := s.Metrics().Snapshot().Counter(MetricCacheMisses); misses != 1 {
		t.Errorf("%d cache misses, want 1", misses)
	}
	if n := s.pool.CachedPlans(); n != 1 {
		t.Errorf("%d cached plans, want 1", n)
	}
}

// TestTextMemoEvictedPlanRecompiles: with room for one plan, a text whose
// plan was evicted is keyed through the memo, parsed on the peek miss,
// recompiled, and answered byte-identically to a fresh server.
func TestTextMemoEvictedPlanRecompiles(t *testing.T) {
	textA := andor.FormatText(workload.Random(1, andor.DefaultRandomOpts()))
	textB := andor.FormatText(workload.Random(2, andor.DefaultRandomOpts()))
	body := func(text string) string {
		return fmt.Sprintf(`{"text":%q,"procs":2,"scheme":"AS","seed":9,"runs":4}`, text)
	}
	want := post(t, newTestServer(t, Config{}), "/v1/run", body(textA))
	if want.Code != http.StatusOK {
		t.Fatalf("fresh server: status %d: %s", want.Code, want.Body.String())
	}

	s := newTestServer(t, Config{Workers: 1, CacheSize: 1})
	for i, text := range []string{textA, textB, textA} {
		if i == 2 {
			if _, ok := s.texts.lookup(sha256.Sum256([]byte(textA))); !ok {
				t.Fatal("the first text is not in the memo")
			}
		}
		w := post(t, s, "/v1/run", body(text))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if text == textA && w.Body.String() != want.Body.String() {
			t.Errorf("request %d answered\n%s\nwant\n%s", i, w.Body.String(), want.Body.String())
		}
	}
	s.refreshStats()
	if misses, _ := s.Metrics().Snapshot().Counter(MetricCacheMisses); misses != 3 {
		t.Errorf("%d cache misses, want 3 (the second A must recompile)", misses)
	}
}

// TestTextMemoConcurrent reads and writes one small memo from many
// goroutines (run under -race). Slots collide constantly; a lookup may
// miss, but a hit must return the digest inserted for that very text.
func TestTextMemoConcurrent(t *testing.T) {
	m := newTextMemo(1) // 8 slots
	key := func(i int) (text, graph [sha256.Size]byte) {
		binary.LittleEndian.PutUint64(text[:], uint64(i))
		text = sha256.Sum256(text[:])
		graph = sha256.Sum256(text[:])
		return text, graph
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				text, graph := key((i*7 + w) % 64)
				if got, ok := m.lookup(text); ok && got != graph {
					t.Errorf("text %d: memo returned another text's digest", i)
					return
				}
				m.insert(text, graph)
			}
		}(w)
	}
	wg.Wait()
}

// TestTextRequestsConcurrent drives text requests for a few graphs from
// several goroutines through one server (run under -race): memo inserts,
// memo hits, deferred parses and compiles interleave, and every answer
// must equal a fresh server's.
func TestTextRequestsConcurrent(t *testing.T) {
	var bodies, want []string
	ref := newTestServer(t, Config{})
	for seed := uint64(1); seed <= 4; seed++ {
		text := andor.FormatText(workload.Random(seed, andor.DefaultRandomOpts()))
		body := fmt.Sprintf(`{"text":%q,"procs":2,"seed":3}`, text)
		w := post(t, ref, "/v1/run", body)
		if w.Code != http.StatusOK {
			t.Fatalf("reference: status %d: %s", w.Code, w.Body.String())
		}
		bodies, want = append(bodies, body), append(want, w.Body.String())
	}
	s := newTestServer(t, Config{Workers: 2, CacheSize: 2, QueueSize: 64})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				k := (i + c) % len(bodies)
				w := post(t, s, "/v1/run", bodies[k])
				if w.Code != http.StatusOK || w.Body.String() != want[k] {
					t.Errorf("client %d request %d: status %d: %s", c, i, w.Code, w.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestTextKey: the memo key is the SHA-256 of the text, at chunk
// boundaries too, and hashing it allocates nothing.
func TestTextKey(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 1500} {
		text := strings.Repeat("x", n)
		if textKey(text) != sha256.Sum256([]byte(text)) {
			t.Errorf("textKey of %d bytes differs from sha256.Sum256", n)
		}
	}
	text := andor.FormatText(workload.Random(4, andor.DefaultRandomOpts()))
	if allocs := testing.AllocsPerRun(100, func() { textKey(text) }); allocs != 0 {
		t.Errorf("textKey of a %d-byte text allocates %.1f times, want 0", len(text), allocs)
	}
}
