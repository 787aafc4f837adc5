package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden response corpus")

// goldenCorpusPath holds the frozen answers of the serve endpoints. The
// corpus is the byte-identity reference for the request path: it pins
// rows, summaries, compare statistics and batch lines per seed across
// refactors of the execution and plan-resolution code. Regenerate it only
// when the wire output is meant to change:
//
//	go test ./internal/serve -run TestGoldenResponseCorpus -update
const goldenCorpusPath = "testdata/golden_responses.json"

// goldenInlineMax is the largest response body stored verbatim; longer
// bodies are stored as their SHA-256.
const goldenInlineMax = 4096

// goldenEntry is one request of the corpus and its frozen answer.
type goldenEntry struct {
	Path   string `json:"path"`
	Body   string `json:"body"`
	Status int    `json:"status"`
	// Exactly one of Response and SHA256 is set.
	Response string `json:"response,omitempty"`
	SHA256   string `json:"sha256,omitempty"`
}

// goldenRequests is the corpus request set, in replay order: 30 random
// workloads over homogeneous, xscale, big.LITTLE class-affinity and accel
// platforms, each sent as a single run, a runs=5 stream, a compare and a
// batch, every request twice (cold, then warm); then runs=300 streams at
// chunk counts 1, auto and 3 and all-scheme compares at chunk counts 1
// and 2 on one workload per platform kind.
func goldenRequests() []goldenEntry {
	rng := rand.New(rand.NewSource(7))
	app := func(wl int) string {
		switch wl % 4 {
		case 0:
			return fmt.Sprintf(`"workload":"random:%d","procs":%d`, wl+1, 2+wl%3)
		case 1:
			return fmt.Sprintf(`"workload":"random:%d","procs":2,"platform":"xscale"`, wl+1)
		case 2:
			return fmt.Sprintf(`"workload":"random:%d","hetero":"biglittle","placement":"class-affinity"`, wl+1)
		default:
			return fmt.Sprintf(`"workload":"random:%d","hetero":"accel"`, wl+1)
		}
	}
	schemes := []string{"GSS", "SS1", "ORA", "AS"}
	var reqs []goldenEntry
	for wl := 0; wl < 30; wl++ {
		seed := rng.Uint64()
		bodies := []goldenEntry{
			{Path: "/v1/run", Body: fmt.Sprintf(`{%s,"scheme":%q,"seed":%d}`, app(wl), schemes[wl%len(schemes)], seed)},
			{Path: "/v1/run", Body: fmt.Sprintf(`{%s,"scheme":%q,"seed":%d,"runs":5}`, app(wl), schemes[wl%len(schemes)], seed)},
			{Path: "/v1/compare", Body: fmt.Sprintf(`{%s,"schemes":["NPM","GSS","ORA"],"runs":8,"seed":%d}`, app(wl), seed)},
			{Path: "/v1/batch", Body: fmt.Sprintf(`{"items":[{%s,"scheme":"GSS","seed":%d,"runs":3},{%s,"scheme":"SS2","seed":%d,"runs":2}]}`,
				app(wl), seed, app((wl+11)%30), seed+1)},
		}
		for _, req := range bodies {
			reqs = append(reqs, req, req) // cold, then warm
		}
	}
	for wl := 0; wl < 4; wl++ {
		seed := rng.Uint64()
		for _, chunks := range []int{1, 0, 3} {
			reqs = append(reqs, goldenEntry{Path: "/v1/run",
				Body: fmt.Sprintf(`{%s,"scheme":%q,"seed":%d,"runs":300,"chunks":%d}`, app(wl), schemes[wl], seed, chunks)})
		}
		for _, chunks := range []int{1, 2} {
			reqs = append(reqs, goldenEntry{Path: "/v1/compare",
				Body: fmt.Sprintf(`{%s,"schemes":["all"],"runs":40,"seed":%d,"chunks":%d}`, app(wl), seed, chunks)})
		}
	}
	return reqs
}

// TestGoldenResponseCorpus replays the corpus against a fresh server and
// requires every status and body to match the frozen answer byte for
// byte.
func TestGoldenResponseCorpus(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3, QueueSize: 32, CacheSize: 64})
	if *updateGolden {
		reqs := goldenRequests()
		for i := range reqs {
			e := &reqs[i]
			w := post(t, s, e.Path, e.Body)
			e.Status = w.Code
			if body := w.Body.String(); len(body) <= goldenInlineMax {
				e.Response = body
			} else {
				e.SHA256 = bodyDigest(w.Body.Bytes())
			}
		}
		data, err := json.MarshalIndent(reqs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCorpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCorpusPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenCorpusPath)
	if err != nil {
		t.Fatalf("missing golden corpus (run with -update to create): %v", err)
	}
	var corpus []goldenEntry
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty golden corpus")
	}
	for i, e := range corpus {
		w := post(t, s, e.Path, e.Body)
		if w.Code != e.Status {
			t.Fatalf("entry %d %s %s: status %d, golden %d: %s", i, e.Path, e.Body, w.Code, e.Status, w.Body.String())
		}
		if e.SHA256 != "" {
			if got := bodyDigest(w.Body.Bytes()); got != e.SHA256 {
				t.Fatalf("entry %d %s %s: body sha256 %s, golden %s", i, e.Path, e.Body, got, e.SHA256)
			}
		} else if got := w.Body.String(); got != e.Response {
			t.Fatalf("entry %d %s %s: body diverged\ngot:    %s\ngolden: %s",
				i, e.Path, e.Body, truncateDiff(got, e.Response), truncateDiff(e.Response, got))
		}
	}
}

func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
