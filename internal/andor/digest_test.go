package andor

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"andorsched/internal/exectime"
)

// digestTestSections builds A → O1 ─→ (B → {C, D} → And → E) / (F) → O2 → G:
// a fork whose first branch is an AND-parallel diamond section. alpha scales
// every ACET so tests can perturb execution times without touching
// structure. Rebuilding from scratch simulates a graph re-parse: fresh node
// pointers and IDs, identical structure.
func digestTestSections(t *testing.T, alpha float64) []*Section {
	t.Helper()
	g := NewGraph("digest")
	a := g.AddTask("A", 8e-3, alpha*8e-3)
	o1 := g.AddOr("O1")
	b := g.AddTask("B", 6e-3, alpha*6e-3)
	c := g.AddTask("C", 5e-3, alpha*5e-3)
	d := g.AddTask("D", 4e-3, alpha*4e-3)
	and := g.AddAnd("J")
	e := g.AddTask("E", 3e-3, alpha*3e-3)
	f := g.AddTask("F", 7e-3, alpha*7e-3)
	o2 := g.AddOr("O2")
	tail := g.AddTask("G", 2e-3, alpha*2e-3)
	g.AddEdge(a, o1)
	g.AddEdge(o1, b)
	g.AddEdge(b, c)
	g.AddEdge(b, d)
	g.AddEdge(c, and)
	g.AddEdge(d, and)
	g.AddEdge(and, e)
	g.AddEdge(e, o2)
	g.AddEdge(o1, f)
	g.AddEdge(f, o2)
	g.SetBranchProbs(o1, 0.4, 0.6)
	g.AddEdge(o2, tail)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	secs, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	return secs.All
}

// TestSectionDigestStableAcrossRebuild checks the cache's keying contract:
// rebuilding the identical application from scratch (fresh node IDs and
// pointers) reproduces every section digest, and digests are deterministic
// within one graph.
func TestSectionDigestStableAcrossRebuild(t *testing.T) {
	first := digestTestSections(t, 0.5)
	second := digestTestSections(t, 0.5)
	if len(first) != len(second) {
		t.Fatalf("section counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Digest() != second[i].Digest() {
			t.Fatalf("section %d digest changed across rebuild", i)
		}
		if first[i].Digest() != first[i].Digest() {
			t.Fatalf("section %d digest not deterministic", i)
		}
	}
}

// TestSectionDigestSensitivity checks that every scheduling-relevant input
// perturbs the digest — execution times and precedence structure — and that
// distinct sections of one application never share an entry.
func TestSectionDigestSensitivity(t *testing.T) {
	base := digestTestSections(t, 0.5)

	// ACET change (same WCETs, same structure) must change the digests of
	// the sections containing compute tasks: the average-case canonical
	// schedule depends on ACETs.
	perturbed := digestTestSections(t, 0.6)
	changed := false
	for i := range base {
		if base[i].Digest() != perturbed[i].Digest() {
			changed = true
		}
	}
	if !changed {
		t.Fatal("ACET perturbation left all section digests unchanged")
	}

	// Distinct (non-empty, non-identical) sections must have distinct
	// digests.
	seen := make(map[SectionDigest]int)
	for i, s := range base {
		if len(s.Nodes) == 0 {
			continue
		}
		if j, dup := seen[s.Digest()]; dup {
			t.Fatalf("sections %d and %d share a digest", j, i)
		}
		seen[s.Digest()] = i
	}

	// Structural change with identical node multiset: serialize the
	// diamond's parallel arms (B → C → D → And → E). The canonical schedule
	// differs, so the digest must too.
	g := NewGraph("digest-serial")
	a := g.AddTask("A", 8e-3, 4e-3)
	o1 := g.AddOr("O1")
	b := g.AddTask("B", 6e-3, 3e-3)
	c := g.AddTask("C", 5e-3, 2.5e-3)
	d := g.AddTask("D", 4e-3, 2e-3)
	and := g.AddAnd("J")
	e := g.AddTask("E", 3e-3, 1.5e-3)
	f := g.AddTask("F", 7e-3, 3.5e-3)
	o2 := g.AddOr("O2")
	tail := g.AddTask("G", 2e-3, 1e-3)
	g.AddEdge(a, o1)
	g.AddEdge(o1, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(d, and)
	g.AddEdge(and, e)
	g.AddEdge(e, o2)
	g.AddEdge(o1, f)
	g.AddEdge(f, o2)
	g.SetBranchProbs(o1, 0.4, 0.6)
	g.AddEdge(o2, tail)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	secs, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs.All {
		if len(s.Nodes) != 5 { // the serialized diamond section
			continue
		}
		for i, bsec := range base {
			if len(bsec.Nodes) == len(s.Nodes) && bsec.Digest() == s.Digest() {
				t.Fatalf("serialized diamond collides with base section %d", i)
			}
		}
	}
}

// TestSectionDigestAllocs: hashing a section of up to 64 nodes allocates
// nothing. Its input streams into the hash through a stack chunk, and its
// in-section lookups run on a stack array of local indices.
func TestSectionDigestAllocs(t *testing.T) {
	secs := digestTestSections(t, 0.5)
	for seed := uint64(1); seed <= 20; seed++ {
		g := RandomGraph(exectime.NewSource(seed), DefaultRandomOpts())
		s, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, s.All...)
	}
	for i, sec := range secs {
		if len(sec.Nodes) > 64 {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { sec.computeDigest() }); allocs != 0 {
			t.Errorf("section %d (%d nodes): computing its digest allocates %.0f times", i, len(sec.Nodes), allocs)
		}
	}
}

// TestSectionDigestFrozen pins the digests of every section of
// workload.Random seeds 1–20, hashed together. Digests key the
// section-schedule cache, so they must not change when the way they are
// computed does.
func TestSectionDigestFrozen(t *testing.T) {
	const want = "90a81245deada96c26333744f04f0832fa88bc3630ed3120bb0eb90925274e94"
	h := sha256.New()
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := Decompose(RandomGraph(exectime.NewSource(seed), DefaultRandomOpts()))
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range s.All {
			d := sec.Digest()
			h.Write(d[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("section digests of Random seeds 1–20 hash to %s, want %s", got, want)
	}
}
