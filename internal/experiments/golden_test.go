package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("series diverged from golden file %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenSeries pins a small, fully deterministic experiment byte-for-
// byte. Any change to the engine's semantics, the policies' arithmetic,
// the RNG or the workloads shows up here; regenerate deliberately with
//
//	go test ./internal/experiments -run TestGoldenSeries -update
func TestGoldenSeries(t *testing.T) {
	se, err := EnergyVsLoad(Config{
		Graph:     workload.ATR(workload.DefaultATRConfig()),
		Procs:     2,
		Platform:  power.Transmeta5400(),
		Overheads: power.DefaultOverheads(),
		Schemes:   []core.Scheme{core.SPM, core.GSS, core.SS1, core.SS2, core.AS},
		Runs:      25,
		Seed:      2002,
		Workers:   3, // parallel on purpose: results must not depend on it
	}, []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig4a_small.csv", se.CSV())
}

// TestReclaimGolden pins the reclaim ablation — the one experiment whose
// runs draw around a biased mean (actual α ≠ assumed α) — byte-for-byte,
// with several workers so the series must not depend on run scheduling.
func TestReclaimGolden(t *testing.T) {
	e, err := ByID("reclaim")
	if err != nil {
		t.Fatal(err)
	}
	SetDefaultWorkers(3)
	defer SetDefaultWorkers(0)
	se, err := e.Run(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_reclaim_small.csv", se.CSV())
}
