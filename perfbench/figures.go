package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"andorsched/internal/experiments"
)

// The figures workload regenerates three of the reproduction's experiments
// in-process. figureRuns is the Monte-Carlo run count per data point: small
// enough that a run yields well over a thousand figures (so p99 has at
// least ten samples beyond it), large enough that the measurePoint loop
// dominates each figure.
var figureIDs = []string{"4a", "6a", "hetero-biglittle"}

const (
	figureRuns = 20
	// figureSeeds is how many seeds per figure have golden digests; the
	// workload seed picks which (figure, seed) pairs a run regenerates.
	figureSeeds = 64
)

// goldenFigures maps a figure ID to the SHA-256 of its CSV for seeds
// 1..figureSeeds at figureRuns runs per point, recorded from the commit the
// benchmark was written at (regenerate with -write-golden only when a
// change is meant to alter the figures).
//
//go:embed figures_golden.json
var goldenFigures []byte

type figItem struct {
	id   string
	seed uint64
}

func figureItems(seed uint64) []figItem {
	r := workloadRand(seed, "figures")
	items := make([]figItem, 4096)
	for i := range items {
		items[i] = figItem{id: figureIDs[r.Intn(len(figureIDs))], seed: 1 + uint64(r.Intn(figureSeeds))}
	}
	return items
}

// regenerate runs one figure and returns its CSV digest and the number of
// simulated executions it performed.
func regenerate(id string, seed uint64) (string, int64, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", 0, err
	}
	se, err := e.Run(figureRuns, seed)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256([]byte(se.CSV()))
	runs := int64(len(se.Points)) * int64(len(se.Schemes)+1) * figureRuns
	return hex.EncodeToString(sum[:]), runs, nil
}

// writeGolden records the golden digest table at path.
func writeGolden(path string) error {
	experiments.SetDefaultWorkers(senders)
	table := map[string][]string{}
	for _, id := range figureIDs {
		for s := uint64(1); s <= figureSeeds; s++ {
			d, _, err := regenerate(id, s)
			if err != nil {
				return err
			}
			table[id] = append(table[id], d)
		}
	}
	b, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// warmFigures configures the harness and regenerates each figure once. A
// fresh process doing this is what the figures set-up time measures.
func warmFigures() error {
	experiments.SetDefaultWorkers(senders)
	for _, id := range figureIDs {
		if _, _, err := regenerate(id, 1); err != nil {
			return err
		}
	}
	return nil
}

// measureFiguresSetup times a fresh benchmark process from start until it
// has warmed the figure harness.
func measureFiguresSetup() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(self, "-figures-setup")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", senders))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	if strings.TrimSpace(line) != "ready" || werr != nil {
		return 0, fmt.Errorf("figures set-up child failed: %q %v", line, werr)
	}
	return d, nil
}

type figOutcome struct {
	setups   []float64
	lat      []int64
	figures  int
	failed   int
	runs     int64
	elapsed  time.Duration
	rssMB    float64
	failures []string
}

func loadGolden() (map[string][]string, error) {
	var golden map[string][]string
	if err := json.Unmarshal(goldenFigures, &golden); err != nil {
		return nil, fmt.Errorf("golden figure table: %w", err)
	}
	return golden, nil
}

// goldenOf is the recorded digest of figure id at seed ("" if none).
func goldenOf(golden map[string][]string, id string, seed uint64) string {
	if g := golden[id]; seed >= 1 && int(seed) <= len(g) {
		return g[seed-1]
	}
	return ""
}

// runFigures regenerates seeded (figure, seed) pairs back to back for
// `seconds` and checks each CSV against its golden digest.
func runFigures(seed uint64, seconds float64) (*figOutcome, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	o := &figOutcome{}
	for k := 0; k < setupRepeats; k++ {
		d, err := measureFiguresSetup()
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, d.Seconds())
	}
	if err := warmFigures(); err != nil {
		return nil, err
	}
	items := figureItems(seed)
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(end); i++ {
		it := items[i%len(items)]
		t0 := time.Now()
		d, runs, err := regenerate(it.id, it.seed)
		o.lat = append(o.lat, int64(time.Since(t0)))
		o.figures++
		if want := goldenOf(golden, it.id, it.seed); err != nil || d != want {
			o.failed++
			o.lat[len(o.lat)-1] = 1<<63 - 1
			if len(o.failures) < 8 {
				o.failures = append(o.failures, fmt.Sprintf("figure %s seed %d: digest %s, golden %s, err %v", it.id, it.seed, d, goldenOf(golden, it.id, it.seed), err))
			}
			continue
		}
		o.runs += runs
	}
	o.elapsed = time.Since(start)
	o.rssMB, err = vmHWM("self")
	return o, err
}
