package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/byorder_golden.json")

const byOrderGoldenPath = "testdata/byorder_golden.json"

// slackPolicy is greedy slack sharing: the slowest level of the task's
// class that still finishes its worst case by its latest finish time, or
// the class maximum when none does.
type slackPolicy struct{ h *power.Hetero }

func (s slackPolicy) Boundary(int, float64) {}

func (s slackPolicy) PickLevel(t *Task, lft, now float64, _ int, class int) int {
	c := s.h.Class(class)
	for l := 0; l < c.Plat.NumLevels(); l++ {
		if now+t.WorkW/c.Rate(l) <= lft {
			return l
		}
	}
	return c.Plat.MaxIndex()
}

// goldenSection builds the i-th random order-gated section of the engine
// golden: 1–4 identical processors on three DVS tables, big.LITTLE and
// accel-offload; every placement; fixed, slack-sharing and no policy; with
// and without overheads and initial levels; dummies, zero-work tasks and
// few distinct work values, so equal finish times are common. Task indices
// are a random permutation of the dispatch order. Every fifth section
// also records metrics, into the registry returned (nil otherwise).
func goldenSection(i int) (cfg Config, start float64, m *obs.Metrics, tasks []*Task, work []float64) {
	rnd := newLCG(uint64(i) + 0x5eed)
	var h *power.Hetero
	switch i % 6 {
	case 4:
		h = power.BigLittle()
	case 5:
		h = power.AccelOffload()
	default:
		plats := []*power.Platform{testPlat(), power.Transmeta5400(), power.IntelXScale()}
		h = machine(plats[rnd.next()%3], 1+i%4)
	}
	nc := h.NumClasses()
	cfg = Config{
		Hetero:    h,
		Placement: []PlacementPolicy{FastestFirst, EnergyGreedy, ClassAffinity}[rnd.next()%3],
	}
	start = float64(rnd.next()%8) / 4
	if rnd.next()%2 == 0 {
		cfg.Overheads = power.Overheads{
			SpeedCompCycles: float64(rnd.next() % 1000),
			SpeedChangeTime: float64(1+rnd.next()%4) * 1e-5,
		}
	}
	switch rnd.next() % 3 {
	case 0:
		cfg.Policy = clampedPolicy{h, int(rnd.next() % 8)}
	case 1:
		cfg.Policy = slackPolicy{h}
	}
	if rnd.next()%3 == 0 {
		cfg.InitialLevels = make([]int, h.NumProcs())
		for p := range cfg.InitialLevels {
			cfg.InitialLevels[p] = int(rnd.next() % uint64(h.Class(h.ClassOf(p)).Plat.NumLevels()))
		}
	}
	if i%5 == 0 {
		m = obs.NewMetrics()
	}
	n := 1 + int(rnd.next()%30)
	perm := make([]int, n) // perm[order] = task index
	for k := range perm {
		j := int(rnd.next() % uint64(k+1))
		perm[k] = perm[j]
		perm[j] = k
	}
	tasks, work = make([]*Task, n), make([]float64, n)
	for k := 0; k < n; k++ {
		t := &Task{
			Name: fmt.Sprintf("t%d", k), Node: k, Order: k,
			CanonClass: int(rnd.next() % uint64(nc)),
			Affinity:   int(rnd.next() % uint64(nc+1)),
			LFT:        start + float64(k+1+int(rnd.next()%8))*5e-3,
		}
		if rnd.next()%6 == 0 {
			t.Dummy = true
		} else {
			t.WorkW = float64(1+rnd.next()%6) * 1e6
			switch rnd.next() % 4 {
			case 0: // zero work
			case 1:
				work[perm[k]] = t.WorkW
			default:
				work[perm[k]] = t.WorkW / 2
			}
		}
		for j := 0; j < k; j++ {
			if rnd.next()%5 == 0 {
				t.Preds = append(t.Preds, perm[j])
				tasks[perm[j]].Succs = append(tasks[perm[j]].Succs, perm[k])
			}
		}
		tasks[perm[k]] = t
	}
	return cfg, start, m, tasks, work
}

// digestResult hashes every schedule, time and energy field of res bit for
// bit, its final levels and, when metrics were recorded, their snapshot s.
func digestResult(res *sectionRun, s *obs.Snapshot) string {
	h := sha256.New()
	b := math.Float64bits
	for _, r := range res.Records {
		fmt.Fprintf(h, "rec %d %d %x %x %x %d %x %x\n", r.Task, r.Proc,
			b(r.Dispatch), b(r.Start), b(r.Finish), r.Level, b(r.CompOH), b(r.ChangeOH))
	}
	fmt.Fprintf(h, "finish %x active %x overhead %x changes %d levels %v\n",
		b(res.Finish), b(res.ActiveEnergy), b(res.OverheadEnergy), res.SpeedChanges, res.FinalLevels)
	for p := range res.BusyTime {
		fmt.Fprintf(h, "proc %d %x %x\n", p, b(res.BusyTime[p]), b(res.OverheadTime[p]))
	}
	for c := range res.ClassActiveEnergy {
		fmt.Fprintf(h, "class %d %x %x\n", c, b(res.ClassActiveEnergy[c]), b(res.ClassOverheadEnergy[c]))
	}
	if s != nil {
		for _, c := range s.Counters {
			fmt.Fprintf(h, "counter %s %d\n", c.Name, c.Value)
		}
		for _, g := range s.Gauges {
			fmt.Fprintf(h, "gauge %s %x\n", g.Name, b(g.Value))
		}
		for _, hg := range s.Histograms {
			fmt.Fprintf(h, "histogram %s %d %x %v\n", hg.Name, hg.Count, b(hg.Sum), hg.Counts)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestEvents hashes an event stream field by field, times bit for bit.
func digestEvents(evs []obs.Event) string {
	h := sha256.New()
	for _, e := range evs {
		writeEvent(h, e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeEvent(h hash.Hash, e obs.Event) {
	fmt.Fprintf(h, "%d %x %d %d %d %q %d %d %d %x\n", e.Kind, math.Float64bits(e.Time),
		e.Proc, e.Task, e.Node, e.Name, e.Level, e.Prev, e.Branch, math.Float64bits(e.Value))
}

// goldenEntry is one section's frozen outcome.
type goldenEntry struct {
	Tasks  int    `json:"tasks"`
	Result string `json:"result"`
	Events string `json:"events"`
}

// TestByOrderGolden runs 200 random order-gated sections (goldenSection) and
// requires every result, and the event stream an Observer derives from
// it, to be bit-identical to the frozen digests. Each section also runs
// on a reused arena, which must give the same result, and against
// referenceRun, which must agree exactly. Regenerate, only when the
// engine's output is meant to change, with
//
//	go test ./internal/sim -run TestByOrderGolden -update
func TestByOrderGolden(t *testing.T) {
	const sections = 200
	arena := NewArena()
	got := make([]goldenEntry, sections)
	for i := range got {
		cfg, start, m, tasks, work := goldenSection(i)
		col := obs.NewCollector()
		res, err := observeSection(&cfg, start, tasks, work, col, m)
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
		var snap *obs.Snapshot
		if m != nil {
			s := m.Snapshot()
			snap = &s
		}
		got[i] = goldenEntry{Tasks: len(tasks), Result: digestResult(res, snap), Events: digestEvents(col.Events())}
		if err := validate(cfg.Hetero, res); err != nil {
			t.Errorf("section %d: %v", i, err)
		}
		if diff := matchReference(cfg, start, tasks, work, res); diff != "" {
			t.Errorf("section %d: %s", i, diff)
		}
		pooled, err := runSection(arena, &cfg, start, tasks, work)
		if err != nil {
			t.Fatalf("section %d: arena: %v", i, err)
		}
		if d := digestResult(pooled, snap); d != got[i].Result {
			t.Errorf("section %d: unobserved arena run differs from the observed run", i)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(byOrderGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(byOrderGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d sections, the test runs %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("section %d (%d tasks): got %+v, want %+v", i, got[i].Tasks, got[i], want[i])
		}
	}
}
