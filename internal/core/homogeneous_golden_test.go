package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

var updateHomogeneousGolden = flag.Bool("update", false, "rewrite the identical-processor golden runs")

// homogeneousGoldenPath holds the frozen answers of identical-processor
// plans: 50 random workloads (m = 1..4, Transmeta and XScale tables,
// loads 0.4..0.7) × every scheme, as compiled by NewPlan and run with
// traces and validation on. Every float is stored as its IEEE-754 bits,
// so the replay is a bit-identity check. Regenerate it only when the
// identical-processor answers are meant to change:
//
//	go test ./internal/core -run TestHomogeneousGolden -update
const homogeneousGoldenPath = "testdata/homogeneous_runs.json"

// homogeneousGoldenRun is one frozen run. Floats are hex IEEE-754 bits;
// the trace is stored as its length plus the SHA-256 of its bit-exact
// encoding (goldenTraceDigest).
type homogeneousGoldenRun struct {
	Workload     int      `json:"workload"`
	Procs        int      `json:"procs"`
	Platform     string   `json:"platform"`
	Scheme       string   `json:"scheme"`
	CTWorst      string   `json:"ct_worst"`
	CTAvg        string   `json:"ct_avg"`
	Deadline     string   `json:"deadline"`
	Finish       string   `json:"finish"`
	MetDeadline  bool     `json:"met_deadline"`
	LST          int      `json:"lst_violations"`
	Active       string   `json:"active_j"`
	Overhead     string   `json:"overhead_j"`
	Idle         string   `json:"idle_j"`
	SpeedChanges int      `json:"speed_changes"`
	BusyTime     string   `json:"busy_s"`
	OverheadTime string   `json:"overhead_s"`
	LevelTime    []string `json:"level_time"`
	FinalLevels  []int    `json:"final_levels"`
	Path         []int    `json:"path"`
	TraceLen     int      `json:"trace_len"`
	TraceSHA256  string   `json:"trace_sha256"`
}

func goldenBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenTraceDigest hashes every field of every trace row, floats by bits.
func goldenTraceDigest(r *RunResult) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range r.Trace {
		u64(uint64(e.Proc))
		u64(uint64(len(e.Name)))
		h.Write([]byte(e.Name))
		u64(math.Float64bits(e.Dispatch))
		u64(math.Float64bits(e.Finish))
		u64(uint64(e.Level))
		u64(math.Float64bits(e.CompOH))
		u64(math.Float64bits(e.ChangeOH))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// homogeneousGoldenRuns computes the golden matrix with the current code.
func homogeneousGoldenRuns(t *testing.T) []homogeneousGoldenRun {
	t.Helper()
	plats := []*power.Platform{power.Transmeta5400(), power.IntelXScale()}
	ov := power.DefaultOverheads()
	var out []homogeneousGoldenRun
	for wl := 0; wl < 50; wl++ {
		g := workload.Random(uint64(wl)+1, andor.DefaultRandomOpts())
		m := 1 + wl%4
		plat := plats[wl%2]
		plan, err := NewPlan(g, m, plat, ov)
		if err != nil {
			t.Fatalf("workload %d: NewPlan: %v", wl, err)
		}
		load := 0.4 + 0.1*float64(wl%4)
		cfg := RunConfig{
			Deadline:     plan.CTWorst / load,
			CollectTrace: true,
			Validate:     true,
		}
		for _, s := range allSchemes() {
			cfg.Scheme = s
			cfg.Sampler = exectime.NewSampler(exectime.NewSource(uint64(wl)*31 + uint64(s)))
			res, err := plan.Run(cfg)
			if err != nil {
				t.Fatalf("workload %d %s: %v", wl, s, err)
			}
			if res.ClassGrossEnergy != nil || res.ClassIdleEnergy != nil {
				t.Fatalf("workload %d %s: identical-processor run carries a class breakdown", wl, s)
			}
			run := homogeneousGoldenRun{
				Workload: wl, Procs: m, Platform: plat.Name, Scheme: s.String(),
				CTWorst: goldenBits(plan.CTWorst), CTAvg: goldenBits(plan.CTAvg),
				Deadline: goldenBits(res.Deadline), Finish: goldenBits(res.Finish),
				MetDeadline: res.MetDeadline, LST: res.LSTViolations,
				Active: goldenBits(res.ActiveEnergy), Overhead: goldenBits(res.OverheadEnergy),
				Idle: goldenBits(res.IdleEnergy), SpeedChanges: res.SpeedChanges,
				BusyTime: goldenBits(res.BusyTime), OverheadTime: goldenBits(res.OverheadTime),
				FinalLevels: append([]int{}, res.FinalLevels...),
				Path:        []int{},
				TraceLen:    len(res.Trace), TraceSHA256: goldenTraceDigest(res),
			}
			for _, lt := range res.LevelTime {
				run.LevelTime = append(run.LevelTime, goldenBits(lt))
			}
			for _, c := range res.Path {
				run.Path = append(run.Path, c.Branch)
			}
			out = append(out, run)
		}
	}
	return out
}

// TestHomogeneousGolden replays the identical-processor golden runs: plans
// compiled by NewPlan must keep answering bit-identically — schedule
// trace, speed residency, final levels, path and every energy — and keep
// no per-class energy breakdown.
func TestHomogeneousGolden(t *testing.T) {
	got := homogeneousGoldenRuns(t)
	if *updateHomogeneousGolden {
		// One run per line keeps the file compact and diffable.
		data := []byte("[\n")
		for i := range got {
			if i > 0 {
				data = append(data, ",\n"...)
			}
			data = append(data, mustJSON(t, got[i])...)
		}
		data = append(data, "\n]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(homogeneousGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(homogeneousGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []homogeneousGoldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := mustJSON(t, got[i]), mustJSON(t, want[i])
		if g != w {
			t.Errorf("workload %d %s (m=%d, %s) diverged from golden:\n got %s\nwant %s",
				want[i].Workload, want[i].Scheme, want[i].Procs, want[i].Platform, g, w)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
