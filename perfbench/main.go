// Command perfbench is the repository's end-to-end benchmark. It drives a
// real andord over loopback HTTP (warm-run, plan-churn, mc-stream) or the
// experiment harness in-process (figures), checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its output, in JSON. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload warm-run --seed 1 --seconds 10 --trace 0
//
// -repeat N runs the workload N times back to back with seeds seed..seed+N-1
// and prints each end-to-end metric's median, quartiles and range.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var endToEnd = []layerMetric{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
	{"max_rps", "req/s"}, {"runs_per_s", "runs/s"}, {"peak_rss_mb", "MiB"},
}

var workloadNames = []string{"warm-run", "plan-churn", "mc-stream", "figures"}

func main() {
	var (
		name         = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds      = flag.Float64("seconds", 10, "measured time of one run")
		trace        = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		repeat       = flag.Int("repeat", 0, "steadiness mode: run N times back to back and print each metric's spread")
		andord       = flag.String("andord", "", "andord binary (run.sh builds it)")
		out          = flag.String("out", ".bench_build", "directory for span dumps")
		figSetup     = flag.Bool("figures-setup", false, "internal: warm the figure harness, print ready and exit")
		writeGoldenF = flag.String("write-golden", "", "record the figure golden digests at this path and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *figSetup:
		if err = warmFigures(); err == nil {
			fmt.Println("ready")
		}
	case *writeGoldenF != "":
		err = writeGolden(*writeGoldenF)
	case *repeat > 0:
		err = steadiness(*name, *seed, *seconds, *repeat, *andord)
	default:
		var res *result
		res, err = runOnce(*name, *seed, *seconds, *trace == 1, *andord, *out)
		if err == nil {
			b, _ := json.Marshal(res)
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findServe(name string) *serveWorkload {
	for _, w := range serveWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOnce runs one workload once and returns its result line; the report
// goes to standard output first.
func runOnce(name string, seed uint64, seconds float64, traced bool, andord, out string) (*result, error) {
	w := findServe(name)
	if w == nil && name != "figures" {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if w != nil {
		if _, err := os.Stat(andord); andord == "" || err != nil {
			return nil, fmt.Errorf("andord binary %q not found (run through perfbench/run.sh)", andord)
		}
	}
	fmt.Printf("perfbench %s seed %d seconds %g trace %v (client: 1 process, %d connections)\n", name, seed, seconds, traced, senders)
	if traced {
		return runTraced(name, w, seed, seconds, andord, out)
	}
	var m map[string]float64
	var attempted, failed int
	var failures []string
	if w == nil {
		o, err := runFigures(seed, seconds)
		if err != nil {
			return nil, err
		}
		s := summarize(o.lat)
		m = map[string]float64{
			"setup_s": median(o.setups), "latency_p50_ms": s.p50, "latency_p99_ms": s.windowed,
			"max_rps": float64(o.figures) / o.elapsed.Seconds(), "runs_per_s": float64(o.runs) / o.elapsed.Seconds(),
			"peak_rss_mb": o.rssMB,
		}
		attempted, failed, failures = o.figures, o.failed, o.failures
		fmt.Printf("closed loop, one figure at a time over %d harness workers, %d runs per point\n", senders, figureRuns)
		fmt.Printf("setup_s samples %v (fresh process until the harness is warm)\n", fmtList(o.setups))
		fmt.Printf("latency: per figure regeneration, n=%d; p99 is the interquartile mean of the p99s of %d windows of %d (pooled p99 %.4f ms, %d samples beyond it)\n",
			s.n, s.windows, windowLen, s.p99, s.beyond99)
		fmt.Printf("max_rps: figures regenerated per second; runs_per_s: simulated executions per second (%d)\n", o.runs)
	} else {
		o, err := runServeWorkload(andord, w, seed, seconds)
		if err != nil {
			return nil, err
		}
		s := summarize(o.fixed.lat)
		runsPerS := float64(o.fixed.runs) / o.fixed.elapsed.Seconds()
		m = map[string]float64{
			"setup_s": median(o.setups), "latency_p50_ms": s.p50, "latency_p99_ms": s.windowed,
			"max_rps": o.maxRPS, "runs_per_s": runsPerS, "peak_rss_mb": o.rssMB,
		}
		attempted, failed, failures = o.book.attempted, o.book.failed, o.book.failures
		if w.open {
			fmt.Printf("open loop at %.0f req/s for %.1fs, p99 limit %v; max_rps ladder: 4%% steps\n", w.rate, fixedShare*seconds, w.limit)
			for _, p := range o.probes {
				fmt.Println("  ladder probe", p)
			}
			if len(o.fixed.late) > 0 {
				fmt.Printf("generator lateness p99 %.1f µs over %d waits (bench.gen_lateness_p99_us)\n", summarize(o.fixed.late).p99*1e3, len(o.fixed.late))
			}
		} else {
			fmt.Printf("closed loop, %d clients for %.1fs; max_rps is the completed request rate\n", senders, seconds)
		}
		fmt.Printf("setup_s samples %v (andord launch until caches are warm)\n", fmtList(o.setups))
		fmt.Printf("latency (open loop: from due time; closed loop: from send): n=%d, mean %.3f ms; p99 is the interquartile mean of the p99s of %d windows of %d (pooled p99 %.4f ms, %d samples beyond it)\n",
			s.n, s.mean, s.windows, windowLen, s.p99, s.beyond99)
		fmt.Printf("serve.runs grew by %.0f; plan-cache hit ratio %.3f (%.0f hits, %.0f misses, %.0f evictions)\n",
			o.runs, o.hits/(o.hits+o.misses), o.hits, o.misses, o.evicts)
	}
	fmt.Printf("fail_frac %.6f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, f := range failures {
		fmt.Println("  failure:", f)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
		fmt.Printf("%-16s %12.4f %s\n", e.name, m[e.name], e.unit)
	}
	return res, nil
}

// runTraced runs the traced variant and reports every per-layer metric.
func runTraced(name string, w *serveWorkload, seed uint64, seconds float64, andord, out string) (*result, error) {
	tr := newTracer()
	var m map[string]float64
	var report []string
	var book *loopResult
	var err error
	if w == nil {
		m, report, book, err = traceFigures(seed, seconds, tr)
	} else {
		m, report, book, err = traceServe(andord, w, seed, seconds, tr)
	}
	if err != nil {
		return nil, err
	}
	for _, l := range report {
		fmt.Println(l)
	}
	for _, f := range book.failures {
		fmt.Println("  failure:", f)
	}
	path := filepath.Join(out, fmt.Sprintf("perfbench-spans-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("benchmark-side spans written to %s\n", path)
	res := &result{Correct: book.failed == 0, Attempted: book.attempted, Failed: book.failed, Metrics: map[string]metric{}}
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
		fmt.Printf("%-32s %14.4f %s\n", l.name, m[l.name], l.unit)
	}
	return res, nil
}

// steadiness runs a workload n times back to back and prints, per
// end-to-end metric, the median, quartiles, range and quartile spread as a
// share of the median.
func steadiness(name string, seed uint64, seconds float64, n int, andord string) error {
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := runOnce(name, seed+uint64(i), seconds, false, andord, "")
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d failed", i, res.Failed, res.Attempted)
		}
		for k, v := range res.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	fmt.Printf("\nsteadiness of %s over %d runs (seeds %d..%d):\n", name, n, seed, seed+uint64(n)-1)
	fmt.Printf("%-16s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, e := range endToEnd {
		v := vals[e.name]
		q1, q3 := quartiles(v)
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		med := median(v)
		fmt.Printf("%-16s %12.4f %12.4f %12.4f %12.4f %12.4f %8.3f\n", e.name, med, q1, q3, s[0], s[len(s)-1], (q3-q1)/med)
	}
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
