package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	data := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break
		}
	}
	return string(data), runErr
}

// base returns the default options the flag definitions establish.
func base() options {
	return options{
		workload: "synthetic", platform: "transmeta", procs: 2,
		scheme: "GSS", load: 0.5, seed: 42, runs: 500,
		changeUs: 5, compCycles: 600,
	}
}

func TestRunSingle(t *testing.T) {
	out, err := capture(t, func() error { return run(base()) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"application", "deadline met: true", "vs NPM", "residency"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceAndExports(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.workload, o.platform, o.scheme = "atr", "xscale", "AS"
	o.load, o.seed, o.slewUsPerV = 0.6, 1, 50
	o.trace, o.printPlan = true, true
	o.svgPath = filepath.Join(dir, "s.svg")
	o.traceOut = filepath.Join(dir, "t.json")
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"off-line plan", "schedule:", "legend:", "wrote"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, f := range []string{o.svgPath, o.traceOut} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("export %s missing or empty", f)
		}
	}
}

// TestRunTraceHetero renders a big.LITTLE run with every schedule
// renderer: little-core rows carry the little cores' own DVS levels.
func TestRunTraceHetero(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.workload, o.platform, o.scheme, o.load = "atr", "biglittle", "GSS", 0.6
	o.trace = true
	o.svgPath = filepath.Join(dir, "s.svg")
	o.traceOut = filepath.Join(dir, "t.json")
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "schedule:") || !strings.Contains(out, "@0.75V") {
		t.Errorf("schedule lacks little-core levels:\n%s", out)
	}
	for _, f := range []string{o.svgPath, o.traceOut} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("export %s missing or empty", f)
		}
	}
}

// TestRunObservability exercises -stats, -trace-out and -events-out: the
// acceptance path of the observability layer through the CLI.
func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.scheme, o.load, o.seed = "AS", 0.6, 7
	o.stats = true
	o.traceOut = filepath.Join(dir, "trace.json")
	o.eventsOut = filepath.Join(dir, "events.ndjson")
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"per-processor stats:", "util", "speed-changes",
		"counters:", "sim.tasks.dispatched", "histogram sim.task.exec_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The Chrome trace must parse and cover executed tasks.
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace-out has no events")
	}

	ndjson, err := os.ReadFile(o.eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(ndjson)), "\n")
	if len(lines) < 10 {
		t.Fatalf("events-out suspiciously short: %d lines", len(lines))
	}
	for _, ln := range lines {
		var e map[string]any
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		if _, ok := e["kind"]; !ok {
			t.Fatalf("NDJSON line missing kind: %q", ln)
		}
	}
}

func TestRunStreamMode(t *testing.T) {
	o := base()
	o.scheme, o.load, o.seed, o.stream = "SS2", 0.7, 9, 50
	o.stats = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "over 50 frames") || !strings.Contains(out, "0 misses") {
		t.Errorf("stream output wrong:\n%s", out)
	}
	if !strings.Contains(out, "per-processor stats:") {
		t.Errorf("stream -stats output missing:\n%s", out)
	}
}

func TestRunCompareMode(t *testing.T) {
	o := base()
	o.workload, o.scheme, o.load, o.seed = "atr", "GSS", 0.6, 5
	o.compare, o.runs = "AS,GSS", 60
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "paired comparison") || !strings.Contains(out, "verdict") {
		t.Errorf("compare output wrong:\n%s", out)
	}
}

func TestRunErrorsMain(t *testing.T) {
	bogusWorkload := base()
	bogusWorkload.workload = "bogus"
	bogusPlatform := base()
	bogusPlatform.platform = "bogus"
	bogusScheme := base()
	bogusScheme.scheme = "BOGUS"
	badLoad := base()
	badLoad.load = 1.5
	badCompare := base()
	badCompare.compare = "onlyone"
	badCompare.runs = 10
	for i, o := range []options{bogusWorkload, bogusPlatform, bogusScheme, badLoad, badCompare} {
		o := o
		if _, err := capture(t, func() error { return run(o) }); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestRunCompareNoFrames: -compare over zero or negative -runs is an error
// (exit 1), not a paired comparison over no frames.
func TestRunCompareNoFrames(t *testing.T) {
	for _, runs := range []int{0, -3} {
		o := base()
		o.load, o.compare, o.runs = 0.6, "AS,GSS", runs
		if _, err := capture(t, func() error { return run(o) }); err == nil {
			t.Errorf("-runs %d: want error", runs)
		}
	}
}
