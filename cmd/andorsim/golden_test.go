package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_outputs.json")

const goldenPath = "testdata/golden_outputs.json"

// goldenCase is one frozen andorsim invocation: every traced output of a
// single run (or a -stream run) with all exporters on.
type goldenCase struct {
	name string
	o    options
}

// goldenCases covers {atr, synthetic} × {transmeta, biglittle} × all nine
// schemes as single runs with -stats, -trace, -svg, -trace-out and
// -events-out, plus one traced five-frame -stream run per platform.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, wl := range []string{"atr", "synthetic"} {
		for _, pl := range []string{"transmeta", "biglittle"} {
			for _, sc := range []string{"NPM", "SPM", "GSS", "SS1", "SS2", "AS", "CLV", "ASP", "ORA"} {
				o := base()
				o.workload, o.platform, o.scheme, o.load, o.seed = wl, pl, sc, 0.6, 3
				o.stats, o.trace = true, true
				cases = append(cases, goldenCase{wl + "/" + pl + "/" + sc, o})
			}
		}
	}
	for _, pl := range []string{"transmeta", "biglittle"} {
		o := base()
		o.workload, o.platform, o.scheme, o.load, o.seed = "atr", pl, "AS", 0.7, 11
		o.stats, o.stream = true, 5
		cases = append(cases, goldenCase{"stream5/atr/" + pl + "/AS", o})
	}
	return cases
}

// runGoldenCase runs c with every file exporter pointed into a fresh
// directory and returns each output's SHA-256, stdout included (with the
// directory replaced by a fixed token).
func runGoldenCase(t *testing.T, c goldenCase) map[string]string {
	t.Helper()
	dir := t.TempDir()
	o := c.o
	files := map[string]*string{
		"events.ndjson": &o.eventsOut,
		"trace.json":    &o.traceOut,
	}
	if o.stream == 0 {
		files["schedule.svg"] = &o.svgPath
	}
	for name, p := range files {
		*p = filepath.Join(dir, name)
	}
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	got := map[string]string{"stdout": sum([]byte(strings.ReplaceAll(out, dir, "$DIR")))}
	for name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[name] = sum(data)
	}
	return got
}

// TestGoldenOutputs replays every golden case and requires each output to
// be byte-identical to the frozen digests. Regenerate, only when the
// output is meant to change, with
//
//	go test ./cmd/andorsim -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	got := map[string]map[string]string{}
	for _, c := range goldenCases() {
		got[c.name] = runGoldenCase(t, c)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden outputs (run with -update to create): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for name, outs := range got {
		for file, digest := range outs {
			if w := want[name][file]; w != digest {
				t.Errorf("%s: %s digest %s, want %s", name, file, digest, w)
			}
		}
	}
}
