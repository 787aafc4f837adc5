package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestList(t *testing.T) {
	out, err := capture(t, func() error {
		return run(true, false, "all", "", 1, 1, "", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4a", "6b", "fmin", "clv", "structure", "slew"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestTables(t *testing.T) {
	out, err := capture(t, func() error {
		return run(false, true, "all", "", 1, 1, "", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Transmeta TM5400") || !strings.Contains(out, "Intel XScale") {
		t.Errorf("tables output wrong:\n%s", out)
	}
}

func TestOneExperimentText(t *testing.T) {
	out, err := capture(t, func() error {
		return run(false, false, "4b", "", 3, 1, "", "", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "normalized energy vs load") || !strings.Contains(out, "speed changes") {
		t.Errorf("experiment output wrong:\n%s", out)
	}
}

func TestCSVOut(t *testing.T) {
	dir := t.TempDir()
	_, err := capture(t, func() error {
		return run(false, false, "6a", "", 2, 1, dir, "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "alpha,") {
		t.Errorf("CSV header wrong: %s", data[:40])
	}
}

func TestHTMLOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.html")
	_, err := capture(t, func() error {
		return run(false, false, "4a", "", 2, 1, "", path, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "reproduction report") {
		t.Error("HTML report content wrong")
	}
}

func TestPlatformFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run(false, false, "all", "xscale", 1, 1, "", "", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "normalized energy vs load") || !strings.Contains(out, "Intel XScale") {
		t.Errorf("platform study output wrong:\n%s", out)
	}
}

func TestPlatformFlagHetero(t *testing.T) {
	out, err := capture(t, func() error {
		return run(false, false, "all", "biglittle", 2, 1, "", "", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "placement") || !strings.Contains(out, "big.LITTLE") {
		t.Errorf("hetero placement study output wrong:\n%s", out)
	}
}

func TestPlatformFlagBad(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(false, false, "all", "quantum", 1, 1, "", "", false, false)
	}); err == nil {
		t.Error("want unknown-platform error")
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(false, false, "nope", "", 1, 1, "", "", false, false)
	}); err == nil {
		t.Error("want unknown-ID error")
	}
}

func TestWinnersFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run(false, false, "all", "", 2, 1, "", "", false, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "best scheme per (load") || !strings.Contains(out, "alpha\\load") {
		t.Errorf("winners output wrong:\n%s", out)
	}
}

// TestRunsBelowOne: a non-positive -runs is an error (exit 1), not an
// all-zero table or a panic.
func TestRunsBelowOne(t *testing.T) {
	for _, runs := range []int{0, -3} {
		if _, err := capture(t, func() error {
			return run(false, false, "4a", "", runs, 1, "", "", false, false)
		}); err == nil {
			t.Errorf("-runs %d: want error", runs)
		}
	}
}
