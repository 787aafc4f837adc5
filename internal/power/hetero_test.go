package power

import (
	"math"
	"strings"
	"testing"
)

// TestNewHeteroValidation pins the error messages for invalid platforms:
// empty class lists, zero/negative processor counts and zero/negative
// per-processor speeds must all be rejected with a diagnosable message.
func TestNewHeteroValidation(t *testing.T) {
	tm := Transmeta5400()
	cases := []struct {
		name    string
		classes []Class
		want    string // substring of the error
	}{
		{"empty", nil, "is empty"},
		{"zero count", []Class{{Name: "a", Count: 0, Plat: tm, Speed: 1}}, "no processors (count 0)"},
		{"negative count", []Class{{Name: "a", Count: -3, Plat: tm, Speed: 1}}, "no processors (count -3)"},
		{"zero speed", []Class{{Name: "a", Count: 1, Plat: tm, Speed: 0}}, "non-positive speed 0"},
		{"negative speed", []Class{{Name: "a", Count: 2, Plat: tm, Speed: -0.5}}, "non-positive speed -0.5"},
		{"NaN speed", []Class{{Name: "a", Count: 1, Plat: tm, Speed: math.NaN()}}, "non-positive speed"},
		{"inf speed", []Class{{Name: "a", Count: 1, Plat: tm, Speed: math.Inf(1)}}, "non-positive speed"},
		{"nil table", []Class{{Name: "a", Count: 1, Speed: 1}}, "no DVS table"},
		{"dup name", []Class{
			{Name: "a", Count: 1, Plat: tm, Speed: 1},
			{Name: "a", Count: 1, Plat: tm, Speed: 2},
		}, `duplicate class name "a"`},
		// A later class must be validated even when earlier ones are fine.
		{"second class bad", []Class{
			{Name: "a", Count: 1, Plat: tm, Speed: 1},
			{Name: "b", Count: 1, Plat: tm, Speed: -1},
		}, `class "b" has non-positive speed`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewHetero("bad", tc.classes)
			if err == nil {
				t.Fatalf("NewHetero accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestHeteroSingleProc covers the smallest valid platform: one class with
// one processor.
func TestHeteroSingleProc(t *testing.T) {
	tm := Transmeta5400()
	h, err := NewHetero("uni", []Class{{Name: "cpu", Count: 1, Plat: tm, Speed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumProcs() != 1 || h.NumClasses() != 1 {
		t.Fatalf("got %d procs / %d classes, want 1/1", h.NumProcs(), h.NumClasses())
	}
	if h.ClassOf(0) != 0 {
		t.Fatalf("proc 0 class %d, want 0", h.ClassOf(0))
	}
	if h.RefFmax() != tm.Max().Freq {
		t.Fatalf("RefFmax %g, want platform fmax %g", h.RefFmax(), tm.Max().Freq)
	}
	if h.MaxLevels() != tm.NumLevels() {
		t.Fatalf("MaxLevels %d, want %d", h.MaxLevels(), tm.NumLevels())
	}
}

// padTime is the identical-processor overhead pad: one worst-case speed
// change plus one speed computation at the platform's slowest frequency.
func padTime(o Overheads, p *Platform) float64 {
	return o.MaxChangeTime(p) + o.CompTime(p.Min().Freq)
}

// TestHomogeneousDegenerate pins the bit-level invariants the 1-class
// wrapper relies on: the reference rate and the overhead pad are exactly —
// not approximately — those of the wrapped identical platform.
func TestHomogeneousDegenerate(t *testing.T) {
	for _, p := range []*Platform{Transmeta5400(), IntelXScale()} {
		h, err := Homogeneous(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumProcs() != 3 {
			t.Fatalf("%s: NumProcs %d, want 3", p.Name, h.NumProcs())
		}
		if h.RefFmax() != p.Max().Freq {
			t.Fatalf("%s: RefFmax %v != fmax %v", p.Name, h.RefFmax(), p.Max().Freq)
		}
		ov := DefaultOverheads()
		if got, want := ov.PadTimeHetero(h), padTime(ov, p); got != want {
			t.Fatalf("%s: PadTimeHetero %v != padTime %v (must be bit-identical)", p.Name, got, want)
		}
		if c := h.Class(0); c.EffFmax() != p.Max().Freq {
			t.Fatalf("%s: EffFmax %v != fmax %v", p.Name, c.EffFmax(), p.Max().Freq)
		}
	}
	if _, err := Homogeneous(nil, 2); err == nil {
		t.Fatal("Homogeneous accepted a nil platform")
	}
	if _, err := Homogeneous(Transmeta5400(), 0); err == nil {
		t.Fatal("Homogeneous accepted zero processors")
	}
}

func TestHeteroClassLookup(t *testing.T) {
	h := BigLittle()
	if h.NumProcs() != 4 || h.NumClasses() != 2 {
		t.Fatalf("big.LITTLE: %d procs / %d classes", h.NumProcs(), h.NumClasses())
	}
	// Class-major numbering: procs 0,1 big; 2,3 little.
	for p, want := range []int{0, 0, 1, 1} {
		if h.ClassOf(p) != want {
			t.Fatalf("proc %d class %d, want %d", p, h.ClassOf(p), want)
		}
	}
	if h.ClassIndex("little") != 1 || h.ClassIndex("big") != 0 || h.ClassIndex("huge") != -1 {
		t.Fatal("ClassIndex lookup wrong")
	}
	// The energy-greedy premise: little cores are slower but cheaper per
	// cycle of work.
	big, little := h.Class(0), h.Class(1)
	if little.EffFmax() >= big.EffFmax() {
		t.Fatalf("little EffFmax %g not below big %g", little.EffFmax(), big.EffFmax())
	}
	if little.EnergyPerCycle() >= big.EnergyPerCycle() {
		t.Fatalf("little energy/cycle %g not below big %g", little.EnergyPerCycle(), big.EnergyPerCycle())
	}
}

func TestAccelOffloadReference(t *testing.T) {
	h := AccelOffload()
	ai := h.ClassIndex("accel")
	if ai < 0 {
		t.Fatal("no accel class")
	}
	// The accelerator's throughput multiplier makes it the reference class.
	if h.RefFmax() != h.Class(ai).EffFmax() {
		t.Fatalf("RefFmax %g, want accel's %g", h.RefFmax(), h.Class(ai).EffFmax())
	}
	if eff := h.Class(ai).EffFmax(); eff != 4*500e6 {
		t.Fatalf("accel EffFmax %g, want 2e9", eff)
	}
}

func TestParseHeteroSpec(t *testing.T) {
	good := `{
		"name": "test",
		"classes": [
			{"name": "big", "count": 2, "platform": "transmeta"},
			{"name": "small", "count": 1, "speed": 0.5,
			 "levels": [{"mhz": 100, "volt": 0.7}, {"mhz": 200, "volt": 0.9}]}
		]
	}`
	h, err := ParseHeteroSpec([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumProcs() != 3 || h.NumClasses() != 2 {
		t.Fatalf("got %d procs / %d classes, want 3/2", h.NumProcs(), h.NumClasses())
	}
	if s := h.Class(1); s.Speed != 0.5 || s.Plat.NumLevels() != 2 {
		t.Fatalf("small class wrong: speed %g, %d levels", s.Speed, s.Plat.NumLevels())
	}

	for _, ref := range []string{"symmetric", "biglittle", "accel"} {
		if _, err := ParseHeteroSpec([]byte(`"` + ref + `"`)); err != nil {
			t.Fatalf("reference %q: %v", ref, err)
		}
	}

	bad := []struct {
		name, spec, want string
	}{
		{"not json", `{`, "bad platform spec"},
		{"unknown ref", `"quantum"`, "unknown reference"},
		{"unknown field", `{"classes":[],"bogus":1}`, "bogus"},
		{"empty classes", `{"classes":[]}`, "is empty"},
		{"negative speed", `{"classes":[{"count":1,"platform":"transmeta","speed":-2}]}`, "non-positive speed"},
		// An explicit zero is a spec error, not the default: only an
		// absent speed field means 1.
		{"explicit zero speed", `{"classes":[{"count":1,"platform":"transmeta","speed":0}]}`, "non-positive speed 0"},
		{"zero count", `{"classes":[{"count":0,"platform":"transmeta"}]}`, "no processors"},
		{"no table", `{"classes":[{"count":1}]}`, "no DVS levels"},
		{"both tables", `{"classes":[{"count":1,"platform":"xscale","levels":[{"mhz":100,"volt":1}]}]}`, "both a named platform and explicit levels"},
		{"unknown platform", `{"classes":[{"count":1,"platform":"pentium"}]}`, "unknown platform"},
		{"bad level", `{"classes":[{"count":1,"levels":[{"mhz":-5,"volt":1}]}]}`, "non-positive frequency/voltage"},
		{"dup freq", `{"classes":[{"count":1,"levels":[{"mhz":100,"volt":1},{"mhz":100,"volt":1.2}]}]}`, "duplicate frequency"},
		{"too many procs", `{"classes":[{"count":100000,"platform":"transmeta"}]}`, "exceeds max"},
		{"bad idle frac", `{"classes":[{"count":1,"platform":"transmeta","idle_frac":1.5}]}`, "outside [0,1]"},
		{"trailing data", `{"classes":[{"count":1,"platform":"transmeta"}]} garbage`, "trailing data"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseHeteroSpec([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted: %s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestHeteroKey pins that the cache key is content-addressed: equal specs
// collide, any material difference (count, speed, table) separates, and
// the cosmetic name does not.
func TestHeteroKey(t *testing.T) {
	base := func() []Class {
		return []Class{
			{Name: "a", Count: 2, Plat: Transmeta5400(), Speed: 1},
			{Name: "b", Count: 1, Plat: IntelXScale(), Speed: 0.5},
		}
	}
	h1, _ := NewHetero("one", base())
	h2, _ := NewHetero("two", base()) // same content, different name
	if h1.Key() != h2.Key() {
		t.Fatal("platform name changed the content key")
	}
	variants := map[string]func(c []Class) []Class{
		"count": func(c []Class) []Class { c[0].Count = 3; return c },
		"speed": func(c []Class) []Class { c[1].Speed = 0.75; return c },
		"table": func(c []Class) []Class { c[1].Plat = Transmeta5400(); return c },
		"cef":   func(c []Class) []Class { c[0].Plat = c[0].Plat.WithCef(2e-9); return c },
		"idle":  func(c []Class) []Class { c[0].Plat = c[0].Plat.WithIdleFrac(0.1); return c },
	}
	for name, mut := range variants {
		hv, err := NewHetero("one", mut(base()))
		if err != nil {
			t.Fatal(err)
		}
		if hv.Key() == h1.Key() {
			t.Fatalf("changing %s did not change the key", name)
		}
	}
}
