package power

import (
	"math"
	"testing"
)

// FuzzPlatformSpec drives arbitrary bytes through ParseHeteroSpec — the
// decode path behind the -platform spec files and the /v1 hetero field —
// and checks the invariants every accepted platform must satisfy: bounded
// size, positive per-class speeds and effective rates, a consistent
// class-major processor numbering, and a stable content key. The corpus
// seeds the reference names, a spelled-out two-class spec, and the
// validation corner cases (zero speed, empty classes, trailing data).
func FuzzPlatformSpec(f *testing.F) {
	for _, seed := range []string{
		`"symmetric"`, `"biglittle"`, `"accel"`,
		`{"name":"lab","classes":[
			{"name":"fast","count":1,"platform":"transmeta"},
			{"name":"slow","count":2,"speed":0.5,"platform":"xscale"}]}`,
		`{"classes":[{"count":1,"levels":[{"mhz":100,"volt":0.7},{"mhz":200,"volt":0.9}]}]}`,
		`{"classes":[{"count":1,"platform":"transmeta","speed":0}]}`,
		`{"classes":[]}`,
		`{"classes":[{"count":1,"platform":"transmeta"}]} garbage`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeteroSpec(data)
		if err != nil {
			if h != nil {
				t.Fatal("non-nil platform alongside an error")
			}
			return
		}
		if h.NumClasses() < 1 || h.NumClasses() > maxSpecClasses {
			t.Fatalf("accepted %d classes", h.NumClasses())
		}
		if h.NumProcs() < 1 || h.NumProcs() > maxSpecProcs {
			t.Fatalf("accepted %d processors", h.NumProcs())
		}
		for c := 0; c < h.NumClasses(); c++ {
			cl := h.Class(c)
			if !(cl.Speed > 0) || math.IsInf(cl.Speed, 0) {
				t.Fatalf("class %d accepted with speed %g", c, cl.Speed)
			}
			if cl.Count < 1 || cl.Plat.NumLevels() < 1 || cl.Plat.NumLevels() > maxSpecLevels {
				t.Fatalf("class %d accepted with count %d, %d levels", c, cl.Count, cl.Plat.NumLevels())
			}
			if !(cl.EffFmax() > 0) || !(cl.EnergyPerCycle() > 0) {
				t.Fatalf("class %d: EffFmax %g, EnergyPerCycle %g", c, cl.EffFmax(), cl.EnergyPerCycle())
			}
		}
		seen := 0
		for p := 0; p < h.NumProcs(); p++ {
			ci := h.ClassOf(p)
			if ci < 0 || ci >= h.NumClasses() {
				t.Fatalf("proc %d maps to class %d of %d", p, ci, h.NumClasses())
			}
			if ci > seen {
				if ci != seen+1 {
					t.Fatalf("proc numbering not class-major at proc %d", p)
				}
				seen = ci
			}
		}
		fastest := 0.0
		for c := 0; c < h.NumClasses(); c++ {
			fastest = math.Max(fastest, h.Class(c).EffFmax())
		}
		if h.RefFmax() <= 0 || h.RefFmax() != fastest {
			t.Fatalf("RefFmax %g, want the fastest class's %g", h.RefFmax(), fastest)
		}
		if k := h.Key(); k == "" || k != h.Key() {
			t.Fatal("content key empty or unstable")
		}
	})
}
