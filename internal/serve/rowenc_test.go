package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"andorsched/internal/core"
)

// allSchemes is every core scheme plus an out-of-range value, whose name
// comes from String's fallback.
func allSchemes() []core.Scheme {
	s := append(append([]core.Scheme(nil), core.Schemes...), core.ExtendedSchemes...)
	return append(s, core.Scheme(200))
}

// rowFloats covers the float renderings encoding/json distinguishes:
// signed zeros, subnormals, both sides of the 1e-6 and 1e21 switches to
// exponent form, one- and three-digit negative and positive exponents, and
// the long decimals simulation energies produce.
var rowFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, -2.5e-3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e-7, -1e-7, 5e-7, 1.5e-9, 1e-10, 1e-100, -3.25e-300,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1.5e21, 1e+300, -1e+300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1.5e-310,
	123456789.123, 0.00003103650000000001, 0.052338366652091246,
}

// checkAppendRow compares appendRow with json.Encoder.Encode on row: the
// same bytes, appended after what dst already holds, or false exactly
// when encoding/json refuses the row.
func checkAppendRow(t *testing.T, row *RunRow) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(row)
	const prefix = "prior bytes\n"
	got, ok := appendRow([]byte(prefix), row)
	switch {
	case err != nil && ok:
		t.Fatalf("appendRow encoded a row encoding/json refuses (%v): %+v", err, row)
	case err == nil && !ok:
		t.Fatalf("appendRow refused a row encoding/json encodes as %s", want.String())
	case err == nil && string(got) != prefix+want.String():
		t.Fatalf("appendRow diverged from encoding/json:\ngot:  %s\nwant: %s", got[len(prefix):], want.String())
	}
}

func TestAppendRowMatchesEncodingJSON(t *testing.T) {
	rows := 0
	for _, sc := range allSchemes() {
		for i, f := range rowFloats {
			g := rowFloats[(i+7)%len(rowFloats)]
			row := RunRow{Run: i * 997, Scheme: sc.String(), DeadlineS: f, FinishS: g,
				MetDeadline: i%2 == 0, EnergyJ: -f, ActiveJ: g / 3, OverheadJ: f * g, IdleJ: f,
				SpeedChanges: i}
			checkAppendRow(t, &row)
			row.ClassGrossJ, row.ClassIdleJ, row.Path = []float64{}, []float64{}, []int{}
			checkAppendRow(t, &row)
			row.ClassGrossJ, row.ClassIdleJ = []float64{f, g}, []float64{g}
			row.Path = []int{1, 0, i, -3}
			checkAppendRow(t, &row)
			row.ClassIdleJ, row.Path = nil, []int{0}
			checkAppendRow(t, &row)
			rows += 4
		}
	}
	extreme := RunRow{Run: math.MaxInt, Scheme: "GSS", SpeedChanges: math.MinInt, Path: []int{math.MaxInt, math.MinInt}}
	checkAppendRow(t, &extreme)
	t.Logf("%d rows byte-identical to encoding/json", rows+1)
}

// TestAppendRowRejectsNonFinite: a NaN or an infinity in any float field,
// scalar or per-class, makes appendRow report false, as encoding/json
// fails on it.
func TestAppendRowRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := 0; k < 8; k++ {
			row := RunRow{Scheme: "AS", ClassGrossJ: []float64{1, 2}, ClassIdleJ: []float64{3, 4}, Path: []int{1}}
			*[]*float64{&row.DeadlineS, &row.FinishS, &row.EnergyJ, &row.ActiveJ, &row.OverheadJ,
				&row.IdleJ, &row.ClassGrossJ[1], &row.ClassIdleJ[0]}[k] = bad
			if _, ok := appendRow(nil, &row); ok {
				t.Errorf("float field %d = %v: appendRow reported success", k, bad)
			}
		}
	}
}

// TestSchemeNamesNeedNoEscaping pins the premise that lets appendRow copy
// the scheme name verbatim: no scheme name contains a byte encoding/json
// would escape.
func TestSchemeNamesNeedNoEscaping(t *testing.T) {
	for _, sc := range allSchemes() {
		name := sc.String()
		b, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+name+`"` {
			t.Errorf("scheme name %q encodes as %s: appendRow needs an escaper", name, b)
		}
	}
}

// FuzzAppendRow is the differential of TestAppendRowMatchesEncodingJSON
// over arbitrary float bits, counts and slice contents: class energies are
// read as float64 bit patterns from classes (8 bytes each, alternating
// gross and idle), path entries as signed bytes.
func FuzzAppendRow(f *testing.F) {
	bits := math.Float64bits
	f.Add(0, uint8(2), bits(0.124224), bits(0.11689433836553861), bits(0.052338366652091246),
		bits(0.047237753281799987), bits(0.00003103650000000001), bits(0.005069576870291261), true, 2,
		[]byte{}, []byte{1, 0})
	f.Add(-1, uint8(9), bits(math.Copysign(0, -1)), bits(1e-7), bits(1e21), bits(math.Nextafter(1e21, 0)),
		bits(math.SmallestNonzeroFloat64), bits(math.NaN()), false, -5,
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, bits(1e-6)), bits(math.Inf(1))), []byte{255})
	f.Add(1<<40, uint8(5), bits(1e300), bits(-1e-300), bits(5e-324), bits(1e20), bits(0.1), bits(1),
		true, 0, make([]byte, 24), []byte(nil))
	schemes := allSchemes()
	f.Fuzz(func(t *testing.T, run int, sc uint8, d, fin, e, a, o, idle uint64, met bool, chg int,
		classes, path []byte) {
		row := RunRow{Run: run, Scheme: schemes[int(sc)%len(schemes)].String(),
			DeadlineS: math.Float64frombits(d), FinishS: math.Float64frombits(fin),
			MetDeadline: met, EnergyJ: math.Float64frombits(e), ActiveJ: math.Float64frombits(a),
			OverheadJ: math.Float64frombits(o), IdleJ: math.Float64frombits(idle), SpeedChanges: chg}
		for k := 0; k+8 <= len(classes); k += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(classes[k:]))
			if k/8%2 == 0 {
				row.ClassGrossJ = append(row.ClassGrossJ, v)
			} else {
				row.ClassIdleJ = append(row.ClassIdleJ, v)
			}
		}
		if len(classes) > 0 && len(classes) < 8 {
			row.ClassGrossJ = []float64{} // empty but non-nil: omitted like nil
		}
		for _, p := range path {
			row.Path = append(row.Path, int(int8(p)))
		}
		checkAppendRow(t, &row)
	})
}
