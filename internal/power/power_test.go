package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransmeta5400Table(t *testing.T) {
	p := Transmeta5400()
	if p.NumLevels() != 16 {
		t.Fatalf("levels = %d, want 16 (Table 1)", p.NumLevels())
	}
	if got := p.Min(); !closeTo(got.Freq, 200e6) || !closeTo(got.Volt, 1.10) {
		t.Errorf("min level = %v, want 200MHz@1.10V", got)
	}
	if got := p.Max(); !closeTo(got.Freq, 700e6) || !closeTo(got.Volt, 1.65) {
		t.Errorf("max level = %v, want 700MHz@1.65V", got)
	}
	for i := 1; i < p.NumLevels(); i++ {
		if p.Levels()[i].Freq <= p.Levels()[i-1].Freq {
			t.Error("frequencies not strictly increasing")
		}
		if p.Levels()[i].Volt < p.Levels()[i-1].Volt {
			t.Error("voltages not monotone")
		}
	}
}

func TestIntelXScaleTable(t *testing.T) {
	p := IntelXScale()
	if p.NumLevels() != 5 {
		t.Fatalf("levels = %d, want 5 (Table 2)", p.NumLevels())
	}
	want := []Level{MHz(150, 0.75), MHz(400, 1.0), MHz(600, 1.3), MHz(800, 1.6), MHz(1000, 1.8)}
	for i, l := range p.Levels() {
		if l != want[i] {
			t.Errorf("level %d = %v, want %v", i, l, want[i])
		}
	}
	// The paper stresses that V(f) is non-linear for both platforms: check
	// the voltage step per MHz is not constant.
	l := p.Levels()
	s1 := (l[1].Volt - l[0].Volt) / (l[1].Freq - l[0].Freq)
	s2 := (l[2].Volt - l[1].Volt) / (l[2].Freq - l[1].Freq)
	if math.Abs(s1-s2) < 1e-12 {
		t.Error("XScale voltage curve should be non-linear")
	}
}

func TestQuantizeUp(t *testing.T) {
	p := IntelXScale()
	cases := []struct {
		f    float64
		want int
	}{
		{0, 0},     // below fmin → fmin
		{100e6, 0}, // below fmin → fmin
		{150e6, 0}, // exactly fmin
		{150.0001e6, 1},
		{399e6, 1},
		{400e6, 1},
		{401e6, 2},
		{999e6, 4},
		{1000e6, 4},
		{5000e6, 4}, // above fmax → clamp
	}
	for _, c := range cases {
		if got := p.QuantizeUp(c.f); got != c.want {
			t.Errorf("QuantizeUp(%g MHz) = %d, want %d", c.f/1e6, got, c.want)
		}
	}
}

func TestQuantizeDown(t *testing.T) {
	p := IntelXScale()
	cases := []struct {
		f    float64
		want int
	}{
		{100e6, 0}, // below fmin → fmin
		{150e6, 0},
		{399e6, 0},
		{400e6, 1},
		{650e6, 2},
		{1000e6, 4},
		{2000e6, 4},
	}
	for _, c := range cases {
		if got := p.QuantizeDown(c.f); got != c.want {
			t.Errorf("QuantizeDown(%g MHz) = %d, want %d", c.f/1e6, got, c.want)
		}
	}
}

// TestQuantizeProperties: up never under-allocates; down never exceeds;
// up ≥ down for any frequency.
func TestQuantizeProperties(t *testing.T) {
	plats := []*Platform{Transmeta5400(), IntelXScale(), Synthetic(7, 100, 900, 0.8, 1.7)}
	prop := func(raw float64) bool {
		f := math.Mod(math.Abs(raw), 1200e6)
		for _, p := range plats {
			up, down := p.QuantizeUp(f), p.QuantizeDown(f)
			if up < down {
				return false
			}
			if f <= p.Max().Freq && p.Levels()[up].Freq < f*(1-1e-9) {
				return false
			}
			if f >= p.Min().Freq && p.Levels()[down].Freq > f*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPowerFormula(t *testing.T) {
	p := IntelXScale()
	// P = Cef·V²·f with the default Cef of 1 nF.
	want := 1e-9 * 1.8 * 1.8 * 1000e6
	if got := p.MaxPower(); !closeTo(got, want) {
		t.Errorf("MaxPower = %g, want %g", got, want)
	}
	if got := p.IdlePower(); !closeTo(got, 0.05*want) {
		t.Errorf("IdlePower = %g, want %g", got, 0.05*want)
	}
	// Power is strictly increasing in level index.
	for i := 1; i < p.NumLevels(); i++ {
		if p.PowerAt(i) <= p.PowerAt(i-1) {
			t.Error("power not increasing with level")
		}
	}
}

func TestEnergyRatioQuadratic(t *testing.T) {
	p := IntelXScale()
	// Running fixed work at 400MHz/1.0V vs 1000MHz/1.8V costs
	// (1.0/1.8)² of the energy.
	// Energy per cycle is P/f = C_ef·V².
	ratio := func(i int) float64 {
		return p.PowerAt(i) / p.Levels()[i].Freq / (p.MaxPower() / p.Max().Freq)
	}
	want := (1.0 / 1.8) * (1.0 / 1.8)
	if got := ratio(1); !closeTo(got, want) {
		t.Errorf("energy ratio at level 1 = %g, want %g", got, want)
	}
	if got := ratio(p.MaxIndex()); !closeTo(got, 1) {
		t.Errorf("energy ratio at max = %g, want 1", got)
	}
}

func TestWithCefAndIdleFrac(t *testing.T) {
	p := IntelXScale()
	q := p.WithCef(2e-9).WithIdleFrac(0.10)
	if q.Cef != 2e-9 || q.IdleFrac != 0.10 {
		t.Error("With* setters failed")
	}
	if p.Cef != DefaultCef || p.IdleFrac != DefaultIdleFrac {
		t.Error("With* mutated the receiver")
	}
	mustPanic(t, func() { p.WithCef(0) })
	mustPanic(t, func() { p.WithIdleFrac(-0.1) })
	mustPanic(t, func() { p.WithIdleFrac(1.1) })
}

func TestSynthetic(t *testing.T) {
	p := Synthetic(4, 100, 400, 1.0, 1.6)
	if p.NumLevels() != 4 {
		t.Fatalf("levels = %d", p.NumLevels())
	}
	if p.Min().Freq != 100e6 || p.Max().Freq != 400e6 {
		t.Error("synthetic range wrong")
	}
	if p.Levels()[1].Freq != 200e6 || !closeTo(p.Levels()[1].Volt, 1.2) {
		t.Errorf("interpolation wrong: %v", p.Levels()[1])
	}
	one := Synthetic(1, 0, 500, 0, 1.5)
	if one.NumLevels() != 1 || one.Max().Freq != 500e6 {
		t.Error("single-level synthetic wrong")
	}
	mustPanic(t, func() { Synthetic(0, 1, 2, 1, 2) })
	mustPanic(t, func() { Synthetic(3, 500, 100, 1, 2) })
}

func TestNewPlatformValidation(t *testing.T) {
	mustPanic(t, func() { NewPlatform("x", nil) })
	mustPanic(t, func() { NewPlatform("x", []Level{MHz(0, 1)}) })
	mustPanic(t, func() { NewPlatform("x", []Level{MHz(100, 1), MHz(100, 1.2)}) })
	// Levels are sorted regardless of input order.
	p := NewPlatform("x", []Level{MHz(300, 1.2), MHz(100, 1.0), MHz(200, 1.1)})
	if p.Min().Freq != 100e6 || p.Max().Freq != 300e6 {
		t.Error("levels not sorted")
	}
}

func TestOverheads(t *testing.T) {
	ov := DefaultOverheads()
	if ov.SpeedCompCycles != 600 || ov.SpeedChangeTime != 5e-6 {
		t.Errorf("DefaultOverheads = %+v", ov)
	}
	if got := ov.CompTime(600e6); !closeTo(got, 1e-6) {
		t.Errorf("CompTime(600MHz) = %g, want 1µs", got)
	}
	if NoOverheads().CompTime(1e6) != 0 {
		t.Error("NoOverheads CompTime should be 0")
	}
	p := IntelXScale()
	// The pad = change + comp@fmin = 5µs + 600/150MHz = 9µs.
	if got := ov.PadTimeHetero(oneProc(t, p)); !closeTo(got, 9e-6) {
		t.Errorf("PadTimeHetero = %g, want 9µs", got)
	}
}

func TestVoltageSlewModel(t *testing.T) {
	ov := Overheads{SpeedChangeTime: 5e-6, VoltSlewTime: 100e-6} // 100µs per volt
	lo, hi := MHz(150, 0.75), MHz(1000, 1.80)
	// 5µs fixed + 100µs/V × 1.05V = 110µs; symmetric.
	if got := ov.ChangeTime(lo, hi); !closeTo(got, 110e-6) {
		t.Errorf("ChangeTime = %g, want 110µs", got)
	}
	if ov.ChangeTime(lo, hi) != ov.ChangeTime(hi, lo) {
		t.Error("slew cost must be symmetric")
	}
	// Same level: fixed cost only (the engine never charges it without a
	// change, but the function must be consistent).
	if got := ov.ChangeTime(lo, lo); !closeTo(got, 5e-6) {
		t.Errorf("zero-swing ChangeTime = %g", got)
	}
	p := IntelXScale()
	if got := ov.MaxChangeTime(p); !closeTo(got, 110e-6) {
		t.Errorf("MaxChangeTime = %g, want 110µs", got)
	}
	// The pad budgets the worst swing: 110µs + 600c/150MHz = 114µs.
	pad := Overheads{SpeedCompCycles: 600, SpeedChangeTime: 5e-6, VoltSlewTime: 100e-6}
	if got := pad.PadTimeHetero(oneProc(t, p)); !closeTo(got, 114e-6) {
		t.Errorf("PadTimeHetero = %g, want 114µs", got)
	}
	// The paper's model (zero slew) charges the fixed cost for any swing.
	if got := DefaultOverheads().ChangeTime(lo, hi); !closeTo(got, 5e-6) {
		t.Errorf("default ChangeTime = %g, want 5µs", got)
	}
}

func TestLevelString(t *testing.T) {
	if got := MHz(600, 1.3).String(); got != "600MHz@1.3V" {
		t.Errorf("Level.String = %q", got)
	}
}

// oneProc wraps p as a one-processor machine.
func oneProc(t *testing.T, p *Platform) *Hetero {
	t.Helper()
	h, err := Homogeneous(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b)
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
