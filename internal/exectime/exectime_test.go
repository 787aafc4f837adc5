package exectime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(99), NewSource(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
	c := NewSource(100)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewSource(99).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds look correlated")
	}
}

// TestSeedAt pins SeedAt(seed, i) to the (i+1)-th output of
// NewSource(seed) for arbitrary inputs.
func TestSeedAt(t *testing.T) {
	f := func(seed uint64, i uint16) bool {
		s := NewSource(seed)
		for k := uint16(0); k < i; k++ {
			s.Uint64()
		}
		return SeedAt(seed, uint64(i)) == s.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := NewSource(2)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := s.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %g, want ~%g", variance, 1.0/12)
	}
}

func TestIntn(t *testing.T) {
	s := NewSource(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d has %d hits, want ~10000", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewSource(4)
	const n = 200000
	var sum, sq, kurt float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sq += x * x
		kurt += x * x * x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
	if k := kurt / n; math.Abs(k-3) > 0.15 {
		t.Errorf("normal kurtosis = %g, want ~3", k)
	}
}

func TestPick(t *testing.T) {
	s := NewSource(6)
	probs := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Pick(probs)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Pick branch %d frequency %g, want %g", i, got, p)
		}
	}
	// Degenerate distributions still return a valid index.
	if got := s.Pick([]float64{0, 0}); got != 1 {
		t.Errorf("Pick on zero distribution = %d, want last index", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pick(empty) should panic")
		}
	}()
	s.Pick(nil)
}

func TestSamplerBounds(t *testing.T) {
	prop := func(seed uint64, w, frac float64) bool {
		w = 1e-4 + math.Mod(math.Abs(w), 1e-1)
		frac = math.Mod(math.Abs(frac), 1)
		if frac == 0 {
			frac = 0.5
		}
		a := frac * w
		sm := NewSampler(NewSource(seed))
		for i := 0; i < 100; i++ {
			x := sm.Sample(w, a)
			if x <= 0 || x > w {
				t.Logf("Sample(%g,%g) = %g out of bounds", w, a, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplerMeanTracksACET(t *testing.T) {
	sm := NewSampler(NewSource(7))
	const w, a = 10e-3, 6e-3
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += sm.Sample(w, a)
	}
	mean := sum / n
	if math.Abs(mean-a) > 0.05*a {
		t.Errorf("sample mean %g, want ~%g", mean, a)
	}
}

func TestSamplerDegenerateCases(t *testing.T) {
	sm := NewSampler(NewSource(8))
	// α = 1: no variability.
	if got := sm.Sample(5e-3, 5e-3); got != 5e-3 {
		t.Errorf("Sample at α=1 = %g, want WCET", got)
	}
}
