package exectime

import (
	"math"
	"testing"
)

// TestFillNormMatchesNormFloat64 asserts bit-identical sequences between
// FillNorm and successive NormFloat64 calls, across batch sizes that
// exercise the spare-caching boundary (odd/even splits, empty fills).
func TestFillNormMatchesNormFloat64(t *testing.T) {
	for _, sizes := range [][]int{
		{1}, {2}, {3}, {4, 5}, {0, 1, 0, 2}, {7, 1, 1, 8}, {128},
		{1, 1, 1, 1, 1}, {3, 3, 3},
	} {
		a := NewSource(99)
		b := NewSource(99)
		for _, n := range sizes {
			got := make([]float64, n)
			a.FillNorm(got)
			for i := 0; i < n; i++ {
				want := b.NormFloat64()
				if got[i] != want {
					t.Fatalf("sizes %v: element %d: FillNorm %v != NormFloat64 %v", sizes, i, got[i], want)
				}
			}
		}
		// The generators must be left in identical states: interleave.
		if a.NormFloat64() != b.NormFloat64() || a.Float64() != b.Float64() {
			t.Fatalf("sizes %v: diverged state after fills", sizes)
		}
	}
}

// TestFillNormInterleaved mixes FillNorm and NormFloat64 on one source and
// checks the combined stream equals a pure NormFloat64 stream.
func TestFillNormInterleaved(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	var got []float64
	buf := make([]float64, 5)
	a.FillNorm(buf[:3])
	got = append(got, buf[:3]...)
	got = append(got, a.NormFloat64())
	a.FillNorm(buf[:5])
	got = append(got, buf[:5]...)
	got = append(got, a.NormFloat64(), a.NormFloat64())
	for i, g := range got {
		if want := b.NormFloat64(); g != want {
			t.Fatalf("element %d: %v != %v", i, g, want)
		}
	}
}

// TestSampleBatchMatchesSample draws random task parameter sets — including
// the no-variability (ACET = WCET) edge case that consumes no randomness —
// and asserts SampleBatch equals element-wise Sample bit-for-bit, with both
// samplers ending in the same generator state. The bias factors include 1
// (unbiased), lighter and heavier runs, and one above every task's
// WCET/ACET (every mean clamped to the WCET).
func TestSampleBatchMatchesSample(t *testing.T) {
	for _, bias := range []float64{1, 0.4, 1.7, 20} {
		param := NewSource(123)
		one := &Sampler{src: NewSource(42), bias: bias}
		batch := &Sampler{src: NewSource(42), bias: bias}
		for trial := 0; trial < 200; trial++ {
			n := param.Intn(17) // includes 0-length sections
			wcet := make([]float64, n)
			acet := make([]float64, n)
			for i := 0; i < n; i++ {
				wcet[i] = 1e-3 + 9e-3*param.Float64()
				switch param.Intn(4) {
				case 0:
					acet[i] = wcet[i] // α = 1: no draw consumed
				default:
					acet[i] = wcet[i] * (0.1 + 0.9*param.Float64())
				}
			}
			got := make([]float64, n)
			batch.SampleBatch(wcet, acet, got)
			for i := 0; i < n; i++ {
				want := one.Sample(wcet[i], acet[i])
				if got[i] != want {
					t.Fatalf("bias %g trial %d task %d: batch %v != sample %v", bias, trial, i, got[i], want)
				}
				if got[i] <= 0 || got[i] > wcet[i] {
					t.Fatalf("bias %g trial %d task %d: sample %v outside (0, %v]", bias, trial, i, got[i], wcet[i])
				}
			}
		}
		// Final states must agree so mixed batch/single call sites stay
		// deterministic.
		if one.Source().Float64() != batch.Source().Float64() {
			t.Fatalf("bias %g: generator states diverged", bias)
		}
	}
}

// TestBiasedSamplerRescalesMean: a biased draw is an unbiased draw around
// min(factor·ACET, WCET) from the same stream, and a non-positive factor
// panics.
func TestBiasedSamplerRescalesMean(t *testing.T) {
	const w, a = 10e-3, 4e-3
	for _, factor := range []float64{0.25, 1, 2, 3} {
		biased := NewBiasedSampler(NewSource(11), factor)
		plain := NewSampler(NewSource(11))
		for i := 0; i < 50; i++ {
			if got, want := biased.Sample(w, a), plain.Sample(w, math.Min(w, factor*a)); got != want {
				t.Fatalf("factor %g draw %d: %v, want %v", factor, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive bias factor should panic")
		}
	}()
	NewBiasedSampler(NewSource(1), 0)
}

// TestSampleBatchLengthMismatch asserts the documented panic.
func TestSampleBatchLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched slice lengths")
		}
	}()
	NewSampler(NewSource(1)).SampleBatch(make([]float64, 2), make([]float64, 3), make([]float64, 2))
}

// TestSampleBatchNoAllocSteadyState asserts the warmed batch path performs
// no allocation — it sits on the server's per-request hot path.
func TestSampleBatchNoAllocSteadyState(t *testing.T) {
	sm := NewSampler(NewSource(5))
	wcet := make([]float64, 64)
	acet := make([]float64, 64)
	dst := make([]float64, 64)
	for i := range wcet {
		wcet[i] = 8e-3
		acet[i] = 5e-3
	}
	sm.SampleBatch(wcet, acet, dst) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		sm.SampleBatch(wcet, acet, dst)
	})
	if allocs != 0 {
		t.Fatalf("warmed SampleBatch allocates %v per call, want 0", allocs)
	}
	if math.IsNaN(dst[0]) {
		t.Fatal("NaN sample")
	}
}
