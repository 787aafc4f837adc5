package power

import "fmt"

// Transmeta5400 returns the Transmeta Crusoe TM5400 platform of the paper's
// Table 1: 16 voltage/frequency settings between 200 MHz at 1.10 V and
// 700 MHz at 1.65 V. The published table's interior values are not legible
// in the available copy of the paper, so frequencies are spaced evenly at
// 33⅓ MHz with linearly interpolated voltages — preserving the level count,
// the frequency range and the voltage range, which are what the evaluation
// depends on (many closely spaced levels).
func Transmeta5400() *Platform {
	const n = 16
	levels := make([]Level, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		levels[i] = MHz(200+frac*500, 1.10+frac*0.55)
	}
	return NewPlatform("Transmeta TM5400", levels)
}

// IntelXScale returns the Intel XScale platform of the paper's Table 2:
// few, widely spaced levels with a markedly non-linear voltage/frequency
// relation. The operating points are the standard XScale 80200 set used
// throughout this research group's work.
func IntelXScale() *Platform {
	return NewPlatform("Intel XScale", []Level{
		MHz(150, 0.75),
		MHz(400, 1.00),
		MHz(600, 1.30),
		MHz(800, 1.60),
		MHz(1000, 1.80),
	})
}

// Synthetic returns an artificial platform with n evenly spaced frequency
// levels between fminMHz and fmaxMHz and linearly interpolated voltages
// between vmin and vmax. It supports the ablation studies the paper lists
// as future work: the effect of the minimal speed (f_min/f_max ratio) and
// of the number of speed levels on each scheme's energy savings. n = 1
// yields a fixed-speed processor at fmaxMHz.
func Synthetic(n int, fminMHz, fmaxMHz, vmin, vmax float64) *Platform {
	if n < 1 {
		panic("power: Synthetic needs at least one level")
	}
	if n == 1 {
		return NewPlatform(fmt.Sprintf("Synthetic-1@%gMHz", fmaxMHz), []Level{MHz(fmaxMHz, vmax)})
	}
	if fminMHz >= fmaxMHz || vmin > vmax {
		panic("power: Synthetic needs fmin < fmax and vmin <= vmax")
	}
	levels := make([]Level, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		levels[i] = MHz(fminMHz+frac*(fmaxMHz-fminMHz), vmin+frac*(vmax-vmin))
	}
	return NewPlatform(fmt.Sprintf("Synthetic-%d[%g-%gMHz]", n, fminMHz, fmaxMHz), levels)
}

// Overheads captures the two costs of dynamic power management (§5):
// computing a new speed at each power management point, and actually
// changing the voltage/speed.
type Overheads struct {
	// SpeedCompCycles is the cycle count of the new-speed computation,
	// executed at the processor's current frequency before each speed
	// decision. The paper measured this on the SimpleScalar simulator; 600
	// cycles is used here (the exact figure is garbled in the available
	// copy; it is configurable and its effect is covered by an ablation).
	SpeedCompCycles float64
	// SpeedChangeTime is the fixed wall-clock cost in seconds of one
	// voltage/speed change. Current technology at the time needed tens to
	// hundreds of microseconds; the paper's experiments use 5 µs.
	SpeedChangeTime float64
	// VoltSlewTime extends the model with the converter-limited dV/dt of
	// Burd & Brodersen (the paper's reference [3]): an additional cost in
	// seconds per volt of supply-voltage swing, so a transition between
	// levels (V₁, V₂) costs SpeedChangeTime + VoltSlewTime·|V₂−V₁|.
	// Zero (the default, and the paper's model) makes every change cost
	// the same.
	VoltSlewTime float64
}

// DefaultOverheads returns the overhead configuration of the paper's
// experiments: 600 cycles of speed computation and 5 µs per speed change.
func DefaultOverheads() Overheads {
	return Overheads{SpeedCompCycles: 600, SpeedChangeTime: 5e-6}
}

// NoOverheads returns a zero-cost configuration (ideal power management).
func NoOverheads() Overheads { return Overheads{} }

// CompTime returns the speed-computation overhead in seconds when running
// at frequency f.
func (o Overheads) CompTime(f float64) float64 {
	if o.SpeedCompCycles == 0 {
		return 0
	}
	return o.SpeedCompCycles / f
}

// ChangeTime returns the cost in seconds of transitioning between the two
// operating points: the fixed cost plus the voltage-slew cost.
func (o Overheads) ChangeTime(from, to Level) float64 {
	dv := to.Volt - from.Volt
	if dv < 0 {
		dv = -dv
	}
	return o.SpeedChangeTime + o.VoltSlewTime*dv
}

// MaxChangeTime returns the worst transition cost on the platform (a full
// V_min↔V_max swing) — what the scheduler must budget before it knows
// which level it will pick.
func (o Overheads) MaxChangeTime(p *Platform) float64 {
	return o.SpeedChangeTime + o.VoltSlewTime*(p.Max().Volt-p.Min().Volt)
}
