// Package power models DVS (dynamic voltage scaling) processors: discrete
// voltage/frequency operating points, dynamic power dissipation, idle power
// and the costs of power management itself.
//
// Following §2.3 of the paper, processor power consumption is dominated by
// dynamic power dissipation
//
//	P = C_ef · V_dd² · f
//
// where C_ef is the effective switch capacitance, V_dd the supply voltage
// and f the clock frequency. Real processors expose a small set of discrete
// (f, V) operating points; this package ships the two configurations the
// paper evaluates — the Transmeta Crusoe TM5400 (Table 1) and the Intel
// XScale (Table 2) — plus synthetic platforms for the ablation studies the
// paper lists as future work (varying f_min/f_max and the number of levels).
//
// An idle processor consumes a fixed fraction (5% in the paper) of the
// maximum power level. Changing the operating point costs a fixed time
// overhead, and computing a new speed costs a fixed cycle count; both are
// captured by Overheads.
package power

import (
	"fmt"
	"math"
	"sync"
)

// Level is one discrete operating point of a DVS processor.
type Level struct {
	// Freq is the clock frequency in Hz.
	Freq float64
	// Volt is the supply voltage in volts.
	Volt float64
}

// MHz constructs a Level from a frequency in MHz and a voltage in volts.
func MHz(freqMHz, volt float64) Level {
	return Level{Freq: freqMHz * 1e6, Volt: volt}
}

// String renders the level as "600MHz@1.30V".
func (l Level) String() string {
	return fmt.Sprintf("%.4gMHz@%.3gV", l.Freq/1e6, l.Volt)
}

// Platform describes one DVS processor model. All processors of a
// simulated multiprocessor system are identical, so a single Platform is
// shared by the whole system. Platforms are immutable after construction.
type Platform struct {
	// Name labels the platform in reports ("Transmeta TM5400", ...).
	Name string
	// Cef is the effective switch capacitance in farads. Its absolute value
	// cancels in normalized energy comparisons; the default gives power in
	// plausible watts.
	Cef float64
	// IdleFrac is the idle power as a fraction of the maximum power level
	// (0.05 in the paper).
	IdleFrac float64

	levels []Level // ascending by frequency
	// homog holds the Homogeneous machines built on the platform, so that
	// the plans of one platform share one machine per processor count.
	homog *homogMemo
}

// homogMemo maps a processor count to its Homogeneous machine.
type homogMemo struct {
	mu sync.Mutex
	m  map[int]*Hetero
}

// DefaultCef is the effective switching capacitance used when none is
// specified (1 nF, which puts maximum power in the low watts for the
// platforms modeled here).
const DefaultCef = 1e-9

// DefaultIdleFrac is the paper's idle power fraction: an idle processor
// consumes 5% of the maximal power level.
const DefaultIdleFrac = 0.05

// NewPlatform builds a platform from its operating points. Levels may be
// given in any order; they are sorted by frequency. It panics on an empty
// level list, duplicate frequencies, or non-positive frequency/voltage
// (platform tables are static program data, so these are programming
// errors, not runtime conditions).
func NewPlatform(name string, levels []Level) *Platform {
	if len(levels) == 0 {
		panic("power: platform needs at least one level")
	}
	ls := append([]Level(nil), levels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j-1].Freq > ls[j].Freq; j-- {
			ls[j-1], ls[j] = ls[j], ls[j-1]
		}
	}
	for i, l := range ls {
		if l.Freq <= 0 || l.Volt <= 0 {
			panic(fmt.Sprintf("power: platform %q level %d has non-positive freq/volt", name, i))
		}
		if i > 0 && ls[i-1].Freq == l.Freq {
			panic(fmt.Sprintf("power: platform %q has duplicate frequency %v", name, l))
		}
	}
	return &Platform{Name: name, Cef: DefaultCef, IdleFrac: DefaultIdleFrac, levels: ls, homog: new(homogMemo)}
}

// Levels returns the operating points in ascending frequency order. The
// returned slice is owned by the platform and must not be modified.
func (p *Platform) Levels() []Level { return p.levels }

// NumLevels returns the number of operating points.
func (p *Platform) NumLevels() int { return len(p.levels) }

// Min returns the lowest-frequency operating point (f_min).
func (p *Platform) Min() Level { return p.levels[0] }

// Max returns the highest-frequency operating point (f_max).
func (p *Platform) Max() Level { return p.levels[len(p.levels)-1] }

// MaxIndex returns the index of the highest-frequency level.
func (p *Platform) MaxIndex() int { return len(p.levels) - 1 }

// quantizeTol absorbs floating-point noise when a requested frequency is
// mathematically equal to a level frequency.
const quantizeTol = 1e-9

// QuantizeUp returns the index of the slowest level whose frequency is at
// least f (within a relative tolerance). Requests below f_min return the
// minimum level (the paper: "when the desired speed is less than f_min, the
// CPU is set to run at f_min"); requests above f_max are clamped to the
// maximum level — the caller is responsible for having established that
// f_max suffices (the off-line feasibility test).
func (p *Platform) QuantizeUp(f float64) int {
	for i, l := range p.levels {
		if l.Freq >= f*(1-quantizeTol) {
			return i
		}
	}
	return len(p.levels) - 1
}

// QuantizeDown returns the index of the fastest level whose frequency is at
// most f (within tolerance), or the minimum level if f is below f_min.
func (p *Platform) QuantizeDown(f float64) int {
	for i := len(p.levels) - 1; i > 0; i-- {
		if p.levels[i].Freq <= f*(1+quantizeTol) {
			return i
		}
	}
	return 0
}

// Power returns the dynamic power dissipation in watts at the given level:
// C_ef · V² · f.
func (p *Platform) Power(l Level) float64 {
	return p.Cef * l.Volt * l.Volt * l.Freq
}

// PowerAt returns the dynamic power at the level with the given index.
func (p *Platform) PowerAt(i int) float64 { return p.Power(p.levels[i]) }

// MaxPower returns the power at the maximum level.
func (p *Platform) MaxPower() float64 { return p.Power(p.Max()) }

// IdlePower returns the power consumed by an idle processor:
// IdleFrac · MaxPower.
func (p *Platform) IdlePower() float64 { return p.IdleFrac * p.MaxPower() }

// WithCef returns a copy of the platform with the given effective
// capacitance.
func (p *Platform) WithCef(cef float64) *Platform {
	if cef <= 0 || math.IsNaN(cef) {
		panic("power: non-positive Cef")
	}
	q := *p
	q.Cef, q.homog = cef, new(homogMemo)
	return &q
}

// WithIdleFrac returns a copy of the platform with the given idle power
// fraction (0 ≤ frac ≤ 1).
func (p *Platform) WithIdleFrac(frac float64) *Platform {
	if frac < 0 || frac > 1 {
		panic("power: idle fraction outside [0,1]")
	}
	q := *p
	q.IdleFrac, q.homog = frac, new(homogMemo)
	return &q
}
