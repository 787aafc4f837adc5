package power_test

import (
	"fmt"

	"andorsched/internal/power"
)

// Example shows the paper's power model on the Intel XScale table: running
// the same work at a lower operating point costs quadratically less energy
// (the V² factor) while only linearly extending execution time.
func Example() {
	p := power.IntelXScale()
	fmt.Printf("%s: %d levels, f_min %s, f_max %s\n",
		p.Name, p.NumLevels(), p.Min(), p.Max())
	fmt.Printf("P(f_max) = %.2f W, idle = %.3f W\n", p.MaxPower(), p.IdlePower())

	// A task needing 400 Mcycles with 2 s of allocation: 200 MHz would
	// do, but the platform's next level up is 400 MHz at 1.0 V.
	idx := p.QuantizeUp(200e6)
	lv := p.Levels()[idx]
	fmt.Printf("200 MHz requested -> %s\n", lv)
	perCycle := func(l power.Level) float64 { return p.Power(l) / l.Freq }
	fmt.Printf("energy vs f_max for the same work: %.2f\n", perCycle(lv)/perCycle(p.Max()))
	// Output:
	// Intel XScale: 5 levels, f_min 150MHz@0.75V, f_max 1000MHz@1.8V
	// P(f_max) = 3.24 W, idle = 0.162 W
	// 200 MHz requested -> 400MHz@1V
	// energy vs f_max for the same work: 0.31
}

// ExampleOverheads_ChangeTime demonstrates the two transition-cost models:
// the paper's fixed cost and the voltage-slew extension.
func ExampleOverheads_ChangeTime() {
	paper := power.DefaultOverheads() // fixed 5 µs
	slew := power.Overheads{SpeedChangeTime: 5e-6, VoltSlewTime: 100e-6}
	lo := power.MHz(150, 0.75)
	hi := power.MHz(1000, 1.80)
	fmt.Printf("paper model:  %.0f µs for any change\n", paper.ChangeTime(lo, hi)*1e6)
	fmt.Printf("slew model:   %.0f µs for the full 1.05 V swing\n", slew.ChangeTime(lo, hi)*1e6)
	fmt.Printf("slew model:   %.0f µs for a 0.2 V step\n",
		slew.ChangeTime(power.MHz(600, 1.3), power.MHz(800, 1.5))*1e6)
	// Output:
	// paper model:  5 µs for any change
	// slew model:   110 µs for the full 1.05 V swing
	// slew model:   25 µs for a 0.2 V step
}
