package sim_test

import (
	"fmt"

	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// Example runs the engine directly on a tiny order-gated section: two
// parallel 200-megacycle tasks and a dependent 100-megacycle task, on two
// 400 MHz processors, each task doing its worst case. The section is
// compiled once and run as a one-step script, keeping its records (the
// higher layers in internal/core normally drive this for you).
func Example() {
	plat := power.NewPlatform("demo", []power.Level{power.MHz(400, 1.2)})
	tasks := []sim.Task{
		{Name: "a", WorkW: 200e6, Order: 0, Succs: []int{2}},
		{Name: "b", WorkW: 200e6, Order: 1},
		{Name: "c", WorkW: 100e6, Order: 2, Preds: []int{0}},
	}
	machine, err := power.Homogeneous(plat, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	prog := new(sim.Program)
	if _, err := sim.CompileInto(prog, machine, tasks, make([]int, 2*len(tasks))); err != nil {
		fmt.Println(err)
		return
	}
	work := []float64{200e6, 200e6, 100e6}
	res, err := sim.NewArena().Run(&sim.Config{Hetero: machine, Record: true}, []sim.Step{{Prog: prog, Work: work}})
	if err != nil {
		fmt.Println(err)
		return
	}
	recs := res.Sections[0].Records
	fmt.Printf("finish %.2fs after %d dispatches\n", res.Finish, len(recs))
	for _, r := range recs {
		fmt.Printf("%s on P%d [%.2f, %.2f]\n", tasks[r.Task].Name, r.Proc, r.Dispatch, r.Finish)
	}
	// Output:
	// finish 0.75s after 3 dispatches
	// a on P0 [0.00, 0.50]
	// b on P1 [0.00, 0.50]
	// c on P0 [0.50, 0.75]
}
