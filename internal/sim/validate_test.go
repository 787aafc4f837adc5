package sim

import (
	"strings"
	"testing"

	"andorsched/internal/power"
)

// runValid produces a correct result for corruption-based negative tests.
func runValid(t *testing.T) (*power.Hetero, *sectionRun) {
	t.Helper()
	p := testPlat()
	ov := power.Overheads{SpeedCompCycles: 10e6, SpeedChangeTime: 0.01}
	tasks := []*Task{
		{Name: "a", WorkW: 200e6, Order: 0, Succs: []int{2}, LFT: 100},
		{Name: "b", WorkW: 300e6, Order: 1, LFT: 100},
		{Name: "and", Dummy: true, Order: 2, Preds: []int{0}, Succs: []int{3}, LFT: 100},
		{Name: "c", WorkW: 100e6, Order: 3, Preds: []int{2}, LFT: 100},
	}
	h := machine(p, 2)
	res, err := runSection(NewArena(), &Config{
		Hetero: h, Overheads: ov, Policy: fixedPolicy(1),
	}, 2, tasks, []float64{150e6, 200e6, 0, 80e6})
	if err != nil {
		t.Fatal(err)
	}
	return h, res
}

func TestValidateAcceptsEngineOutput(t *testing.T) {
	p, res := runValid(t)
	if err := validate(p, res); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesCorruption corrupts one aspect at a time, of the
// section or of its program's tasks, and expects the oracle to flag each.
func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(tasks []Task, res *Section)
		wantSub string
	}{
		{"missing record", func(ts []Task, r *Section) { r.Records = r.Records[1:] }, "records for"},
		{"duplicate task", func(ts []Task, r *Section) { r.Records[1] = r.Records[0] }, "twice"},
		{"bad level", func(ts []Task, r *Section) { r.Records[0].Level = 99 }, "invalid level"},
		{"before start", func(ts []Task, r *Section) { r.Records[0].Dispatch = 0 }, "before start"},
		{"overhead math", func(ts []Task, r *Section) { r.Records[0].CompOH += 1 }, "overheads"},
		{"duration math", func(ts []Task, r *Section) { r.Records[0].Finish += 1; r.BusyTime[r.Records[0].Proc] += 1 }, "work/freq"},
		{"busy totals", func(ts []Task, r *Section) { r.BusyTime[0] += 5 }, "totals disagree"},
		{"class pin", func(ts []Task, r *Section) { ts[0].CanonClass = 1 }, "pinned to class 1"},
		{"LST count", func(ts []Task, r *Section) { r.LSTViolations++ }, "LST violations"},
		{"LST deadline", func(ts []Task, r *Section) { ts[3].LFT = 0 }, "LST violations"},
		{"order gate", func(ts []Task, r *Section) {
			// Swap the order fields of b (dispatched first) and c
			// (dispatched last): the recorded dispatch sequence now
			// contradicts the order gate without touching any record.
			ts[1].Order, ts[3].Order = ts[3].Order, ts[1].Order
		}, "order gate"},
		{"precedence", func(ts []Task, r *Section) {
			// Make c dispatch before its predecessor "and" finishes.
			var andFinish float64
			for _, rec := range r.Records {
				if rec.Task == 2 {
					andFinish = rec.Finish
				}
			}
			for i := range r.Records {
				rec := &r.Records[i]
				if rec.Task == 3 {
					d := rec.Finish - rec.Start
					rec.Dispatch = andFinish - 1
					rec.Start = rec.Dispatch + rec.CompOH + rec.ChangeOH
					rec.Finish = rec.Start + d
				}
			}
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, res := runValid(t)
			c.corrupt(res.step.Prog.tasks, res.Section)
			err := validate(p, res)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestValidateChecksEveryProcessor: a processor that ran nothing is still
// held to zero busy and overhead time, and when several processors' totals
// are wrong the error names the lowest one, on every call.
func TestValidateChecksEveryProcessor(t *testing.T) {
	h := machine(testPlat(), 3)
	tasks := []*Task{task("a", 100, nil, nil)}
	res, err := runSection(NewArena(), &Config{Hetero: h}, 0, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []*[]float64{&res.BusyTime, &res.OverheadTime} {
		(*field)[2] = 1
		if err := validate(h, res); err == nil || !strings.Contains(err.Error(), "processor 2 ") {
			t.Errorf("idle processor 2 with non-zero time: got %v", err)
		}
		(*field)[2] = 0
	}

	h, res = runValid(t)
	res.BusyTime[0] += 5
	res.BusyTime[1] += 5
	for call := 0; call < 50; call++ {
		if err := validate(h, res); err == nil || !strings.Contains(err.Error(), "processor 0 ") {
			t.Fatalf("call %d: two wrong processors: got %v, want processor 0 named", call, err)
		}
	}
}
