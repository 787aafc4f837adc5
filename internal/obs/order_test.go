package obs_test

import (
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// runTraced executes one deterministic on-line run of the synthetic
// application with a collector and metrics attached.
func runTraced(t *testing.T, scheme core.Scheme) (*core.RunResult, []obs.Event, obs.Snapshot) {
	t.Helper()
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	met := obs.NewMetrics()
	res, err := plan.Run(core.RunConfig{
		Scheme:   scheme,
		Deadline: plan.CTWorst / 0.6,
		Sampler:  exectime.NewSampler(exectime.NewSource(11)),
		Tracer:   col,
		Metrics:  met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("RunResult.Metrics not attached")
	}
	return res, col.Events(), *res.Metrics
}

// TestTracerEventOrdering asserts the hook-ordering contract: events from a
// deterministic run arrive in nondecreasing timestamp order, and
// dispatch/finish pairs balance per task node with no processor ever
// finishing a task it did not dispatch.
func TestTracerEventOrdering(t *testing.T) {
	for _, scheme := range []core.Scheme{core.GSS, core.AS, core.ASP} {
		t.Run(scheme.String(), func(t *testing.T) {
			res, events, _ := runTraced(t, scheme)
			if len(events) == 0 {
				t.Fatal("no events recorded")
			}

			last := events[0].Time
			balance := map[int]int{}  // node -> dispatches - finishes
			inFlight := map[int]int{} // proc -> currently dispatched tasks
			sections := 0
			dispatches, finishes, orResolves := 0, 0, 0
			for i, e := range events {
				if e.Time < last {
					t.Fatalf("event %d (%s) at t=%g before previous t=%g", i, e.Kind, e.Time, last)
				}
				last = e.Time
				switch e.Kind {
				case obs.EvTaskDispatch:
					dispatches++
					balance[e.Node]++
					inFlight[e.Proc]++
					if inFlight[e.Proc] > 1 {
						t.Fatalf("P%d dispatched a second task while one is in flight", e.Proc)
					}
				case obs.EvTaskFinish:
					finishes++
					balance[e.Node]--
					inFlight[e.Proc]--
					if inFlight[e.Proc] < 0 {
						t.Fatalf("P%d finished a task it never dispatched", e.Proc)
					}
					if balance[e.Node] < 0 {
						t.Fatalf("node %d finished more often than dispatched", e.Node)
					}
				case obs.EvSectionBegin:
					sections++
				case obs.EvSectionEnd:
					sections--
					if sections < 0 {
						t.Fatal("section ended before beginning")
					}
				case obs.EvORResolve:
					orResolves++
				}
			}
			if dispatches == 0 || dispatches != finishes {
				t.Errorf("dispatch/finish unbalanced: %d vs %d", dispatches, finishes)
			}
			for node, n := range balance {
				if n != 0 {
					t.Errorf("node %d: %+d unmatched dispatches", node, n)
				}
			}
			if sections != 0 {
				t.Errorf("%d sections never ended", sections)
			}
			if orResolves != len(res.Path) {
				t.Errorf("OR resolutions traced %d, want %d", orResolves, len(res.Path))
			}
		})
	}
}

// TestMetricsMatchResult cross-checks the metrics registry against the
// run's own aggregates.
func TestMetricsMatchResult(t *testing.T) {
	res, events, snap := runTraced(t, core.GSS)

	changes, _ := snap.Counter(sim.MetricSpeedChanges)
	if int(changes) != res.SpeedChanges {
		t.Errorf("metric speed changes %d != result %d", changes, res.SpeedChanges)
	}
	changeEvents := 0
	taskDispatches := 0
	for _, e := range events {
		switch e.Kind {
		case obs.EvSpeedChange:
			changeEvents++
		case obs.EvTaskDispatch:
			taskDispatches++
		}
	}
	if changeEvents != res.SpeedChanges {
		t.Errorf("speed-change events %d != result %d", changeEvents, res.SpeedChanges)
	}
	tasks, _ := snap.Counter(sim.MetricTasks)
	dummies, _ := snap.Counter(sim.MetricDummies)
	if int(tasks+dummies) != taskDispatches {
		t.Errorf("counter tasks+dummies = %d, dispatch events = %d", tasks+dummies, taskDispatches)
	}
	if tasks == 0 {
		t.Error("no tasks counted")
	}
	// Per-processor gauges must sum to the result's totals.
	var busy float64
	for i := 0; i < 2; i++ {
		v, ok := snap.Gauge(sim.MetricProcBusy(i))
		if !ok {
			t.Fatalf("missing busy gauge for P%d", i)
		}
		busy += v
	}
	if diff := busy - res.BusyTime; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("busy gauges sum %g != result %g", busy, res.BusyTime)
	}
	// The dynamic scheme must have recorded slack-share observations.
	h, ok := snap.Histogram(core.MetricSlackShare)
	if !ok || h.Count == 0 {
		t.Errorf("slack-share histogram missing or empty: %+v", h)
	}
	if secs, _ := snap.Counter(core.MetricSections); secs == 0 {
		t.Error("no sections counted")
	}
}

// TestNilTracerUnchanged proves decoration does not perturb the simulation:
// the same seeded run with and without observability produces identical
// energy, finish time and speed changes.
func TestNilTracerUnchanged(t *testing.T) {
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr obs.Tracer, m *obs.Metrics) *core.RunResult {
		res, err := plan.Run(core.RunConfig{
			Scheme:   core.AS,
			Deadline: plan.CTWorst / 0.5,
			Sampler:  exectime.NewSampler(exectime.NewSource(5)),
			Tracer:   tr,
			Metrics:  m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil, nil)
	traced := run(obs.NewCollector(), obs.NewMetrics())
	if plain.Energy() != traced.Energy() || plain.Finish != traced.Finish ||
		plain.SpeedChanges != traced.SpeedChanges {
		t.Errorf("observability changed the run: %+v vs %+v", plain, traced)
	}
}

// TestStreamMetrics checks the stream driver's pass-through wiring.
func TestStreamMetrics(t *testing.T) {
	plan, err := core.NewPlan(workload.Synthetic(), 2, power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	met := obs.NewMetrics()
	res, err := plan.RunStream(core.StreamConfig{
		Scheme: core.GSS, Period: plan.CTWorst / 0.6, Frames: 10,
		Sampler: exectime.NewSampler(exectime.NewSource(2)),
		Tracer:  col, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("StreamResult.Metrics not attached")
	}
	changes, _ := res.Metrics.Counter(sim.MetricSpeedChanges)
	if int(changes) != res.SpeedChanges {
		t.Errorf("stream metric speed changes %d != result %d", changes, res.SpeedChanges)
	}
	if col.Len() == 0 {
		t.Error("stream produced no events")
	}
}
