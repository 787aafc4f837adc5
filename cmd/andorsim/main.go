// Command andorsim runs one power-aware scheduling simulation: it plans an
// AND/OR application on a multiprocessor DVS platform, executes it once
// under the selected scheme, and reports timing, energy and (optionally)
// the schedule.
//
// Examples:
//
//	andorsim -workload atr -procs 2 -platform transmeta -scheme GSS -load 0.5
//	andorsim -workload synthetic -scheme AS -load 0.7 -trace -stats
//	andorsim -workload random:7 -platform xscale -scheme SS2 -deadline 0.08 -worst
//	andorsim -workload atr -scheme GSS -trace-out trace.json -events-out run.ndjson
//
// Schedule output: -trace prints the Gantt rows, -svg writes an SVG
// timeline. Observability (see docs/OBSERVABILITY.md): -stats prints the
// metrics snapshot with per-processor utilization; -trace-out writes the
// full structured event trace as Chrome trace_event JSON (chrome://tracing,
// Perfetto), the one Chrome output; -events-out writes it as NDJSON;
// -cpuprofile, -memprofile, -exectrace and -pprof profile the simulator
// itself (-trace was already taken by the Gantt printer, hence -exectrace).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"andorsched/internal/cli"
	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/experiments"
	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// options collects every flag-settable parameter of one invocation.
type options struct {
	workload  string
	platform  string
	placement string
	procs     int
	scheme    string
	load      float64
	deadline  float64
	seed      uint64
	worst     bool

	trace     bool // print the Gantt + ASCII timeline
	printPlan bool
	stats     bool // print the metrics snapshot (per-proc utilization etc.)
	stream    int
	compare   string
	runs      int

	svgPath   string
	traceOut  string // structured event trace as Chrome trace_event JSON
	eventsOut string // structured event trace as NDJSON

	changeUs, compCycles, slewUsPerV float64

	profile obs.Profile
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "synthetic", "application: atr, synthetic, random[:seed], or a .json graph file")
	flag.StringVar(&o.platform, "platform", "transmeta", "platform: transmeta, xscale, synthetic:N:fminMHz:fmaxMHz, a heterogeneous reference (symmetric, biglittle, accel), or a .json platform spec file")
	flag.StringVar(&o.placement, "placement", "", "heterogeneous placement policy: fastest-first (default), energy-greedy, or class-affinity")
	flag.IntVar(&o.procs, "procs", 2, "number of processors (identical-processor platforms; heterogeneous specs carry their own counts)")
	flag.StringVar(&o.scheme, "scheme", "GSS", "power management scheme: NPM, SPM, GSS, SS1, SS2, AS, or the extensions CLV, ASP, ORA")
	flag.Float64Var(&o.load, "load", 0.5, "system load (canonical worst case / deadline); ignored if -deadline is set")
	flag.Float64Var(&o.deadline, "deadline", 0, "absolute deadline in seconds (overrides -load)")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed for actual execution times and OR branches")
	flag.BoolVar(&o.worst, "worst", false, "run with worst-case execution times instead of sampled ones")
	flag.BoolVar(&o.trace, "trace", false, "print the per-processor schedule (Gantt)")
	flag.BoolVar(&o.printPlan, "plan", false, "print the off-line plan (sections, PMP values, latest start times)")
	flag.BoolVar(&o.stats, "stats", false, "print the run's metrics snapshot: per-processor utilization, speed changes, histograms")
	flag.IntVar(&o.stream, "stream", 0, "simulate this many periodic frames instead of a single run (period = deadline)")
	flag.StringVar(&o.compare, "compare", "", "two schemes 'A,B': paired significance test over -runs frames instead of a single run")
	flag.IntVar(&o.runs, "runs", 500, "frames for -compare")
	flag.StringVar(&o.svgPath, "svg", "", "write the schedule as an SVG timeline to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the structured event trace as Chrome Trace Event JSON to this file")
	flag.StringVar(&o.eventsOut, "events-out", "", "write the structured event trace as NDJSON to this file")
	flag.Float64Var(&o.changeUs, "change-overhead-us", 5, "voltage/speed change overhead in µs")
	flag.Float64Var(&o.compCycles, "comp-overhead-cycles", 600, "speed computation overhead in cycles")
	flag.Float64Var(&o.slewUsPerV, "slew-us-per-volt", 0, "voltage-slew transition cost in µs per volt (0 = the paper's fixed-cost model)")
	o.profile.RegisterFlags(flag.CommandLine, "exectrace")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "andorsim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.profile.Enabled() {
		sess, err := o.profile.Start()
		if err != nil {
			return err
		}
		if sess.Addr != "" {
			fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", sess.Addr)
		}
		defer func() {
			if err := sess.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "andorsim: profiling:", err)
			}
		}()
	}

	g, err := cli.ParseWorkload(o.workload)
	if err != nil {
		return err
	}
	plat, hp, err := cli.ParseMachine(o.platform)
	if err != nil {
		return err
	}
	scheme, err := core.ParseScheme(o.scheme)
	if err != nil {
		return err
	}
	ov := power.Overheads{SpeedCompCycles: o.compCycles, SpeedChangeTime: o.changeUs * 1e-6, VoltSlewTime: o.slewUsPerV * 1e-6}

	var plan *core.Plan
	if hp != nil {
		place, err := cli.ParsePlacement(o.placement)
		if err != nil {
			return err
		}
		plan, err = core.NewHeteroPlan(g, hp, ov, place)
		if err != nil {
			return err
		}
	} else {
		if o.placement != "" {
			return fmt.Errorf("-placement applies to heterogeneous platforms; %q has identical processors", o.platform)
		}
		plan, err = core.NewPlan(g, o.procs, plat, ov)
		if err != nil {
			return err
		}
	}
	deadline := o.deadline
	if deadline == 0 {
		if o.load <= 0 || o.load > 1 {
			return fmt.Errorf("load %g outside (0,1]", o.load)
		}
		deadline = plan.CTWorst / o.load
	}

	fmt.Printf("application : %s (%d nodes, %d sections, %d execution paths)\n",
		g.Name, g.Len(), plan.NumSections(), plan.Sections.NumPaths())
	if hp != nil {
		fmt.Printf("platform    : %s (%d processors", hp.Name, hp.NumProcs())
		for c := 0; c < hp.NumClasses(); c++ {
			cl := hp.Class(c)
			fmt.Printf(", %d × %s ×%.2g", cl.Count, cl.Plat.Name, cl.Speed)
		}
		fmt.Printf("), placement %s\n", plan.Placement.Name())
	} else {
		fmt.Printf("platform    : %d × %s (%d levels, %s – %s)\n",
			o.procs, plat.Name, plat.NumLevels(), plat.Min(), plat.Max())
	}
	fmt.Printf("off-line    : CT_worst=%.3fms CT_avg=%.3fms deadline=%.3fms (load %.3f)\n",
		plan.CTWorst*1e3, plan.CTAvg*1e3, deadline*1e3, plan.CTWorst/deadline)

	if o.printPlan {
		fmt.Println()
		fmt.Print(plan.Describe(deadline))
		fmt.Println()
	}

	if o.compare != "" {
		if o.traceOut != "" || o.eventsOut != "" {
			fmt.Fprintln(os.Stderr, "andorsim: -trace-out/-events-out apply to single runs and -stream, not -compare; ignoring")
		}
		return runCompare(plan, o, deadline)
	}

	// Observability wiring: an in-memory collector feeds the event-trace
	// exporters, a metrics registry feeds -stats.
	var collector *obs.Collector
	if o.traceOut != "" || o.eventsOut != "" {
		collector = obs.NewCollector()
	}
	var metrics *obs.Metrics
	if o.stats {
		metrics = obs.NewMetrics()
	}

	if o.stream > 0 {
		res, err := plan.RunStream(core.StreamConfig{
			Scheme: scheme, Period: deadline, Frames: o.stream,
			Sampler:     exectime.NewSampler(exectime.NewSource(o.seed)),
			CarryLevels: true,
			Tracer:      tracerOrNil(collector),
			Metrics:     metrics,
		})
		if err != nil {
			return err
		}
		fmt.Printf("scheme      : %s over %d frames (period %.3fms)\n", scheme, o.stream, deadline*1e3)
		fmt.Printf("energy      : total %.4gJ = active %.4g + overhead %.4g + idle %.4g\n",
			res.Energy(), res.ActiveEnergy, res.OverheadEnergy, res.IdleEnergy)
		fmt.Printf("timing      : %d misses, %d LST violations, finish avg %.3fms max %.3fms\n",
			res.DeadlineMisses, res.LSTViolations, res.FinishStats.Mean()*1e3, res.FinishStats.Max()*1e3)
		fmt.Printf("speed chgs  : %d (%.2f per frame)\n", res.SpeedChanges, float64(res.SpeedChanges)/float64(o.stream))
		if o.stats && res.Metrics != nil {
			printStats(*res.Metrics, plan.Procs, deadline*float64(o.stream))
		}
		return writeEventExports(o, collector)
	}

	collect := o.trace || o.svgPath != ""
	cfg := core.RunConfig{
		Scheme: scheme, Deadline: deadline, CollectTrace: collect,
		Tracer: tracerOrNil(collector), Metrics: metrics,
	}
	if o.worst {
		cfg.WorstCase = true
	} else {
		cfg.Sampler = exectime.NewSampler(exectime.NewSource(o.seed))
	}
	res, err := plan.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("scheme      : %s\n", scheme)
	fmt.Printf("finish      : %.3fms (deadline met: %v, LST violations: %d)\n",
		res.Finish*1e3, res.MetDeadline, res.LSTViolations)
	fmt.Printf("path        : %d OR decisions", len(res.Path))
	for _, c := range res.Path {
		fmt.Printf("  %s→%d", c.Or.Name, c.Branch)
	}
	fmt.Println()
	fmt.Printf("energy      : total %.4gJ = active %.4gJ + overhead %.4gJ + idle %.4gJ\n",
		res.Energy(), res.ActiveEnergy, res.OverheadEnergy, res.IdleEnergy)
	if hp != nil && len(res.ClassGrossEnergy) == hp.NumClasses() {
		fmt.Printf("per class   :")
		for c := range res.ClassGrossEnergy {
			fmt.Printf("  %s %.4gJ (idle %.4gJ)",
				hp.Class(c).Name, res.ClassGrossEnergy[c]+res.ClassIdleEnergy[c], res.ClassIdleEnergy[c])
		}
		fmt.Println()
	}
	fmt.Printf("speed chgs  : %d\n", res.SpeedChanges)
	fmt.Printf("residency   :")
	for i, t := range res.LevelTime {
		if t > 0 {
			if plat != nil {
				fmt.Printf("  %.0fMHz %.1f%%", plat.Levels()[i].Freq/1e6, 100*t/res.BusyTime)
			} else {
				// Heterogeneous levels are class-local indices; frequencies
				// differ per class, so report the index residency.
				fmt.Printf("  L%d %.1f%%", i, 100*t/res.BusyTime)
			}
		}
	}
	fmt.Println()

	// The NPM baseline for context.
	baseCfg := cfg
	baseCfg.Scheme = core.NPM
	baseCfg.CollectTrace = false
	baseCfg.Tracer = nil
	baseCfg.Metrics = nil
	if !o.worst {
		baseCfg.Sampler = exectime.NewSampler(exectime.NewSource(o.seed))
	}
	base, err := plan.Run(baseCfg)
	if err != nil {
		return err
	}
	fmt.Printf("vs NPM      : %.4f (NPM total %.4gJ)\n", res.Energy()/base.Energy(), base.Energy())

	if o.stats && res.Metrics != nil {
		horizon := deadline
		if res.Finish > horizon {
			horizon = res.Finish
		}
		printStats(*res.Metrics, plan.Procs, horizon)
	}

	if o.trace {
		fmt.Println("\nschedule:")
		fmt.Print(sim.Gantt(plan.Hetero, res.Trace))
		fmt.Println()
		fmt.Print(sim.Timeline(res.Trace, deadline, 100))
	}
	if o.svgPath != "" {
		if err := os.WriteFile(o.svgPath, []byte(sim.SVG(plan.Hetero, res.Trace, deadline)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.svgPath)
	}
	return writeEventExports(o, collector)
}

// tracerOrNil avoids the classic non-nil-interface-around-nil-pointer trap:
// a nil *Collector stored in a Tracer interface would defeat the run's
// nil gate.
func tracerOrNil(c *obs.Collector) obs.Tracer {
	if c == nil {
		return nil
	}
	return c
}

// writeEventExports writes the collected structured event trace to the
// -trace-out (Chrome trace_event JSON) and -events-out (NDJSON) files.
func writeEventExports(o options, c *obs.Collector) error {
	if c == nil {
		return nil
	}
	events := c.Events()
	if o.traceOut != "" {
		data, err := obs.ChromeTrace(events)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events; open in chrome://tracing or Perfetto)\n", o.traceOut, len(events))
	}
	if o.eventsOut != "" {
		f, err := os.Create(o.eventsOut)
		if err != nil {
			return err
		}
		if err := obs.WriteNDJSON(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", o.eventsOut, len(events))
	}
	return nil
}

// printStats renders the metrics snapshot: a per-processor table
// (utilization over the horizon, busy/overhead seconds, speed changes)
// followed by the full registry summary.
func printStats(snap obs.Snapshot, procs int, horizon float64) {
	fmt.Println("\nper-processor stats:")
	for i := 0; i < procs; i++ {
		busy, _ := snap.Gauge(sim.MetricProcBusy(i))
		oh, _ := snap.Gauge(sim.MetricProcOverhead(i))
		changes, _ := snap.Counter(sim.MetricProcSpeedChanges(i))
		util := 0.0
		if horizon > 0 {
			util = (busy + oh) / horizon
		}
		fmt.Printf("  P%-2d util %5.1f%%  busy %9.3fms  overhead %8.3fms  speed-changes %d\n",
			i, util*100, busy*1e3, oh*1e3, changes)
	}
	fmt.Println()
	fmt.Print(snap.Summary())
}

func runCompare(plan *core.Plan, o options, deadline float64) error {
	names := strings.SplitN(o.compare, ",", 2)
	if len(names) != 2 {
		return fmt.Errorf("-compare wants two scheme names 'A,B'")
	}
	a, err := core.ParseScheme(names[0])
	if err != nil {
		return err
	}
	bScheme, err := core.ParseScheme(names[1])
	if err != nil {
		return err
	}
	cmp, err := experiments.CompareSchemes(plan, a, bScheme, deadline, o.runs, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("paired comparison over %d frames (common random numbers):\n", cmp.Runs)
	fmt.Printf("  E[%s] − E[%s] = %+.4f ±%.4f (normalized to NPM), z = %.2f\n",
		cmp.A, cmp.B, cmp.MeanDiff, cmp.CI95, cmp.Z)
	switch {
	case !cmp.Significant:
		fmt.Println("  verdict: no significant difference at the 5% level")
	case cmp.MeanDiff < 0:
		fmt.Printf("  verdict: %s saves significantly more energy than %s\n", cmp.A, cmp.B)
	default:
		fmt.Printf("  verdict: %s saves significantly more energy than %s\n", cmp.B, cmp.A)
	}
	return nil
}
