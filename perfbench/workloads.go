package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/workload"
)

// serveWorkload is one traffic mix driven against andord over loopback
// HTTP. The constants below were fixed when the benchmark was written (see
// perfbench/README.md for how) and must not be retuned by a change that
// claims a gain.
type serveWorkload struct {
	name  string
	open  bool          // open loop at rate; otherwise closed loop
	rate  float64       // fixed open-loop rate, requests/s
	limit time.Duration // p99 latency limit of the max_rps ladder
	burst int           // requests of the cycle replayed in set-up to reach steady state
	build func(seed uint64) (cycle, warm []*request)
}

const (
	// warmRunRate is about a quarter of the warm /v1/run capacity (~15k
	// req/s over 2 connections on a calm 2-vCPU host) measured when the
	// benchmark was written. Half, the usual choice, saturates the system
	// whenever neighbours on the host halve its speed, which they do.
	warmRunRate = 4000
	// planChurnGraphs random applications at procs {2,4} give a working
	// set of 2*planChurnGraphs keys, four times andord's default plan-cache
	// capacity of 128.
	planChurnGraphs = 256
	// planChurnShapes fixed structures of at most planChurnMaxTasks tasks,
	// each with an Or fork, underlie every plan-churn graph.
	planChurnShapes   = 8
	planChurnMaxTasks = 16
	// planChurnZipf is the Zipf exponent of graph popularity, tuned so the
	// plan-cache hit ratio lands between 0.3 and 0.8.
	planChurnZipf = 1.05
	// mcRuns and mcFrames size mc-stream's /v1/run and /v1/compare requests.
	mcRuns   = 1000
	mcFrames = 200
)

var serveWorkloads = []*serveWorkload{
	{name: "warm-run", open: true, rate: warmRunRate, limit: 5 * time.Millisecond, burst: 2000, build: buildWarmRun},
	// plan-churn was specified as an open loop like warm-run. It runs closed:
	// on a host whose neighbours stall it for milliseconds, an open loop's
	// tail latency follows the neighbours more than the program (see
	// perfbench/README.md).
	{name: "plan-churn", burst: 2048, build: buildPlanChurn},
	{name: "mc-stream", burst: 8, build: buildMCStream},
}

// workloadRand is the generator of one workload's inputs: the same seed
// always yields the same requests.
func workloadRand(seed uint64, name string) *rand.Rand {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 ^ h)))
}

// warmApps is the fixed warm app set: atr and synthetic on transmeta and
// xscale at 2, 4 and 6 processors, plus both on big.LITTLE under each
// placement policy.
func warmApps() []*app {
	var apps []*app
	for _, w := range []string{"atr", "synthetic"} {
		for _, plat := range []string{"transmeta", "xscale"} {
			for _, m := range []int{2, 4, 6} {
				apps = append(apps, &app{workload: w, platform: plat, procs: m})
			}
		}
		for _, place := range []string{"fastest-first", "energy-greedy", "class-affinity"} {
			apps = append(apps, &app{workload: w, placement: place})
		}
	}
	return apps
}

// warmSet is one runs=1 request per app: sending it compiles every key.
func warmSet(apps []*app) []*request {
	var out []*request
	for _, a := range apps {
		out = append(out, newRunRequest(a, core.GSS, 1, 1))
	}
	return out
}

// buildWarmRun cycles all nine schemes over the warm apps, runs=1.
func buildWarmRun(seed uint64) (cycle, warm []*request) {
	r := workloadRand(seed, "warm-run")
	apps := warmApps()
	for i := 0; i < 8192; i++ {
		cycle = append(cycle, newRunRequest(apps[r.Intn(len(apps))], allSchemes[i%len(allSchemes)], r.Uint64(), 1))
	}
	return cycle, warmSet(apps)
}

// buildPlanChurn sends random applications as text at procs {2,4}, with
// Zipf popularity over a working set several times the plan cache.
//
// The few most popular graphs carry most of the traffic, so if each seed drew
// their structures from workload.Random (1 to 20+ tasks, forks or none) the
// cost of a request, and every metric with it, would follow the seed more
// than the program: a quarter of the median across seeds when this was
// measured. Graph k therefore takes the fixed structure churnShapes()[k %
// planChurnShapes] and the seed draws its task times, which makes its text,
// digest and plan its own. Seeds change task times and the request stream,
// not how much work a request is. Both processor counts of a graph are
// equally popular for the same reason.
func buildPlanChurn(seed uint64) (cycle, warm []*request) {
	r := workloadRand(seed, "plan-churn")
	opts := andor.DefaultRandomOpts()
	shapes := churnShapes()
	procs := []int{2, 4}
	keys := make([][]*app, planChurnGraphs)
	for k := range keys {
		// A fresh graph has no memoized analyses, so its task times can be
		// set in place.
		g := workload.Random(shapes[k%len(shapes)], opts)
		for _, n := range g.ComputeNodes() {
			n.WCET = opts.WCETMin + r.Float64()*(opts.WCETMax-opts.WCETMin)
			n.ACET = opts.Alpha * n.WCET
		}
		text := andor.FormatText(g)
		for _, m := range procs {
			keys[k] = append(keys[k], &app{text: text, platform: "transmeta", procs: m})
		}
	}
	z := rand.NewZipf(r, planChurnZipf, 1, uint64(len(keys)-1))
	for i := 0; i < 8192; i++ {
		a := keys[z.Uint64()][i%len(procs)]
		cycle = append(cycle, newRunRequest(a, allSchemes[i%len(allSchemes)], r.Uint64(), 1))
	}
	return cycle, nil
}

// churnShapes returns the workload.Random seeds of plan-churn's graph
// structures: the first planChurnShapes, counting from 0, whose graph has an
// Or fork and at most planChurnMaxTasks tasks.
func churnShapes() []uint64 {
	var out []uint64
	for s := uint64(0); len(out) < planChurnShapes; s++ {
		g := workload.Random(s, andor.DefaultRandomOpts())
		if len(g.ComputeNodes()) <= planChurnMaxTasks && hasFork(g) {
			out = append(out, s)
		}
	}
	return out
}

func hasFork(g *andor.Graph) bool {
	for _, v := range g.Nodes() {
		if v.Kind == andor.Or && len(v.Succs()) > 1 {
			return true
		}
	}
	return false
}

// buildMCStream: three of every four requests are runs=1000 /v1/run
// streams, the fourth an all-scheme /v1/compare of 200 frames. Every warm
// app gets three runs, under a fixed three of the schemes, and one compare;
// the seed draws the order and the run seeds. A request's cost depends much
// on its app, so drawing apps from the seed made the metrics follow the seed.
func buildMCStream(seed uint64) (cycle, warm []*request) {
	r := workloadRand(seed, "mc-stream")
	apps := warmApps()
	for j, a := range apps {
		for u := 0; u < 3; u++ {
			cycle = append(cycle, newRunRequest(a, allSchemes[(3*j+u)%len(allSchemes)], r.Uint64(), mcRuns))
		}
		cycle = append(cycle, newCompareRequest(a, r.Uint64(), mcFrames))
	}
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle, warmSet(apps)
}

// fixedShare is the part of an open-loop run spent at the fixed rate; the
// max_rps ladder gets the rest.
const fixedShare = 0.7

// setupRepeats is how many times a run sets the server up; setup_s is the
// median.
const setupRepeats = 7

// serveSetup launches andord, compiles every warm key and replays the
// first burst requests of the cycle so caches are in steady state. It
// returns the running server and the set-up time.
func serveSetup(andord string, w *serveWorkload, cycle, warm []*request, traced bool, book *loopResult) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(andord, traced)
	if err != nil {
		return nil, 0, err
	}
	book.merge(sendAll(srv.addr, warm))
	n := w.burst
	if n > len(cycle) {
		n = len(cycle)
	}
	book.merge(sendAll(srv.addr, cycle[:n]))
	return srv, time.Since(t0), nil
}

// ladder returns the rungs of the max_rps search: a geometric ladder in 4%
// steps from a quarter to six times the fixed rate.
func ladder(rate float64) []float64 {
	var out []float64
	for r := rate / 4; r <= rate*6; r *= 1.04 {
		out = append(out, r)
	}
	return out
}

// serveOutcome is the measured result of one untraced serve run.
type serveOutcome struct {
	setups []float64
	fixed  *loopResult // the fixed-rate (or closed-loop) phase
	maxRPS float64
	probes []string
	book   loopResult // every request sent, set-up included
	runs   float64    // serve.runs delta over the measured phases
	hits   float64
	misses float64
	evicts float64
	rssMB  float64
}

// runServeWorkload runs one untraced serve measurement of `seconds`.
func runServeWorkload(andord string, w *serveWorkload, seed uint64, seconds float64) (*serveOutcome, error) {
	cycle, warm := w.build(seed)
	if err := expectAll(append(append([]*request{}, cycle...), warm...)); err != nil {
		return nil, err
	}
	o := &serveOutcome{}
	var srv *server
	for k := 0; k < setupRepeats; k++ {
		s, d, err := serveSetup(andord, w, cycle, warm, false, &o.book)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, d.Seconds())
		if k < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	before, err := srv.scrape()
	if err != nil {
		srv.kill()
		return nil, err
	}
	measured := &loopResult{}
	if w.open {
		fixedDur := time.Duration(fixedShare * seconds * float64(time.Second))
		o.fixed = openLoop(srv.addr, cycle, w.burst, w.rate, fixedDur, false)
		measured.merge(o.fixed)
		o.maxRPS = searchMaxRPS(srv.addr, w, cycle, o, measured, time.Duration((1-fixedShare)*seconds*float64(time.Second)))
	} else {
		o.fixed = closedLoop(srv.addr, cycle, w.burst, time.Duration(seconds*float64(time.Second)), false)
		measured.merge(o.fixed)
		o.maxRPS = float64(o.fixed.attempted-o.fixed.failed) / o.fixed.elapsed.Seconds()
	}
	after, err := srv.scrape()
	if err != nil {
		srv.kill()
		return nil, err
	}
	o.rssMB, err = srv.peakRSSMB()
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	o.book.merge(measured)
	o.runs = counterDelta(before, after, "serve_runs")
	o.hits = counterDelta(before, after, "serve_cache_hits")
	o.misses = counterDelta(before, after, "serve_cache_misses")
	o.evicts = counterDelta(before, after, "serve_cache_evictions")
	if o.runs != float64(measured.runs) {
		o.book.attempted++
		o.book.failed++
		o.book.failures = append(o.book.failures,
			fmt.Sprintf("serve.runs grew by %.0f, the benchmark's answers account for %d", o.runs, measured.runs))
	}
	return o, nil
}

// searchMaxRPS bisects the ladder for the highest rung at which the
// windowed p99 stays within the workload's limit, nothing fails and the
// backlog does not grow. The fixed-rate phase is the first probe. A miss is
// probed once more before it counts, so one host stall during a probe does
// not send the search down the ladder.
func searchMaxRPS(addr string, w *serveWorkload, cycle []*request, o *serveOutcome, measured *loopResult, budget time.Duration) float64 {
	rungs := ladder(w.rate)
	passes := func(res *loopResult) bool {
		s := summarize(res.lat)
		return res.failed == 0 && s.windowed <= float64(w.limit)/float64(time.Millisecond) && res.tailLag <= w.limit
	}
	fixedIdx := 0
	for i, r := range rungs {
		if math.Abs(r-w.rate) < math.Abs(rungs[fixedIdx]-w.rate) {
			fixedIdx = i
		}
	}
	lo, hi := -1, len(rungs)
	if passes(o.fixed) {
		lo = fixedIdx
	} else {
		hi = fixedIdx
	}
	// Bisection takes about log2(rungs) probes; misses may add as many.
	probe := budget / time.Duration(2*math.Ceil(math.Log2(float64(len(rungs)))))
	next := w.burst + o.fixed.attempted
	try := func(idx int) bool {
		res := openLoop(addr, cycle, next, rungs[idx], probe, false)
		next += res.attempted
		measured.merge(res)
		ok := passes(res)
		o.probes = append(o.probes, fmt.Sprintf("%.0f req/s: p99 %.3f ms, tail lag %.3f ms, %d failed -> %v",
			rungs[idx], summarize(res.lat).windowed, float64(res.tailLag)/1e6, res.failed, map[bool]string{true: "pass", false: "miss"}[ok]))
		return ok
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) || try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return rungs[0] / 1.04
	}
	return rungs[lo]
}
