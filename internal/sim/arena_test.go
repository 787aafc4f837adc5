package sim

import (
	"fmt"
	"math"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/power"
)

// layeredTasks builds the 4-wide layered section used by the engine
// benchmarks: n tasks, each depending on the task 4 positions earlier.
// Each one's actual work is layeredWork.
func layeredTasks(n int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		t := &Task{Name: "t", WorkW: 5e6, Order: i, LFT: 10}
		if i >= 4 {
			t.Preds = []int{i - 4}
			tasks[i-4].Succs = append(tasks[i-4].Succs, i)
		}
		tasks[i] = t
	}
	return tasks
}

// layeredWork is the actual work of layeredTasks(n): 4e6 cycles each.
func layeredWork(n int) []float64 {
	work := make([]float64, n)
	for i := range work {
		work[i] = 4e6
	}
	return work
}

// TestArenaRunZeroAllocs asserts the tentpole property at the engine level:
// on a warmed arena, a run of a three-section script allocates nothing,
// recorded or not.
func TestArenaRunZeroAllocs(t *testing.T) {
	plat := power.Transmeta5400()
	tasks := layeredTasks(64)
	cfg := Config{Hetero: machine(plat, 4), Policy: fixedPolicy(1), Overheads: power.DefaultOverheads()}
	prog, err := compile(cfg.Hetero, tasks)
	if err != nil {
		t.Fatal(err)
	}
	work := layeredWork(64)
	steps := []Step{{prog, work}, {prog, work}, {prog, work}}
	a := NewArena()
	for _, record := range []bool{false, true} {
		cfg.Record = record
		run := func() {
			if _, err := a.Run(&cfg, steps); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up sizes the buffers
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("warmed arena run (recorded %v) allocates %.1f times, want 0", record, allocs)
		}
	}
}

// TestArenaRunMatchesFresh asserts bit-identical results between a fresh
// arena and a heavily reused one, including when the reused arena
// previously ran a larger workload (stale buffer contents).
func TestArenaRunMatchesFresh(t *testing.T) {
	plat := power.IntelXScale()
	big := layeredTasks(128)
	small := layeredTasks(16)
	cfg := Config{Hetero: machine(plat, 3), Policy: fixedPolicy(2),
		Overheads: power.DefaultOverheads()}
	const start = 0.25
	a := NewArena()
	if _, err := runSection(a, &cfg, start, big, layeredWork(128)); err != nil { // dirty the buffers
		t.Fatal(err)
	}
	want, err := runSection(NewArena(), &cfg, start, small, layeredWork(16))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 100; rep++ {
		got, err := runSection(a, &cfg, start, small, layeredWork(16))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, want, got)
		if t.Failed() {
			t.Fatalf("reuse %d: arena diverged from fresh run", rep)
		}
	}
}

// assertResultsIdentical compares two one-section runs for exact (==, not
// tolerance) equality of every schedule and energy field.
func assertResultsIdentical(t *testing.T, want, got *sectionRun) {
	t.Helper()
	if len(want.Records) != len(got.Records) {
		t.Errorf("records: %d vs %d", len(want.Records), len(got.Records))
		return
	}
	for i := range want.Records {
		if want.Records[i] != got.Records[i] {
			t.Errorf("record %d: %+v vs %+v", i, want.Records[i], got.Records[i])
		}
	}
	if want.Finish != got.Finish {
		t.Errorf("Finish: %v vs %v", want.Finish, got.Finish)
	}
	if want.ActiveEnergy != got.ActiveEnergy || want.OverheadEnergy != got.OverheadEnergy {
		t.Errorf("energy: (%v,%v) vs (%v,%v)",
			want.ActiveEnergy, want.OverheadEnergy, got.ActiveEnergy, got.OverheadEnergy)
	}
	if want.SpeedChanges != got.SpeedChanges {
		t.Errorf("SpeedChanges: %d vs %d", want.SpeedChanges, got.SpeedChanges)
	}
	if want.LSTViolations != got.LSTViolations {
		t.Errorf("LSTViolations: %d vs %d", want.LSTViolations, got.LSTViolations)
	}
	for i := range want.BusyTime {
		if want.BusyTime[i] != got.BusyTime[i] || want.OverheadTime[i] != got.OverheadTime[i] {
			t.Errorf("proc %d busy/overhead differ", i)
		}
	}
	for i := range want.FinalLevels {
		if want.FinalLevels[i] != got.FinalLevels[i] {
			t.Errorf("FinalLevels[%d]: %d vs %d", i, want.FinalLevels[i], got.FinalLevels[i])
		}
	}
}

// ---- Fuzz differential: fresh engine vs reused arena vs naive reference ----

// fuzzPlats are the DVS tables a fuzz workload's classes draw from.
func fuzzPlats() []*power.Platform {
	return []*power.Platform{testPlat(), power.Transmeta5400(), power.IntelXScale()}
}

// fuzzSpeeds are the class speed multipliers a fuzz workload draws from.
var fuzzSpeeds = []float64{1, 0.5, 2, 1.25}

// encodeWorkload serializes an order-gated workload for the fuzz corpus:
//
//	[m][machine][level][n] then per task (in dispatch order), work[i]
//	being its actual work:
//	[flags][workW:2 (1e5-cycle units)][workAfrac][npreds] [npreds × pred delta]
//
// The machine byte selects the first class's DVS table (mod 3), the class
// count (1 + byte/3 mod 3, at most m) and the placement (byte/9 mod 3); the
// level byte's high nibble selects the class speeds. Flag bit 0 marks a
// dummy task, bits 1–7 its canonical class (mod the class count) and bits
// 3–7 its class-affinity tag (mod the class count + 1, 0 for none). Tasks
// must be sorted by Order; preds must reference earlier tasks. Machine
// bytes from 27 on select the raw-link form decodeWorkload describes,
// which encodeWorkload never writes.
func encodeWorkload(m, plat, level int, tasks []*Task, work []float64) []byte {
	data := []byte{byte(m), byte(plat), byte(level), byte(len(tasks))}
	for i, t := range tasks {
		var flags byte
		if t.Dummy {
			flags |= 1
		}
		wu := int(math.Round(t.WorkW / 1e5))
		if wu > 65535 {
			wu = 65535
		}
		frac := 0
		if t.WorkW > 0 {
			frac = int(math.Round(work[i] / t.WorkW * 255))
			if frac > 255 {
				frac = 255
			}
		}
		preds := t.Preds
		if len(preds) > 15 {
			preds = preds[:15]
		}
		data = append(data, flags, byte(wu>>8), byte(wu&0xff), byte(frac), byte(len(preds)))
		for _, p := range preds {
			data = append(data, byte(i-1-p))
		}
	}
	return data
}

// decodeWorkload is the tolerant inverse of encodeWorkload: any byte slice
// with a machine byte below 27 yields either a valid order-gated workload
// and each task's actual work, or ok=false. Out-of-range values are
// reduced modulo their domain.
//
// A machine byte from 27 on selects the raw-link form (raw=true), which
// can express malformed precedence: pred byte d links task i to task
// i − (d&63) mod (i+1), itself included, as a matched pred/succ pair
// (d>>6 = 0), a pred without the succ (1), a succ without the pred (2),
// or a pred with a duplicated succ (3); from 128 on, the dispatch order
// is also reversed.
func decodeWorkload(data []byte) (cfg Config, start float64, tasks []*Task, work []float64, raw, ok bool) {
	if len(data) < 4 {
		return cfg, 0, nil, nil, false, false
	}
	raw = data[1] >= 27
	m := int(data[0]%8) + 1
	nc := min(1+int(data[1]/3)%3, m)
	classes := make([]power.Class, nc)
	for c := range classes {
		classes[c] = power.Class{
			Count: m / nc,
			Plat:  fuzzPlats()[(int(data[1])+c)%3],
			Speed: fuzzSpeeds[(int(data[2]>>4)+c)%len(fuzzSpeeds)],
		}
		if c < m%nc {
			classes[c].Count++
		}
	}
	h, err := power.NewHetero("fuzz", classes)
	if err != nil {
		return cfg, 0, nil, nil, false, false
	}
	level := int(data[2]) % classes[0].Plat.NumLevels()
	place := []PlacementPolicy{FastestFirst, EnergyGreedy, ClassAffinity}[int(data[1]/9)%3]
	n := int(data[3]%96) + 1
	pos := 4
	for i := 0; i < n; i++ {
		if pos+5 > len(data) {
			break
		}
		flags := data[pos]
		wu := int(data[pos+1])<<8 | int(data[pos+2])
		frac := float64(data[pos+3]) / 255
		np := int(data[pos+4] % 16)
		pos += 5
		t := &Task{Name: "f", Node: i, Order: i, CanonClass: int(flags>>1) % nc, Affinity: int(flags>>3) % (nc + 1)}
		w := 0.0
		if flags&1 == 0 {
			t.WorkW = float64(wu) * 1e5
			w = t.WorkW * frac
			t.LFT = 1e9
		} else {
			t.Dummy = true
		}
		tasks, work = append(tasks, t), append(work, w)
		for j := 0; j < np && pos < len(data); j++ {
			d := int(data[pos])
			pos++
			switch {
			case !raw:
				if i > 0 {
					t.Preds = append(t.Preds, i-1-d%i)
				}
			default:
				p := i - (d&63)%(i+1)
				if d>>6 != 2 {
					t.Preds = append(t.Preds, p)
				}
				if d>>6 != 1 {
					tasks[p].Succs = append(tasks[p].Succs, i)
				}
				if d>>6 == 3 {
					tasks[p].Succs = append(tasks[p].Succs, i)
				}
			}
		}
	}
	if len(tasks) == 0 {
		return cfg, 0, nil, nil, false, false
	}
	if !raw {
		for i, t := range tasks {
			for _, p := range t.Preds {
				tasks[p].Succs = append(tasks[p].Succs, i)
			}
		}
	}
	if data[1] >= 128 {
		for i, t := range tasks {
			t.Order = len(tasks) - 1 - i
		}
	}
	cfg = Config{
		Hetero:    h,
		Placement: place,
		Overheads: power.Overheads{
			SpeedCompCycles: float64(data[2]) * 8,
			SpeedChangeTime: float64(data[0]) * 1e-6,
		},
		Policy: clampedPolicy{h, level},
	}
	return cfg, float64(data[3]%16) / 16, tasks, work, raw, true
}

// graphSectionWorkloads converts every program section of an AND/OR graph
// into encoded engine workloads, assigning dispatch orders with the same
// canonical longest-task-first schedule the off-line phase uses. Each
// section is emitted twice: with raw WCET work, and with the overhead pad
// the off-line phase adds (power.Overheads.PadTime) — the padded variant
// reproduces bit-for-bit the work values that flow through the compile
// cache's canonical runs, so the fuzzer's corpus covers the memoized
// schedules as well as the raw ones.
func graphSectionWorkloads(tb testing.TB, g *andor.Graph, m int) [][]byte {
	tb.Helper()
	secs, err := andor.Decompose(g)
	if err != nil {
		tb.Fatal(err)
	}
	plat := power.Transmeta5400()
	fmax := plat.Max().Freq
	pads := []float64{0, power.DefaultOverheads().PadTimeHetero(machine(plat, 1))}
	var out [][]byte
	for _, sec := range secs.All {
		if len(sec.Nodes) == 0 {
			continue
		}
		for _, pad := range pads {
			out = append(out, encodeSectionWorkload(tb, g, sec, m, plat, fmax, pad))
		}
	}
	return out
}

// encodeSectionWorkload builds one section's canonical workload with the
// given per-task worst-case pad.
func encodeSectionWorkload(tb testing.TB, g *andor.Graph, sec *andor.Section,
	m int, plat *power.Platform, fmax, pad float64) []byte {
	tb.Helper()
	local := make(map[*andor.Node]int, len(sec.Nodes))
	for i, n := range sec.Nodes {
		local[n] = i
	}
	tasks := make([]Task, len(sec.Nodes))
	work := make([]float64, len(sec.Nodes))
	for i, n := range sec.Nodes {
		t := &tasks[i]
		*t = Task{Node: n.ID, Name: n.Name, Dummy: n.Kind == andor.And}
		if n.Kind == andor.Compute {
			t.WorkW = (n.WCET + pad) * fmax
			t.LFT = 1e9
		}
		work[i] = t.WorkW
		for _, pr := range n.Preds() {
			if j, found := local[pr]; found {
				t.Preds = append(t.Preds, j)
			}
		}
		for _, su := range n.Succs() {
			if j, found := local[su]; found {
				t.Succs = append(t.Succs, j)
			}
		}
	}
	var l ListScheduler
	ls, err := l.Schedule(machine(plat, m), nil, tasks, work)
	if err != nil {
		tb.Fatalf("canonical schedule of %s section %d: %v", g.Name, sec.ID, err)
	}
	// Renumber tasks in dispatch order so Order is the identity and
	// predecessors reference earlier indices, as the encoding needs.
	perm := make([]int, len(tasks)) // perm[old] = new
	sorted := make([]*Task, len(tasks))
	actual := make([]float64, len(tasks))
	for k, ti := range ls.Order {
		perm[ti] = k
		sorted[k] = &tasks[ti]
		actual[k] = tasks[ti].WorkW * 2 / 3
	}
	for k, t := range sorted {
		t.Order = k
		for i := range t.Preds {
			t.Preds[i] = perm[t.Preds[i]]
		}
		t.Succs = nil
	}
	return encodeWorkload(m, 1, 2, sorted, actual)
}

// engineSeeds is the corpus FuzzEngineArenaDifferential and
// FuzzObserveDifferential are seeded with, in order.
func engineSeeds(tb testing.TB) [][]byte {
	seeds := canonicalSeeds(tb)
	seeds = append(seeds, []byte{2, 0, 1, 3, 0, 0, 50, 128, 0, 1, 0, 40, 200, 1, 0})
	// Reclamation-stressing seed (also committed to testdata/fuzz): one
	// section mixing near-empty and huge tasks at α ≈ 0.1 (frac 25/255),
	// chained through a dummy barrier — the high-variance, slack-rich
	// workload shape ORA's online reclamation reacts to most strongly.
	seeds = append(seeds, []byte{2, 1, 3, 6,
		0, 0, 2, 25, 0,
		0, 0xEA, 0x60, 25, 1, 0,
		0, 0, 1, 25, 0,
		0, 0x75, 0x30, 25, 1, 1,
		1, 0, 0, 0, 2, 0, 2,
		0, 0x4E, 0x20, 25, 1, 0})
	seeds = append(seeds, multiClassSeeds(tb)...)
	return append(seeds, malformedChainSeeds()...)
}

// FuzzEngineArenaDifferential cross-checks the order-gate dispatch semantics
// on fuzzed workloads over machines of one to three classes with speed
// multipliers other than 1: a section on a fresh arena must pass
// ValidateSection, match the naive reference scheduler exactly, and match
// the same section on a reused arena (run three times to exercise buffer
// recycling). Raw-link workloads (malformed precedence) may fail, but
// fresh and reused arenas must fail alike. A chained arm (checkChained)
// runs each workload as a three-section script in one Run on the reused
// arena against one-section runs with the start and levels carried over
// by hand. The corpus is seeded with the paper's Figure-3 synthetic
// application and the radar.andor workload, section by section, plus the
// ATR application — each section in both its raw and its overhead-padded
// form, the latter being exactly the workload the compile cache's
// canonical runs see — with multi-class variants of some of them, and
// with the malformed-precedence cases of TestMalformedPrecedence.
func FuzzEngineArenaDifferential(f *testing.F) {
	for _, data := range engineSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, start, tasks, work, raw, ok := decodeWorkload(data)
		if !ok {
			t.Skip()
		}
		a := NewArena()
		fresh, err := runSection(NewArena(), &cfg, start, tasks, work)
		if err != nil {
			if !raw {
				t.Fatalf("engine rejected decoded workload: %v", err)
			}
			if _, aerr := runSection(a, &cfg, start, tasks, work); aerr == nil || aerr.Error() != err.Error() {
				t.Fatalf("fresh arena failed with %v, reused arena with %v", err, aerr)
			}
			checkChained(t, a, cfg, start, tasks, work)
			return
		}
		if !raw {
			if err := validate(cfg.Hetero, fresh); err != nil {
				t.Fatal(err)
			}
			if diff := matchReference(cfg, start, tasks, work, fresh); diff != "" {
				t.Fatal(diff)
			}
		}
		for rep := 0; rep < 3; rep++ {
			got, err := runSection(a, &cfg, start, tasks, work)
			if err != nil {
				t.Fatalf("arena reuse %d: %v", rep, err)
			}
			assertResultsIdentical(t, fresh, got)
			if t.Failed() {
				t.Fatalf("arena reuse %d diverged from fresh engine", rep)
			}
		}
		checkChained(t, a, cfg, start, tasks, work)
	})
}

// checkChained runs tasks as three consecutive sections, each with its own
// actual work, twice: compiled once and run as one three-step script on
// arena a, and as one-section runs on a second arena with the start and
// initial levels carried over by hand. Each section's records and totals,
// the final levels and the errors must agree exactly; the run's totals
// must be the sections' added section by section (per-processor sums in
// index order) and its level times the per-level sums of the records in
// dispatch order; and the same script run unrecorded on a must give the
// same totals.
func checkChained(t *testing.T, a *Arena, cfg Config, start float64, tasks []*Task, work []float64) {
	t.Helper()
	h := cfg.Hetero
	chained := cfg
	chained.Record = true
	prog, progErr := compile(h, tasks)
	scales := []float64{1, 0.5, 0.125}
	steps := make([]Step, len(scales))
	for s, scale := range scales {
		steps[s] = Step{Prog: prog, Work: make([]float64, len(work))}
		for i, w := range work {
			steps[s].Work[i] = w * scale
		}
	}
	var got *Result
	err := progErr
	if err == nil {
		got, err = a.runFrom(&chained, start, steps)
	}
	var want Result
	want.ProcBusyTime = make([]float64, h.NumProcs())
	want.ProcOverheadTime = make([]float64, h.NumProcs())
	want.ClassEnergy = make([]float64, h.NumClasses())
	want.LevelTime = make([]float64, h.MaxLevels())
	ref, refCfg, refStart := NewArena(), cfg, start
	for s := range steps {
		wantRes, wantErr := runSection(ref, &refCfg, refStart, tasks, steps[s].Work)
		if wantErr != nil || err != nil {
			// A malformed workload fails in its first section.
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("section %d: chained error %v, one-section run error %v", s, err, wantErr)
			}
			return
		}
		assertResultsIdentical(t, wantRes, &sectionRun{Section: &got.Sections[s], FinalLevels: wantRes.FinalLevels})
		if t.Failed() {
			t.Fatalf("section %d: chained run diverged from a one-section run", s)
		}
		for _, r := range wantRes.Records {
			want.LevelTime[r.Level] += r.Finish - r.Start
		}
		want.ActiveEnergy += wantRes.ActiveEnergy
		want.OverheadEnergy += wantRes.OverheadEnergy
		for c := range want.ClassEnergy {
			want.ClassEnergy[c] += wantRes.ClassActiveEnergy[c] + wantRes.ClassOverheadEnergy[c]
		}
		want.SpeedChanges += wantRes.SpeedChanges
		want.LSTViolations += wantRes.LSTViolations
		for i := range wantRes.BusyTime {
			want.BusyTime += wantRes.BusyTime[i]
			want.OverheadTime += wantRes.OverheadTime[i]
			want.ProcBusyTime[i] += wantRes.BusyTime[i]
			want.ProcOverheadTime[i] += wantRes.OverheadTime[i]
		}
		refStart, want.Finish = wantRes.Finish, wantRes.Finish
		refCfg.InitialLevels = append([]int(nil), wantRes.FinalLevels...)
		want.FinalLevels = refCfg.InitialLevels
	}
	if d := diffTotals(&want, got); d != "" {
		t.Fatalf("chained run totals: %s", d)
	}
	chained.Record = false
	plain, err := a.runFrom(&chained, start, steps)
	if err != nil {
		t.Fatalf("unrecorded run: %v", err)
	}
	if d := diffTotals(&want, plain); d != "" || len(plain.Sections) != 0 {
		t.Fatalf("unrecorded run totals: %s (%d sections kept)", d, len(plain.Sections))
	}
}

// diffTotals reports the first run total in which got differs from want,
// bit for bit, or "".
func diffTotals(want, got *Result) string {
	b := math.Float64bits
	floats := func(name string, x, y []float64) string {
		for i := range x {
			if b(x[i]) != b(y[i]) {
				return fmt.Sprintf("%s[%d]: want %v, got %v", name, i, x[i], y[i])
			}
		}
		return ""
	}
	for _, d := range []string{
		floats("scalars", []float64{want.Finish, want.ActiveEnergy, want.OverheadEnergy, want.BusyTime, want.OverheadTime},
			[]float64{got.Finish, got.ActiveEnergy, got.OverheadEnergy, got.BusyTime, got.OverheadTime}),
		floats("ClassEnergy", want.ClassEnergy, got.ClassEnergy),
		floats("ProcBusyTime", want.ProcBusyTime, got.ProcBusyTime),
		floats("ProcOverheadTime", want.ProcOverheadTime, got.ProcOverheadTime),
		floats("LevelTime", want.LevelTime, got.LevelTime),
	} {
		if d != "" {
			return d
		}
	}
	if want.SpeedChanges != got.SpeedChanges || want.LSTViolations != got.LSTViolations {
		return fmt.Sprintf("counts: want %d/%d, got %d/%d", want.SpeedChanges, want.LSTViolations, got.SpeedChanges, got.LSTViolations)
	}
	if fmt.Sprint(want.FinalLevels) != fmt.Sprint(got.FinalLevels) {
		return fmt.Sprintf("FinalLevels: want %v, got %v", want.FinalLevels, got.FinalLevels)
	}
	return ""
}
