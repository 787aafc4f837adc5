package serve

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"andorsched/internal/core"
	"andorsched/internal/obs"
	"andorsched/internal/stats"
)

// Monte-Carlo execution: a runs>1 /v1/run or any /v1/compare is split into
// chunks of contiguous run ranges — one chunk is the serial form, more
// spread the work over the pool — executed as ordinary pool jobs (each
// chunk job owns its worker's arena for its duration). A /v1/run chunk's
// worker encodes its rows as the runs finish; the handler goroutine then
// reduces the chunks' samples in run order and writes the rows.
//
// Two invariants make the split invisible to clients:
//
//  1. Chunk-independent seeding. core.MonteCarlo and core.CompareFrames
//     seed run i with exectime.SeedAt(seed, i), so every run's random
//     stream is the same no matter how the request was chunked.
//  2. Run-order reduction. Chunks buffer per-run samples; the handler walks
//     them in run order, feeding core.MCStats (or the compare
//     accumulators). The floating-point operation sequence is then the
//     same for every chunk count, so responses are bit-identical — not
//     merely close (differential-, fuzz- and golden-corpus-tested). Rows
//     need no such care: a chunk's rows are its runs in order, and the
//     chunks are written in order.
//
// Failure is all-or-nothing: any chunk error (queue rejection, context
// expiry, simulation failure, a non-finite row) fails the whole request
// before a status line is written. No pool job writes to the
// ResponseWriter, so a slow reader holds its handler goroutine, never a
// worker; the price is buffering ~runs encoded rows (bounded by MaxRuns),
// and a client that leaves stops only the write, not an admitted
// simulation.

const (
	// maxRunChunks caps the explicit chunks field. It also bounds the
	// trace-span fan-out a single request can ask for (each chunk records
	// queue, exec and exec.mc spans; overflow beyond the span array is
	// counted, not lost silently — see obs.TraceRec).
	maxRunChunks = 64
	// minRunsPerChunk is the auto-chunking floor: below ~64 runs a chunk's
	// pool round trip (~10µs) stops being negligible next to its
	// simulation time (~2.4µs/run), so requests under two floors' worth
	// of runs stay serial.
	minRunsPerChunk = 64
)

// chunkCount decides how many chunks a runs-sized request splits into.
// requested > 0 is honored (capped at runs and maxRunChunks); 0 selects
// automatically: one chunk per worker, but never chunks smaller than
// minPerChunk and never more chunks than workers.
func chunkCount(runs, workers, requested, minPerChunk int) int {
	if requested > 0 {
		if requested > runs {
			requested = runs
		}
		if requested > maxRunChunks {
			requested = maxRunChunks
		}
		return requested
	}
	if workers <= 1 || runs < 2*minPerChunk {
		return 1
	}
	n := runs / minPerChunk
	if n > workers {
		n = workers
	}
	if n > maxRunChunks {
		n = maxRunChunks
	}
	return n
}

// chunkBounds returns chunk c's half-open run range under an even split of
// runs into nchunks.
func chunkBounds(runs, nchunks, c int) (lo, hi int) {
	return c * runs / nchunks, (c + 1) * runs / nchunks
}

// runChunkBuf holds one chunk's results between its worker and the
// handler. out is the chunk's NDJSON rows, encoded by the worker as each
// run finishes (appendRow); samples and the flat per-class slices keep
// what the handler's run-order core.MCStats reduction needs of each run.
// row is the scratch RunRow fillRow rewrites for every run. A pooled
// buffer's steady-state cost is the appends, not allocations.
type runChunkBuf struct {
	out                   []byte
	samples               []runSample
	classGross, classIdle []float64 // [run*classes + class], heterogeneous runs only
	row                   RunRow
	runs                  int // the chunk's run count
}

// runSample is one run's contribution to the summary besides its class
// energies. The counts are int32 so a sample packs into 32 bytes; a run's
// speed changes and LST violations are bounded by its task count, far
// below 2^31.
type runSample struct {
	finish, energy float64
	speedChanges   int32
	lstViolations  int32
	met            bool
}

// Pooled chunk buffers are bounded in runs and in encoded bytes, so
// one-off giant requests do not pin megabytes.
const (
	runChunkBufMaxRetained      = 4096
	runChunkBufMaxRetainedBytes = 1 << 20
)

var runChunkPool = sync.Pool{New: func() any { return new(runChunkBuf) }}

// prepare empties the buffer for a chunk of n runs.
func (b *runChunkBuf) prepare(n int) {
	b.runs = n
	b.out = b.out[:0]
	b.classGross, b.classIdle = b.classGross[:0], b.classIdle[:0]
	if cap(b.samples) < n {
		b.samples = make([]runSample, 0, n)
	}
	b.samples = b.samples[:0]
}

// add encodes run i's row and records its summary sample. It fails with
// errNonFinite, before anything is written to the client, when the row
// cannot be encoded.
func (b *runChunkBuf) add(i int, res *core.RunResult) error {
	fillRow(&b.row, i, res)
	var ok bool
	if b.out, ok = appendRow(b.out, &b.row); !ok {
		return errNonFinite
	}
	if len(b.samples) == 0 {
		// Size the chunk's rows from its first one, plus a sixteenth for
		// longer run numbers and paths (rows of one request differ by a
		// few bytes): growing a large body by appends would copy it
		// through a ladder of arrays the GC frees late.
		b.out = slices.Grow(b.out, (b.runs-1)*len(b.out)*17/16)
		b.classGross = slices.Grow(b.classGross, b.runs*len(res.ClassGrossEnergy))
		b.classIdle = slices.Grow(b.classIdle, b.runs*len(res.ClassIdleEnergy))
	}
	b.samples = append(b.samples, runSample{
		finish: res.Finish, energy: b.row.EnergyJ,
		speedChanges: int32(res.SpeedChanges), lstViolations: int32(res.LSTViolations),
		met: res.MetDeadline,
	})
	b.classGross = append(b.classGross, res.ClassGrossEnergy...)
	b.classIdle = append(b.classIdle, res.ClassIdleEnergy...)
	return nil
}

// reduce feeds the chunk's samples, in run order, into mc.
func (b *runChunkBuf) reduce(mc *core.MCStats) {
	if len(b.samples) == 0 {
		return
	}
	nc := len(b.classGross) / len(b.samples)
	for j := range b.samples {
		sm := &b.samples[j]
		gross, idle := b.classGross[j*nc:(j+1)*nc], b.classIdle[j*nc:(j+1)*nc]
		mc.Add(sm.finish, sm.energy, gross, idle, int(sm.speedChanges), int(sm.lstViolations), sm.met)
	}
}

// retainable reports whether the buffer is small enough to go back into
// the pool.
func (b *runChunkBuf) retainable() bool {
	size := cap(b.out) + 8*(cap(b.classGross)+cap(b.classIdle))
	return cap(b.samples) <= runChunkBufMaxRetained && size <= runChunkBufMaxRetainedBytes
}

func putRunChunkBuf(b *runChunkBuf) {
	if b.retainable() {
		runChunkPool.Put(b)
	}
}

// monteCarloOn runs core.MonteCarlo over runs [lo, hi) on wk — sampling
// from wk's source unless cfg is worst-case — and stops once ctx expires.
// It records one exec.mc span counting the completed runs; the chunks of
// one request record concurrently into its trace, which the span array's
// atomic slot reservation permits.
func monteCarloOn(ctx context.Context, wk *Worker, plan *core.Plan, cfg core.RunConfig, seed uint64, lo, hi int,
	visit func(i int, res *core.RunResult) error) error {
	if !cfg.WorstCase {
		cfg.Sampler = wk.Sampler
	}
	rec := obs.TraceFromContext(ctx)
	done := 0
	t0 := rec.SinceStart()
	defer func() { rec.RecordOffset(PhaseExecMC, t0, int64(done)) }()
	return core.MonteCarlo(plan, cfg, seed, lo, hi, wk.Arena, wk.Src, func(i int, res *core.RunResult) error {
		if err := visit(i, res); err != nil {
			return err
		}
		done++
		return ctx.Err()
	})
}

// execChunks executes a Monte-Carlo request of `runs` runs (or frames),
// each worth perRun simulations, as nchunks chunk jobs (Pool.fanOut);
// job(c, lo, hi) builds chunk c's function. Chunk 0 credits the request's
// peeked plan hit. One handler-side exec span brackets the whole fan-out
// — chunk buffer preparation, admission and the wait for the last chunk
// — so the trace stays gap-free; the chunks' own
// queue/exec/exec.mc spans nest inside it. On failure the error response
// is written and execChunks returns false.
func (s *Server) execChunks(w http.ResponseWriter, r *http.Request, peeked bool, runs, nchunks int, perRun int64,
	job func(c, lo, hi int) func(context.Context, *Worker) error) bool {
	rec := obs.TraceFromContext(r.Context())
	t0 := rec.Now()
	err := s.pool.fanOut(r.Context(), runs, nchunks, perRun, func(c, lo, hi int) func(context.Context, *Worker) error {
		fn := job(c, lo, hi)
		if c > 0 || !peeked {
			return fn
		}
		return func(ctx context.Context, wk *Worker) error {
			wk.pw.hits.Add(1)
			return fn(ctx, wk)
		}
	})
	rec.Record(PhaseExec, t0, "fan-out")
	if !s.checkPoolErr(w, err) {
		return false
	}
	s.runs.Add(int64(runs) * perRun)
	return true
}

// runMonteCarlo executes runs of plan under cfg in nchunks chunks, whose
// workers encode the rows, then reduces the chunks' samples in run order
// through core.MCStats and writes the rows and the summary with a known
// Content-Length.
func (s *Server) runMonteCarlo(w http.ResponseWriter, r *http.Request, plan *core.Plan, peeked bool,
	cfg core.RunConfig, runs int, seed uint64, nchunks int) {
	bufs := make([]*runChunkBuf, nchunks)
	defer func() {
		for _, b := range bufs {
			if b != nil {
				putRunChunkBuf(b)
			}
		}
	}()
	if !s.execChunks(w, r, peeked, runs, nchunks, 1, func(c, lo, hi int) func(context.Context, *Worker) error {
		b := runChunkPool.Get().(*runChunkBuf)
		b.prepare(hi - lo)
		bufs[c] = b
		return func(ctx context.Context, wk *Worker) error {
			return monteCarloOn(ctx, wk, plan, cfg, seed, lo, hi, b.add)
		}
	}) {
		return
	}

	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	defer rec.RecordOffset(PhaseEncode, t0, 0)
	var mc core.MCStats
	size := 0
	for _, b := range bufs {
		b.reduce(&mc)
		size += len(b.out)
	}
	sum := mcSummary(&mc, cfg)
	jb := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(jb)
	jb.buf.Reset()
	if jb.enc.Encode(&sum) != nil {
		writeEncodeFailed(w)
		return
	}
	size += jb.buf.Len()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	for _, b := range bufs {
		if _, err := w.Write(b.out); err != nil {
			return // client went away
		}
	}
	_, _ = w.Write(jb.buf.Bytes())
}

// cmpChunkBuf buffers one compare chunk's per-frame samples: the NPM
// baseline energy per frame, and frame-major per-scheme normalized energy,
// speed-change count and miss flag. The handler reduces them in frame
// order, so the response is the same for every chunk count.
type cmpChunkBuf struct {
	base   []float64 // [frame]
	norm   []float64 // [frame*nschemes + scheme]
	chg    []int     // same layout
	missed []bool    // same layout
}

var cmpChunkPool = sync.Pool{New: func() any { return new(cmpChunkBuf) }}

func (b *cmpChunkBuf) prepare(frames, nschemes int) {
	n := frames * nschemes
	grow := func(s []float64, n int) []float64 {
		if cap(s) >= n {
			return s[:n]
		}
		return make([]float64, n)
	}
	b.base = grow(b.base, frames)
	b.norm = grow(b.norm, n)
	if cap(b.chg) >= n {
		b.chg = b.chg[:n]
	} else {
		b.chg = make([]int, n)
	}
	if cap(b.missed) >= n {
		b.missed = b.missed[:n]
	} else {
		b.missed = make([]bool, n)
	}
}

func putCmpChunkBuf(b *cmpChunkBuf) {
	if cap(b.norm) <= runChunkBufMaxRetained {
		cmpChunkPool.Put(b)
	}
}

// runCompare executes a common-random-numbers comparison of schemes in
// nchunks chunks (core.CompareFrames over each chunk's frames, one exec.mc
// span each), then reduces the buffered samples in frame order.
func (s *Server) runCompare(w http.ResponseWriter, r *http.Request, plan *core.Plan, peeked bool,
	schemes []core.Scheme, deadline float64, runs int, seed uint64, nchunks int) {
	bufs := make([]*cmpChunkBuf, nchunks)
	defer func() {
		for _, b := range bufs {
			if b != nil {
				putCmpChunkBuf(b)
			}
		}
	}()
	perFrame := int64(len(schemes) + 1)
	if !s.execChunks(w, r, peeked, runs, nchunks, perFrame, func(c, lo, hi int) func(context.Context, *Worker) error {
		b := cmpChunkPool.Get().(*cmpChunkBuf)
		b.prepare(hi-lo, len(schemes))
		bufs[c] = b
		return func(ctx context.Context, wk *Worker) error {
			var base float64
			cfg := core.RunConfig{Deadline: deadline, Sampler: wk.Sampler}
			// One exec.mc span per chunk, counting its simulations: the
			// baseline and every scheme of each frame.
			rec := obs.TraceFromContext(ctx)
			done := 0
			t0 := rec.SinceStart()
			defer func() { rec.RecordOffset(PhaseExecMC, t0, int64(done)) }()
			return core.CompareFrames(plan, cfg, schemes, seed, lo, hi, wk.Arena, wk.Src, func(f, si int, res *core.RunResult) error {
				done++
				if si < 0 {
					base = res.Energy()
					b.base[f-lo] = base
					return ctx.Err()
				}
				k := (f-lo)*len(schemes) + si
				b.norm[k] = res.Energy() / base
				b.chg[k] = res.SpeedChanges
				b.missed[k] = !res.MetDeadline
				return nil
			})
		}
	}) {
		return
	}

	norm := make([]stats.Acc, len(schemes))
	chg := make([]stats.Acc, len(schemes))
	missed := make([]int, len(schemes))
	var npmEnergy stats.Acc
	for _, b := range bufs {
		for f := range b.base {
			npmEnergy.Add(b.base[f])
			for si := range schemes {
				k := f*len(schemes) + si
				norm[si].Add(b.norm[k])
				chg[si].Add(float64(b.chg[k]))
				if b.missed[k] {
					missed[si]++
				}
			}
		}
	}
	resp := CompareResponse{
		App: plan.Graph.Name, Runs: runs, DeadlineS: deadline,
		NPMEnergyJ: npmEnergy.Mean(),
	}
	for si, sc := range schemes {
		resp.Schemes = append(resp.Schemes, CompareScheme{
			Scheme:           sc.String(),
			MeanNormEnergy:   norm[si].Mean(),
			CI95:             norm[si].CI95(),
			MeanSpeedChanges: chg[si].Mean(),
			DeadlineMisses:   missed[si],
		})
	}
	s.writeJSONTraced(w, r, http.StatusOK, resp)
}
