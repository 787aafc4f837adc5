package core

import (
	"fmt"

	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/stats"
)

// StreamConfig describes a periodic frame-based execution of a planned
// application — the paper's motivating deployment (ATR processes a video
// stream, one frame per period, each frame's deadline being the period).
type StreamConfig struct {
	// Scheme selects the power management scheme.
	Scheme Scheme
	// Period is the frame period in seconds; each frame's deadline. Must
	// be feasible (≥ the plan's CTWorst).
	Period float64
	// Frames is the number of consecutive frames to simulate.
	Frames int
	// Sampler supplies per-frame actual execution times and branch
	// outcomes.
	Sampler *exectime.Sampler
	// CarryLevels keeps each processor's voltage/speed setting across
	// frame boundaries (the physically accurate behavior: a processor left
	// at a low level starts the next frame there and pays a change if the
	// scheme needs a different speed). When false every frame starts at
	// the scheme's initial level, making frames exactly independent.
	CarryLevels bool
	// Tracer, if non-nil, receives the structured event stream of every
	// frame, concatenated. Frame f's events start at simulation time 0
	// again (each frame is its own run); consumers that need a global
	// clock can offset by f × Period.
	Tracer obs.Tracer
	// Metrics, if non-nil, accumulates over the whole stream; a snapshot
	// is attached to the StreamResult.
	Metrics *obs.Metrics
}

// StreamResult aggregates a frame stream.
type StreamResult struct {
	// Frames is the number of frames simulated.
	Frames int
	// ActiveEnergy, OverheadEnergy and IdleEnergy accumulate over frames;
	// idle time within each frame runs to the period boundary.
	ActiveEnergy, OverheadEnergy, IdleEnergy float64
	// SpeedChanges counts voltage/speed transitions over the stream.
	SpeedChanges int
	// DeadlineMisses counts frames finishing after the period. The
	// schemes' guarantee makes this zero whenever the period is feasible.
	DeadlineMisses int
	// LSTViolations accumulates Theorem-1 violations (always zero).
	LSTViolations int
	// FinishStats summarizes per-frame completion times (seconds).
	FinishStats stats.Acc
	// LevelTime is the stream-wide speed residency profile.
	LevelTime []float64
	// Metrics is the stream-wide registry snapshot; nil unless
	// StreamConfig.Metrics was set.
	Metrics *obs.Snapshot
}

// Energy returns the stream's total energy in joules.
func (r *StreamResult) Energy() float64 {
	return r.ActiveEnergy + r.OverheadEnergy + r.IdleEnergy
}

// RunStream simulates Frames consecutive frames under one scheme. Each
// frame is one execution of the application; its OR path and actual times
// are drawn from the sampler. With CarryLevels set, processor levels
// persist across frames. It is a thin wrapper over RunStreamArena with
// fresh scratch state.
func (p *Plan) RunStream(cfg StreamConfig) (*StreamResult, error) {
	return p.RunStreamArena(cfg, nil)
}

// RunStreamArena is the arena-threaded form of RunStream: one Arena (nil
// uses fresh buffers) serves every frame, so long streams allocate
// per-stream, not per-frame, state. Results are bit-identical to RunStream.
func (p *Plan) RunStreamArena(cfg StreamConfig, a *Arena) (*StreamResult, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("core: stream needs a positive frame count")
	}
	if cfg.Sampler == nil {
		return nil, fmt.Errorf("core: stream needs a sampler")
	}
	if !p.Feasible(cfg.Period) {
		return nil, fmt.Errorf("core: infeasible period %g < canonical worst case %g", cfg.Period, p.CTWorst)
	}
	if a == nil {
		a = NewArena()
	}
	out := &StreamResult{
		Frames:    cfg.Frames,
		LevelTime: make([]float64, p.Hetero.MaxLevels()),
	}
	runCfg := RunConfig{
		Scheme: cfg.Scheme, Deadline: cfg.Period, Sampler: cfg.Sampler,
		Tracer: cfg.Tracer, Metrics: cfg.Metrics,
	}
	var res RunResult
	var carry []int
	for f := 0; f < cfg.Frames; f++ {
		sc := p.resolve(&runCfg, a)
		var err error
		if cfg.Scheme == CLV {
			err = p.runScript(&runCfg, a, sc, &res)
		} else {
			var levels []int
			if cfg.CarryLevels {
				levels = carry // nil on the first frame → scheme default
			}
			a.pol.init(p, cfg.Scheme, cfg.Period)
			err = p.execute(&runCfg, a, sc, &a.pol, levels, &res)
		}
		if err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", f, err)
		}
		out.ActiveEnergy += res.ActiveEnergy
		out.OverheadEnergy += res.OverheadEnergy
		out.IdleEnergy += res.IdleEnergy
		out.SpeedChanges += res.SpeedChanges
		out.LSTViolations += res.LSTViolations
		if !res.MetDeadline {
			out.DeadlineMisses++
		}
		out.FinishStats.Add(res.Finish)
		for i, v := range res.LevelTime {
			out.LevelTime[i] += v
		}
		carry = append(carry[:0], res.FinalLevels...)
	}
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		out.Metrics = &snap
	}
	return out, nil
}
