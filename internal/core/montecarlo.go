package core

import (
	"fmt"

	"andorsched/internal/exectime"
)

// MonteCarlo executes runs [lo, hi) of a seeded Monte-Carlo experiment on
// one arena. Run i reseeds src with exectime.SeedAt(seed, i) — the i-th
// draw of a master stream seeded with seed — executes the plan under cfg
// (whose Sampler, if any, must draw from src), then hands the result to
// visit. Because run i's stream depends only on (seed, i), any split of
// [0, runs) into ranges reproduces every run exactly; reducing the visited
// results in run order then reproduces the whole experiment bit for bit.
//
// The result passed to visit is arena-owned and overwritten by the next
// run. A RunInto failure is returned as is; a non-nil error from visit
// stops the loop and is returned.
func MonteCarlo(p *Plan, cfg RunConfig, seed uint64, lo, hi int, a *Arena, src *exectime.Source,
	visit func(i int, res *RunResult) error) error {
	for i := lo; i < hi; i++ {
		src.Reseed(exectime.SeedAt(seed, uint64(i)))
		if err := p.RunInto(cfg, a, &a.mcRes); err != nil {
			return err
		}
		if err := visit(i, &a.mcRes); err != nil {
			return err
		}
	}
	return nil
}

// CompareFrames is MonteCarlo's common-random-numbers form, the paper's
// evaluation loop: frame f reseeds src with exectime.SeedAt(seed, f),
// resolves the frame's actual execution times and OR branch outcomes once,
// and replays that one script for an NPM baseline and then for each
// scheme, so every scheme of a frame sees exactly the baseline's frame.
// Execution draws nothing after the resolve, so the results, and src's
// final state, equal reseeding and running each scheme in turn. visit sees
// the baseline as scheme index -1, then scheme i of schemes as index i;
// cfg's Scheme is ignored.
//
// Results are arena-owned as in MonteCarlo. A configuration error is
// returned wrapped as the frame's NPM run, a run failure wrapped with its
// scheme and frame; a non-nil error from visit stops the loop and is
// returned as is.
func CompareFrames(p *Plan, cfg RunConfig, schemes []Scheme, seed uint64, lo, hi int, a *Arena,
	src *exectime.Source, visit func(f, si int, res *RunResult) error) error {
	for f := lo; f < hi; f++ {
		src.Reseed(exectime.SeedAt(seed, uint64(f)))
		cfg.Scheme = NPM
		if err := p.check(&cfg); err != nil {
			return fmt.Errorf("%s run %d: %w", NPM, f, err)
		}
		sc := p.resolve(&cfg, a)
		npmFinish := 0.0
		for si := -1; si < len(schemes); si++ {
			var err error
			if si >= 0 {
				cfg.Scheme = schemes[si]
			}
			// CLV's probe is the NPM replay the baseline just ran.
			if cfg.Scheme == CLV {
				err = p.runClairvoyant(&cfg, a, sc, npmFinish, &a.mcRes)
			} else {
				err = p.runScript(&cfg, a, sc, &a.mcRes)
			}
			if err != nil {
				return fmt.Errorf("%s run %d: %w", cfg.Scheme, f, err)
			}
			if si < 0 {
				npmFinish = a.mcRes.Finish
			}
			if err := visit(f, si, &a.mcRes); err != nil {
				return err
			}
		}
	}
	return nil
}
