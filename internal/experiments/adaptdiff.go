// The adapt differential is the losslessness contract of the
// self-tuning speculation controller: the controller may only change
// WHICH lossless configuration a request decodes under — never the
// bytes a given (prompt, strategy, seed, budget) produces. RunAdaptDiff
// decodes the full strategy matrix through three serve.Engines per
// entry — controller off, shadowing, and applied — with every request
// fully pinned (explicit strategy, explicit tree budget, fixed seed),
// and requires byte-identical results across all three, while the
// shadow and applied controllers must each have recorded a decision
// for every submission and the applied controller must have rerouted
// nothing (there was no hole to fill). CI runs it inside the
// differential job next to the cache-admissibility gate.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/serve"
)

// AdaptDiffReport summarizes a clean adapt-mode differential run.
type AdaptDiffReport struct {
	// Cases is the number of (prompt, strategy, seed) decodes compared
	// (each decoded three times, once per adapt mode).
	Cases int
	// Decisions totals the controller decisions recorded by the shadow
	// and applied engines — proof the controller was actually consulted
	// rather than bypassed.
	Decisions uint64
	// Shadowed counts shadow-mode decisions (recorded, not applied).
	Shadowed uint64
	// Reroutes counts applied-mode strategy substitutions; a clean run
	// reports zero, because every request pinned its own strategy.
	Reroutes uint64
}

// adaptDiffModes labels the three controller configurations under test.
var adaptDiffModes = []string{serve.AdaptOff, serve.AdaptShadow, serve.AdaptOn}

// RunAdaptDiff decodes every StrategyMatrix entry over a shared-stem
// workload through engines in all three adapt modes and returns an
// error on the first output divergence. Session caching and dedup are
// disabled so every decode runs end to end — the comparison is about
// the controller's influence on the decode itself, not cache keying.
func (r *Runner) RunAdaptDiff() (AdaptDiffReport, error) {
	prompts := SharedStemPrompts(diffFamilies, diffVariants)
	prompts = append(prompts, prompts[0]+" Add an active-high enable input en.")
	var report AdaptDiffReport
	ctx := context.Background()
	for _, mcfg := range r.setup.Models {
		for _, entry := range StrategyMatrix {
			m := r.Model(mcfg, entry.Scheme)
			// Every request is fully pinned: explicit strategy, explicit
			// tree budget (inert for linear drafters, but identical across
			// engines), fixed seed. The applied controller has no hole to
			// fill, so any byte it changes is a violation.
			optsSet := diffOptions(entry.Strategy, 48)
			engs := make(map[string]*serve.Engine, len(adaptDiffModes))
			for _, mode := range adaptDiffModes {
				engs[mode] = serve.NewEngine(m, serve.Config{
					Workers: 2, CacheSize: -1, NoDedup: true, Adapt: mode,
				})
			}
			var submissions uint64
			for pi, prompt := range prompts {
				for _, opts := range optsSet {
					var ref *serve.Response
					for _, mode := range adaptDiffModes {
						resp, err := engs[mode].Generate(ctx, serve.Request{Prompt: prompt, Options: opts})
						if err == nil && resp.Err != nil {
							err = resp.Err
						}
						if err != nil {
							closeEngines(engs)
							return report, fmt.Errorf("%s/%s: adapt mode %q failed on prompt %d: %w",
								mcfg.Name, entry.Strategy, mode, pi, err)
						}
						if mode == serve.AdaptOff {
							ref = resp
							report.Cases++
							continue
						}
						if err := sameResult(ref.Result, resp.Result); err != nil {
							closeEngines(engs)
							return report, fmt.Errorf(
								"%s/%s: adapt mode %q diverged from off on prompt %d (temp=%g seed=%d budget=%d): %w",
								mcfg.Name, entry.Strategy, mode, pi, opts.Temperature, opts.Seed, opts.TreeBudget, err)
						}
						if resp.Strategy != ref.Strategy {
							closeEngines(engs)
							return report, fmt.Errorf(
								"%s/%s: adapt mode %q decoded prompt %d under %q, off under %q — a pinned strategy was substituted",
								mcfg.Name, entry.Strategy, mode, pi, resp.Strategy, ref.Strategy)
						}
					}
					submissions++
				}
			}
			for _, mode := range []string{serve.AdaptShadow, serve.AdaptOn} {
				ms := engs[mode].Metrics()
				if ms.AdaptDecisions != submissions {
					closeEngines(engs)
					return report, fmt.Errorf("%s/%s: adapt mode %q recorded %d decisions for %d submissions — the controller was bypassed",
						mcfg.Name, entry.Strategy, mode, ms.AdaptDecisions, submissions)
				}
				report.Decisions += ms.AdaptDecisions
				report.Shadowed += ms.AdaptShadowed
				report.Reroutes += ms.AdaptReroutes
			}
			closeEngines(engs)
		}
	}
	if report.Reroutes != 0 {
		return report, fmt.Errorf("applied controller rerouted %d fully-pinned requests", report.Reroutes)
	}
	return report, nil
}

func closeEngines(engs map[string]*serve.Engine) {
	for _, e := range engs {
		e.Close()
	}
}
