// SimBench is the simulation-in-the-loop quality tier: instead of
// stopping at "does it parse", every generated design is elaborated
// and run against the benchmark problem's testbench (generated from
// its reference) via the event-driven simulator, and the row reports
// what fraction of designs match the reference throughout. The axis
// compares decoding strategies on the same trained backbones, so the
// column answers the paper's "speed and quality, all in one" claim
// directly: a drafting strategy that accelerated decoding by accepting
// sloppier tokens would show up here as a sim-pass-rate drop even when
// syntax rates stay flat.
package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// SimStrategies is the sim-bench comparison axis: the plain NTP
// baseline, the paper's tree drafter, and its grammar-constrained
// lift — the pair the quality claim is about — plus the lossless
// grammar lookup variant on the NTP backbone.
var SimStrategies = []MatrixEntry{
	{Scheme: model.SchemeNTP, Strategy: "ntp"},
	{Scheme: model.SchemeOurs, Strategy: "ours-tree"},
	{Scheme: model.SchemeOurs, Strategy: "grammar-tree"},
	{Scheme: model.SchemeNTP, Strategy: "grammar-lookup-tree"},
}

// SimBenchRow is one (model, strategy) slice of the sim-pass grid.
type SimBenchRow struct {
	Model, Scheme, Strategy string
	// Problems is the benchmark problem count (both suites).
	Problems int
	// SyntaxOK counts designs that parse (the old quality ceiling);
	// SimPassed counts designs that pass their testbench simulation
	// (the new, stricter floor).
	SyntaxOK, SimPassed int
	// SyntaxRate/SimPassRate are the corresponding percentages.
	SyntaxRate, SimPassRate float64
}

// RunSimBench decodes every benchmark problem greedily with each
// SimStrategies entry and scores the outputs by parse and by testbench
// simulation. Greedy decoding keeps the tier deterministic, so the
// rates are stable gates rather than samples.
func (r *Runner) RunSimBench() []SimBenchRow {
	problems := bench.All()
	var rows []SimBenchRow
	for _, cfg := range r.setup.Models {
		for _, entry := range SimStrategies {
			reqs := make([]serve.Request, len(problems))
			for i, p := range problems {
				reqs[i] = serve.Request{Prompt: p.Prompt, Options: core.Options{Strategy: entry.Strategy}}
			}
			row := SimBenchRow{
				Model: cfg.Name, Scheme: entry.Scheme.String(),
				Strategy: displayName(entry.Strategy), Problems: len(problems),
			}
			for i, resp := range r.decode(r.Model(cfg, entry.Scheme), reqs) {
				design := resp.Result.Text
				if bench.CheckSyntax(design) {
					row.SyntaxOK++
				}
				if bench.CheckFunction(design, problems[i]) {
					row.SimPassed++
				}
			}
			if row.Problems > 0 {
				row.SyntaxRate = 100 * float64(row.SyntaxOK) / float64(row.Problems)
				row.SimPassRate = 100 * float64(row.SimPassed) / float64(row.Problems)
			}
			rows = append(rows, row)
		}
	}
	return rows
}
