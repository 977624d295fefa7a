// Package experiments reproduces every table and figure of the paper's
// evaluation section on the simulated substrate:
//
//	Table I  — quality grid: pass@{1,5,10} + Pass Rate, Function and
//	           Syntax, for {Ours, Medusa, NTP} × {CodeLlama-sim,
//	           CodeT5p-sim} × four data sizes × {RTLLM, VGen}.
//	Table II — generation speed (tokens/s) and speedup per method.
//	Fig. 1   — speed vs pass@10(RTLLM) scatter points.
//	Fig. 5   — decoding step counts for the data_register example.
//	Fig. 6   — the CodeT5p pass@5 slice of Table I.
//
// Beyond the paper, RunStrategyMatrix compares every registered
// decoding strategy — the legacy three plus self-speculative prompt
// lookup — under the Table II protocol in one harness.
//
// Scale knobs let the same code run as a quick smoke test (CI) or as the
// full harness (cmd/evalbench).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tokenizer"
)

// Setup parameterizes an experiment run.
type Setup struct {
	// CorpusItems is the synthetic corpus size before refinement
	// (paper: 136,134 scraped items; default 13,600 — a 1/10-scale
	// corpus, documented in DESIGN.md).
	CorpusItems int
	// Seed drives corpus generation and sampling.
	Seed int64
	// Models are the backbone configurations to evaluate.
	Models []model.Config
	// SizeNumerators are data-subset numerators over 4 (paper: 1..4).
	SizeNumerators []int
	// Samples is n per prompt per temperature (paper: 20).
	Samples int
	// Temps are the sampling temperatures (paper: 0.2,0.4,0.6,0.8).
	Temps []float64
	// SpeedPrompts is the prompt count for Table II (paper: 575).
	SpeedPrompts int
	// Workers caps evaluation parallelism (0 = GOMAXPROCS).
	Workers int
}

// Default returns the full-scale setup used by cmd/evalbench.
func Default() Setup {
	return Setup{
		CorpusItems:    13600,
		Seed:           1,
		Models:         []model.Config{model.CodeLlamaSim(), model.CodeT5pSim()},
		SizeNumerators: []int{1, 2, 3, 4},
		Samples:        20,
		Temps:          []float64{0.2, 0.4, 0.6, 0.8},
		SpeedPrompts:   575,
	}
}

// Quick returns a scaled-down setup for tests and smoke runs.
func Quick() Setup {
	return Setup{
		CorpusItems:    1200,
		Seed:           1,
		Models:         []model.Config{model.CodeLlamaSim()},
		SizeNumerators: []int{4},
		Samples:        4,
		Temps:          []float64{0.4},
		SpeedPrompts:   24,
	}
}

func (s Setup) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Schemes compared everywhere, in the paper's column order. Each is
// decoded with the strategy of the same name (scheme.String() is that
// strategy's display name in the spec registry).
var Schemes = []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP}

// SizeLabel renders a subset size the way the paper does (items/1000,
// e.g. "34K" at full scale, "3.4K" at 1/10 scale).
func SizeLabel(n int) string {
	if n >= 1000 {
		if n%1000 == 0 {
			return fmt.Sprintf("%dK", n/1000)
		}
		return fmt.Sprintf("%.1fK", float64(n)/1000)
	}
	return fmt.Sprintf("%d", n)
}

// QualityCell is one Table I cell group (one model × size × benchmark ×
// method, both criteria).
type QualityCell struct {
	Model     string
	DataSize  int
	Benchmark string // "RTLLM" or "VGen"
	Method    string
	// Function metrics (percent).
	FuncPass1, FuncPass5, FuncPass10, FuncRate float64
	// Syntax metrics (percent).
	SynPass1, SynPass5, SynPass10, SynRate float64
}

// SpeedRow is one Table II row half (per model).
type SpeedRow struct {
	Model        string
	Method       string
	TokensPerSec float64
	Speedup      float64
}

// Fig5Row reports decoding steps for the worked example (Fig. 5).
type Fig5Row struct {
	Method string
	Steps  int
	Tokens int
}

// Results bundles everything a full run produces.
type Results struct {
	Setup   Setup
	Stats   dataset.Stats
	Table1  []QualityCell
	Table2  []SpeedRow
	Fig5    []Fig5Row
	Corpora int // refined corpus size
}

// trainedSet holds the per-scheme models for one backbone config at one
// data size.
type trainedSet struct {
	byScheme map[model.Scheme]*model.Model
}

// Runner caches the corpus and incrementally trained models across
// experiments.
type Runner struct {
	setup    Setup
	examples []model.Example
	stats    dataset.Stats
	// tokenizers per model config name.
	toks map[string]*tokenizer.Tokenizer
}

// NewRunner builds the corpus (running the full refinement pipeline)
// and trains tokenizers.
func NewRunner(setup Setup) *Runner {
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{
		Seed:  setup.Seed,
		Items: setup.CorpusItems,
	})
	r := &Runner{setup: setup, examples: examples, stats: stats, toks: map[string]*tokenizer.Tokenizer{}}
	for _, cfg := range setup.Models {
		var corpus []string
		// Tokenizers train on a bounded sample of the corpus text for
		// speed; BPE merges converge long before the full corpus.
		limit := len(examples)
		if limit > 1500 {
			limit = 1500
		}
		for _, ex := range examples[:limit] {
			corpus = append(corpus, model.FormatPrompt(ex.Prompt)+ex.Code)
		}
		r.toks[cfg.Name] = tokenizer.Train(corpus, cfg.VocabSize)
	}
	return r
}

// Examples exposes the refined corpus (tools use it).
func (r *Runner) Examples() []model.Example { return r.examples }

// Stats exposes the refinement stats.
func (r *Runner) Stats() dataset.Stats { return r.stats }

// Tokenizer returns the tokenizer for a model config.
func (r *Runner) Tokenizer(cfg model.Config) *tokenizer.Tokenizer { return r.toks[cfg.Name] }

// promptOutcome is the per-prompt sample tally for one criterion.
type promptOutcome struct {
	fn  metrics.PromptResult
	syn metrics.PromptResult
}

// newEngine sizes a serve.Engine for one trained model by the Setup's
// workers knob. The harness and the vgend daemon share this dispatch
// path, so benchmark-table concurrency is the serving concurrency. The
// LRU is disabled: every decode must pay its simulated cost, and the
// seed schedule never repeats a (prompt, options) pair anyway.
func (r *Runner) newEngine(m *model.Model) *serve.Engine {
	return serve.NewEngine(m, serve.Config{Workers: r.setup.workers(), CacheSize: -1})
}

// evalSuite evaluates one model on one benchmark suite: every (prompt,
// temperature, sample) generation dispatches through the worker pool,
// then the tally keeps the best per-temperature accuracy per prompt
// (the paper picks the highest accuracy across temperatures). Seeds
// are assigned per (prompt, temperature, sample), so the outcome is
// identical at any worker count.
func (r *Runner) evalSuite(m *model.Model, suite []bench.Problem, seedBase int64) []promptOutcome {
	eng := r.newEngine(m)
	defer eng.Close()
	strategy := m.Scheme().String()
	n := r.setup.Samples
	nTemps := len(r.setup.Temps)

	reqs := make([]serve.Request, 0, len(suite)*nTemps*n)
	for i := range suite {
		promptSeed := seedBase + int64(i)*77
		for ti, temp := range r.setup.Temps {
			for s := 0; s < n; s++ {
				reqs = append(reqs, serve.Request{
					Prompt: suite[i].Prompt,
					Options: core.Options{
						Strategy:    strategy,
						Temperature: temp,
						Seed:        promptSeed + int64(ti*1000+s),
					},
				})
			}
		}
	}
	resps := eng.GenerateBatch(context.Background(), reqs)

	out := make([]promptOutcome, len(suite))
	for i := range suite {
		bestFn, bestSyn := 0, 0
		for ti := 0; ti < nTemps; ti++ {
			cFn, cSyn := 0, 0
			for s := 0; s < n; s++ {
				resp := resps[(i*nTemps+ti)*n+s]
				if resp.Err != nil {
					// Background context, drained engine: unreachable
					// outside programmer error.
					panic(resp.Err)
				}
				if bench.CheckSyntax(resp.Result.Text) {
					cSyn++
					if bench.CheckFunction(resp.Result.Text, suite[i]) {
						cFn++
					}
				}
			}
			if cFn > bestFn {
				bestFn = cFn
			}
			if cSyn > bestSyn {
				bestSyn = cSyn
			}
		}
		out[i] = promptOutcome{
			fn:  metrics.PromptResult{N: n, C: bestFn},
			syn: metrics.PromptResult{N: n, C: bestSyn},
		}
	}
	return out
}

// cellFrom aggregates suite outcomes into a Table I cell.
func cellFrom(modelName string, size int, benchmark, method string, outcomes []promptOutcome) QualityCell {
	var fn, syn []metrics.PromptResult
	for _, o := range outcomes {
		fn = append(fn, o.fn)
		syn = append(syn, o.syn)
	}
	pct := func(x float64) float64 { return 100 * x }
	return QualityCell{
		Model: modelName, DataSize: size, Benchmark: benchmark, Method: method,
		FuncPass1:  pct(metrics.MeanPassAtK(fn, 1)),
		FuncPass5:  pct(metrics.MeanPassAtK(fn, 5)),
		FuncPass10: pct(metrics.MeanPassAtK(fn, 10)),
		FuncRate:   pct(metrics.PassRate(fn)),
		SynPass1:   pct(metrics.MeanPassAtK(syn, 1)),
		SynPass5:   pct(metrics.MeanPassAtK(syn, 5)),
		SynPass10:  pct(metrics.MeanPassAtK(syn, 10)),
		SynRate:    pct(metrics.PassRate(syn)),
	}
}

// RunTable1 trains each scheme incrementally through the data-size
// sweep and evaluates the quality grid at each boundary.
func (r *Runner) RunTable1() []QualityCell {
	var cells []QualityCell
	rtllm := bench.RTLLM()
	vgen := bench.VGen()
	for _, cfg := range r.setup.Models {
		tk := r.toks[cfg.Name]
		for _, scheme := range Schemes {
			m := model.New(tk, cfg, scheme)
			prev := 0
			for _, num := range r.setup.SizeNumerators {
				sub := dataset.Subset(r.examples, num, 4)
				m.TrainMore(sub[prev:])
				prev = len(sub)
				for _, suite := range []struct {
					name  string
					probs []bench.Problem
				}{{"RTLLM", rtllm}, {"VGen", vgen}} {
					outcomes := r.evalSuite(m, suite.probs, r.setup.Seed*1000+int64(num))
					cells = append(cells, cellFrom(cfg.Name, len(sub), suite.name, scheme.String(), outcomes))
				}
			}
		}
	}
	return cells
}

// speedPrompts assembles the Table II prompt set: the two suites'
// prompts plus generated extras (the paper pads with GPT-4-generated
// prompts to 575; we pad with corpus descriptions, which have the same
// provenance as our benchmark prompts).
func (r *Runner) speedPrompts() []string {
	var out []string
	for _, p := range bench.All() {
		out = append(out, p.Prompt)
	}
	for i := 0; len(out) < r.setup.SpeedPrompts && i < len(r.examples); i++ {
		out = append(out, r.examples[i].Prompt)
	}
	if len(out) > r.setup.SpeedPrompts {
		out = out[:r.setup.SpeedPrompts]
	}
	return out
}

// RunTable2 measures simulated generation speed per method on models
// trained with the full corpus (paper protocol: each prompt decoded
// greedily and with sampling at T=0.8; speed is eq. 3 over all outputs;
// speedup is vs the same backbone trained with NTP).
func (r *Runner) RunTable2() []SpeedRow {
	var rows []SpeedRow
	prompts := r.speedPrompts()
	for _, cfg := range r.setup.Models {
		tk := r.toks[cfg.Name]
		speeds := map[model.Scheme]float64{}
		for _, scheme := range Schemes {
			m := model.Train(tk, cfg, scheme, r.examples)
			strategy := scheme.String()

			// Each prompt decodes greedily and sampled at T=0.8; the
			// pairs dispatch through the shared worker pool and land
			// back in submission order.
			reqs := make([]serve.Request, 0, 2*len(prompts))
			for i, prompt := range prompts {
				reqs = append(reqs,
					serve.Request{Prompt: prompt, Options: core.Options{Strategy: strategy}},
					serve.Request{Prompt: prompt, Options: core.Options{Strategy: strategy, Temperature: 0.8, Seed: int64(i)}})
			}
			eng := r.newEngine(m)
			resps := eng.GenerateBatch(context.Background(), reqs)
			eng.Close()
			tokens := make([]int, len(resps))
			secs := make([]float64, len(resps))
			for i, resp := range resps {
				if resp.Err != nil {
					panic(resp.Err)
				}
				tokens[i] = len(resp.Result.CleanTokens)
				secs[i] = resp.Result.SimulatedMS / 1000
			}
			speeds[scheme] = metrics.Speed(tokens, secs)
		}
		ntp := speeds[model.SchemeNTP]
		for _, scheme := range Schemes {
			rows = append(rows, SpeedRow{
				Model:        cfg.Name,
				Method:       scheme.String(),
				TokensPerSec: speeds[scheme],
				Speedup:      metrics.Speedup(speeds[scheme], ntp),
			})
		}
	}
	return rows
}

// MatrixEntry pairs a training scheme with a decoding strategy — one
// axis point of the strategy matrix.
type MatrixEntry struct {
	// Scheme trains the backbone (and heads, if any).
	Scheme model.Scheme
	// Strategy names the decoding strategy (core.ResolveStrategy).
	Strategy string
}

// StrategyMatrix is the Table-2-style strategy axis: the three legacy
// modes on their natural schemes, self-speculative prompt lookup on
// the plain NTP backbone — the drafter that needs no trained heads at
// all, so it accelerates exactly the model Medusa cannot — and the
// three tree-drafting lifts on the same schemes as their linear
// counterparts, so every tree row isolates the drafting shape.
var StrategyMatrix = []MatrixEntry{
	{Scheme: model.SchemeOurs, Strategy: "ours"},
	{Scheme: model.SchemeOurs, Strategy: "ours-tree"},
	{Scheme: model.SchemeOurs, Strategy: "grammar-tree"},
	{Scheme: model.SchemeMedusa, Strategy: "medusa"},
	{Scheme: model.SchemeMedusa, Strategy: "medusa-tree"},
	{Scheme: model.SchemeNTP, Strategy: "ntp"},
	{Scheme: model.SchemeNTP, Strategy: "prompt-lookup"},
	{Scheme: model.SchemeNTP, Strategy: "lookup-tree"},
	{Scheme: model.SchemeNTP, Strategy: "grammar-lookup-tree"},
}

// StrategyRow is one strategy-matrix result row.
type StrategyRow struct {
	Model    string
	Scheme   string
	Strategy string
	// TokensPerSec is the eq. 3 simulated speed over the prompt set.
	TokensPerSec float64
	// Speedup is versus the ntp row of the same model.
	Speedup float64
	// MeanAccepted is raw tokens emitted per decoding step.
	MeanAccepted float64
	// WallMSPerToken is measured wall-clock decoder milliseconds per
	// clean token — real CPU cost next to the simulated speedup, the
	// honest accounting "Speculative Decoding: Performance or
	// Illusion?" calls for. On this substrate drafting is nearly free,
	// so strategies that cut step counts also cut wall-clock; on a GPU
	// the two columns can diverge, which is exactly why both are shown.
	WallMSPerToken float64
}

// RunStrategyMatrix measures simulated generation speed for every
// (scheme, strategy) pairing of StrategyMatrix under the Table II
// protocol (greedy + T=0.8 per prompt, dispatch through the shared
// worker pool). Models are trained once per scheme and reused across
// strategies, so the matrix isolates the decoding strategy.
func (r *Runner) RunStrategyMatrix() []StrategyRow {
	var rows []StrategyRow
	prompts := r.speedPrompts()
	for _, cfg := range r.setup.Models {
		tk := r.toks[cfg.Name]
		trained := map[model.Scheme]*model.Model{}
		speeds := map[string]float64{}
		accepted := map[string]float64{}
		wallPerToken := map[string]float64{}
		for _, entry := range StrategyMatrix {
			m := trained[entry.Scheme]
			if m == nil {
				m = model.Train(tk, cfg, entry.Scheme, r.examples)
				trained[entry.Scheme] = m
			}
			reqs := make([]serve.Request, 0, 2*len(prompts))
			for i, prompt := range prompts {
				reqs = append(reqs,
					serve.Request{Prompt: prompt, Options: core.Options{Strategy: entry.Strategy}},
					serve.Request{Prompt: prompt, Options: core.Options{Strategy: entry.Strategy, Temperature: 0.8, Seed: int64(i)}})
			}
			eng := r.newEngine(m)
			resps := eng.GenerateBatch(context.Background(), reqs)
			eng.Close()
			tokens := make([]int, len(resps))
			secs := make([]float64, len(resps))
			var rawTokens, steps, cleanTokens, wallMS float64
			for i, resp := range resps {
				if resp.Err != nil {
					panic(resp.Err)
				}
				tokens[i] = len(resp.Result.CleanTokens)
				secs[i] = resp.Result.SimulatedMS / 1000
				rawTokens += float64(len(resp.Result.Tokens))
				steps += float64(resp.Result.Steps)
				cleanTokens += float64(len(resp.Result.CleanTokens))
				wallMS += float64(resp.Wall) / float64(time.Millisecond)
			}
			speeds[entry.Strategy] = metrics.Speed(tokens, secs)
			if steps > 0 {
				accepted[entry.Strategy] = rawTokens / steps
			}
			if cleanTokens > 0 {
				wallPerToken[entry.Strategy] = wallMS / cleanTokens
			}
		}
		for _, entry := range StrategyMatrix {
			label := entry.Strategy
			if s, err := core.ResolveStrategy(entry.Strategy, false); err == nil {
				label = s.Name
			}
			rows = append(rows, StrategyRow{
				Model:          cfg.Name,
				Scheme:         entry.Scheme.String(),
				Strategy:       label,
				TokensPerSec:   speeds[entry.Strategy],
				Speedup:        metrics.Speedup(speeds[entry.Strategy], speeds["ntp"]),
				MeanAccepted:   accepted[entry.Strategy],
				WallMSPerToken: wallPerToken[entry.Strategy],
			})
		}
	}
	return rows
}

// Fig5Prompt is the paper's worked example (Fig. 5).
const Fig5Prompt = `Please act as a professional Verilog designer. Create a simple Verilog module named "data_register" that takes a 4-bit input data_in and assigns it to a 4-bit output data_out using a non-blocking assignment on the positive edge of the clock clk.`

// RunFig5 decodes the data_register example greedily with each method
// and reports step counts (paper: Ours 14, Medusa 24, NTP 77 — the
// ordering and rough ratios are the reproduction target).
func (r *Runner) RunFig5() []Fig5Row {
	cfg := r.setup.Models[0]
	tk := r.toks[cfg.Name]
	var rows []Fig5Row
	for _, scheme := range Schemes {
		m := model.Train(tk, cfg, scheme, r.examples)
		dec := core.NewDecoder(m)
		res := dec.Generate(Fig5Prompt, core.Options{Strategy: scheme.String()})
		rows = append(rows, Fig5Row{Method: scheme.String(), Steps: res.Steps, Tokens: len(res.CleanTokens)})
	}
	return rows
}

// Fig1Point pairs Table II speed with Table I pass@10 on RTLLM for the
// scatter of Fig. 1.
type Fig1Point struct {
	Method       string
	TokensPerSec float64
	FuncPass10   float64
}

// Fig1 derives the scatter points from computed tables (largest data
// size, first model, RTLLM benchmark).
func Fig1(t1 []QualityCell, t2 []SpeedRow, modelName string) []Fig1Point {
	maxSize := 0
	for _, c := range t1 {
		if c.Model == modelName && c.DataSize > maxSize {
			maxSize = c.DataSize
		}
	}
	var pts []Fig1Point
	for _, row := range t2 {
		if row.Model != modelName {
			continue
		}
		for _, c := range t1 {
			if c.Model == modelName && c.Benchmark == "RTLLM" && c.DataSize == maxSize && c.Method == row.Method {
				pts = append(pts, Fig1Point{Method: row.Method, TokensPerSec: row.TokensPerSec, FuncPass10: c.FuncPass10})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Method < pts[j].Method })
	return pts
}

// Fig6 extracts the CodeT5p pass@5 slice of Table I (Function and
// Syntax × RTLLM/VGen × data sizes).
func Fig6(t1 []QualityCell, modelName string) []QualityCell {
	var out []QualityCell
	for _, c := range t1 {
		if c.Model == modelName {
			out = append(out, c)
		}
	}
	return out
}
