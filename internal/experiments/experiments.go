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
// Beyond the paper, RunStrategyMatrix decodes every registered
// strategy under the Table II protocol in one fold; Table II itself
// (Table2) and the tree and grammar comparisons (Compare) are views of
// its rows, so each column is defined once. The Runner owns what the
// harnesses share: Model memoises full-corpus training, decode is the
// one dispatch path, speedSchedule the one greedy + T=0.8 schedule.
//
// The Setup scale knobs let the same code run as a quick smoke test
// (CI) or as the full harness (cmd/evalbench).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
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

// Fig5Row reports decoding steps for the worked example (Fig. 5).
type Fig5Row struct {
	Method string
	Steps  int
	Tokens int
}

// Runner caches the corpus, the tokenizers and every model trained on
// the full corpus, and owns the decode protocol the harnesses share.
type Runner struct {
	setup    Setup
	examples []model.Example
	stats    dataset.Stats
	// tokenizers per model config name.
	toks map[string]*tokenizer.Tokenizer

	mu sync.Mutex
	// models memoises Model, keyed "<config name>/<scheme>".
	models map[string]*model.Model
}

// NewRunner builds the corpus (running the full refinement pipeline)
// and trains tokenizers.
func NewRunner(setup Setup) *Runner {
	examples, stats := dataset.BuildCorpus(dataset.CorpusOptions{
		Seed:  setup.Seed,
		Items: setup.CorpusItems,
	})
	r := &Runner{
		setup: setup, examples: examples, stats: stats,
		toks:   map[string]*tokenizer.Tokenizer{},
		models: map[string]*model.Model{},
	}
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

// Model returns cfg's backbone trained with scheme on the full corpus,
// training it on first use, so a process trains each pairing once
// however many experiments decode with it (decoding never mutates a
// model). The lock is held across training: two callers asking for the
// same pairing must not both pay for it.
func (r *Runner) Model(cfg model.Config, scheme model.Scheme) *model.Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := cfg.Name + "/" + scheme.String()
	m := r.models[key]
	if m == nil {
		m = model.Train(r.toks[cfg.Name], cfg, scheme, r.examples)
		r.models[key] = m
	}
	return m
}

// ServingFixture is what the serving-side harnesses (load, sweep,
// trace, chaos) run on: the first backbone trained with the paper's
// scheme, and the Table II prompt set.
func (r *Runner) ServingFixture() (*model.Model, []string) {
	return r.Model(r.setup.Models[0], model.SchemeOurs), r.speedPrompts()
}

// Stats exposes the refinement stats.
func (r *Runner) Stats() dataset.Stats { return r.stats }

// decode dispatches reqs through a fresh serve.Engine sized by the
// Setup's workers knob and returns the responses in submission order.
// The harness and the vgend daemon share this dispatch path, so
// benchmark-table concurrency is the serving concurrency. The LRU is
// disabled: every decode must pay its simulated cost, and no schedule
// here repeats a (prompt, options) pair anyway.
func (r *Runner) decode(m *model.Model, reqs []serve.Request) []*serve.Response {
	eng := serve.NewEngine(m, serve.Config{Workers: r.setup.workers(), CacheSize: -1})
	defer eng.Close()
	resps := eng.GenerateBatch(context.Background(), reqs)
	for _, resp := range resps {
		if resp.Err != nil {
			// Background context, engine closed only after the batch
			// returns: unreachable outside programmer error.
			panic(resp.Err)
		}
	}
	return resps
}

// evalSuite evaluates one model on one benchmark suite: every (prompt,
// temperature, sample) generation dispatches through the worker pool,
// then the tally keeps the best per-temperature accuracy per prompt
// (the paper picks the highest accuracy across temperatures). Seeds
// are assigned per (prompt, temperature, sample), so the outcome is
// identical at any worker count. It returns the per-prompt sample
// tallies under the function and the syntax criterion.
func (r *Runner) evalSuite(m *model.Model, suite []bench.Problem, seedBase int64) (fn, syn []metrics.PromptResult) {
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
	resps := r.decode(m, reqs)

	for i := range suite {
		bestFn, bestSyn := 0, 0
		for ti := 0; ti < nTemps; ti++ {
			cFn, cSyn := 0, 0
			for s := 0; s < n; s++ {
				resp := resps[(i*nTemps+ti)*n+s]
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
		fn = append(fn, metrics.PromptResult{N: n, C: bestFn})
		syn = append(syn, metrics.PromptResult{N: n, C: bestSyn})
	}
	return fn, syn
}

// cellFrom aggregates a suite's tallies into a Table I cell.
func cellFrom(modelName string, size int, benchmark, method string, fn, syn []metrics.PromptResult) QualityCell {
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
					fn, syn := r.evalSuite(m, suite.probs, r.setup.Seed*1000+int64(num))
					cells = append(cells, cellFrom(cfg.Name, len(sub), suite.name, scheme.String(), fn, syn))
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

// speedSchedule is the Table II protocol's request list (paper: each
// prompt decoded greedily and with sampling at T=0.8; speed is eq. 3
// over all outputs). Each prompt's pair dispatches through the shared
// worker pool and lands back in submission order.
func speedSchedule(prompts []string, strategy string) []serve.Request {
	reqs := make([]serve.Request, 0, 2*len(prompts))
	for i, prompt := range prompts {
		reqs = append(reqs,
			serve.Request{Prompt: prompt, Options: core.Options{Strategy: strategy}},
			serve.Request{Prompt: prompt, Options: core.Options{Strategy: strategy, Temperature: 0.8, Seed: int64(i)}})
	}
	return reqs
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
// tree-drafting and grammar-constrained lifts on the same schemes as
// the strategies they extend, so every such row isolates the drafting
// shape (TreePairs) or the oracle (GrammarPairs).
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

// StrategyRow is one strategy-matrix result row: everything the
// harness reports about decoding one strategy over the Table II
// schedule. Table II, the tree comparison and the grammar comparison
// all read these columns.
type StrategyRow struct {
	Model  string
	Scheme string
	// Strategy is the registry display name ("OursTree").
	Strategy string
	// TokensPerSec is the eq. 3 simulated speed over the prompt set.
	TokensPerSec float64
	// Speedup is versus the NTP row of the same model (paper: the same
	// backbone trained with NTP).
	Speedup float64
	// MeanAccepted is raw tokens emitted per decoding step — tokens
	// surviving verification per forward pass, the quantity the whole
	// speedup rests on ("A Theoretical Perspective for Speculative
	// Decoding Algorithm": expected accepted length drives the
	// wall-clock gain).
	MeanAccepted float64
	// WallMSPerToken is measured wall-clock decoder milliseconds per
	// clean token — real CPU cost next to the simulated speedup, the
	// honest accounting "Speculative Decoding: Performance or
	// Illusion?" calls for. Tree verification walks more nodes per step
	// and the grammar oracle re-lexes the draft tail on every candidate;
	// this is where that CPU cost shows. On a GPU this column and the
	// simulated one can diverge, which is exactly why both are shown.
	WallMSPerToken float64
	// NodesPerStep is mean draft-tree nodes proposed per step and
	// BudgetUtilization nodes proposed over node budget available: how
	// much of its budget a tree drafter actually filled. Zero for
	// linear strategies.
	NodesPerStep, BudgetUtilization float64
	// PrunedPerStep is mean draft nodes the syntax oracle rejected per
	// step and GrammarTokensPerStep mean construct-chain tokens drafted
	// per step: how hard the oracle worked. Zero without an oracle.
	PrunedPerStep, GrammarTokensPerStep float64
}

// RunStrategyMatrix decodes the Table II schedule with every
// (scheme, strategy) pairing of StrategyMatrix and folds each batch
// into a row. Models come from Model, so strategies sharing a scheme
// decode on the same trained model and the matrix isolates the
// decoding strategy.
func (r *Runner) RunStrategyMatrix() []StrategyRow {
	var rows []StrategyRow
	prompts := r.speedPrompts()
	for _, cfg := range r.setup.Models {
		first := len(rows)
		var ntp float64
		for _, entry := range StrategyMatrix {
			resps := r.decode(r.Model(cfg, entry.Scheme), speedSchedule(prompts, entry.Strategy))
			row := StrategyRow{Model: cfg.Name, Scheme: entry.Scheme.String(), Strategy: displayName(entry.Strategy)}
			tokens := make([]int, len(resps))
			secs := make([]float64, len(resps))
			var raw, steps, clean, wallMS, nodes, budget, pruned, grammar float64
			for i, resp := range resps {
				res := resp.Result
				tokens[i] = len(res.CleanTokens)
				secs[i] = res.SimulatedMS / 1000
				raw += float64(len(res.Tokens))
				steps += float64(res.Steps)
				clean += float64(len(res.CleanTokens))
				wallMS += float64(resp.Wall) / float64(time.Millisecond)
				nodes += float64(res.TreeNodes)
				budget += float64(res.TreeBudget)
				pruned += float64(res.GrammarPruned)
				grammar += float64(res.GrammarDraftTokens)
			}
			row.TokensPerSec = metrics.Speed(tokens, secs)
			if steps > 0 {
				row.MeanAccepted = raw / steps
				row.NodesPerStep = nodes / steps
				row.PrunedPerStep = pruned / steps
				row.GrammarTokensPerStep = grammar / steps
			}
			if clean > 0 {
				row.WallMSPerToken = wallMS / clean
			}
			if budget > 0 {
				row.BudgetUtilization = nodes / budget
			}
			if entry.Strategy == "ntp" {
				ntp = row.TokensPerSec
			}
			rows = append(rows, row)
		}
		for i := first; i < len(rows); i++ {
			rows[i].Speedup = metrics.Speedup(rows[i].TokensPerSec, ntp)
		}
	}
	return rows
}

// displayName resolves a registry name to its display spelling,
// passing unknown names through.
func displayName(strategy string) string {
	return core.Options{Strategy: strategy}.StrategyLabel()
}

// Table2 is the paper's Table II as a view of the matrix: per model,
// the rows of the three methods decoded on their own scheme, in the
// paper's column order.
func Table2(rows []StrategyRow) []StrategyRow {
	var out []StrategyRow
	for _, name := range modelsOf(rows) {
		for _, scheme := range Schemes {
			for _, row := range rows {
				if row.Model == name && row.Strategy == scheme.String() {
					out = append(out, row)
				}
			}
		}
	}
	return out
}

// Pair names a strategy and the lift that extends it (registry names);
// both decode on the same scheme in StrategyMatrix, so a pair differs
// in exactly one thing.
type Pair struct{ Base, Lift string }

// TreePairs is the linear-vs-tree comparison axis: every tree strategy
// against its exact linear counterpart, so the only difference is the
// drafting shape.
var TreePairs = []Pair{
	{Base: "medusa", Lift: "medusa-tree"},
	{Base: "ours", Lift: "ours-tree"},
	{Base: "prompt-lookup", Lift: "lookup-tree"},
}

// GrammarPairs is the grammar comparison axis: each grammar strategy
// against the ungated tree drafter it extends, so the only difference
// is the oracle — syntactically doomed branches pruned before the
// verifier pays for them, idiomatic constructs drafted as whole chains.
var GrammarPairs = []Pair{
	{Base: "ours-tree", Lift: "grammar-tree"},
	{Base: "lookup-tree", Lift: "grammar-lookup-tree"},
}

// PairRow is one (model, pair) comparison: the two matrix rows side by
// side.
type PairRow struct {
	Base, Lift StrategyRow
	// AcceptedGain is Lift.MeanAccepted / Base.MeanAccepted (> 1 means
	// the lift's drafts survive verification longer).
	AcceptedGain float64
}

// Compare views the matrix as pair comparisons: per model, one row per
// pair.
func Compare(rows []StrategyRow, pairs []Pair) []PairRow {
	var out []PairRow
	for _, name := range modelsOf(rows) {
		byStrategy := map[string]StrategyRow{}
		for _, row := range rows {
			if row.Model == name {
				byStrategy[row.Strategy] = row
			}
		}
		for _, pair := range pairs {
			pr := PairRow{Base: byStrategy[displayName(pair.Base)], Lift: byStrategy[displayName(pair.Lift)]}
			if pr.Base.MeanAccepted > 0 {
				pr.AcceptedGain = pr.Lift.MeanAccepted / pr.Base.MeanAccepted
			}
			out = append(out, pr)
		}
	}
	return out
}

// modelsOf lists the distinct model names of rows in first-seen order.
func modelsOf(rows []StrategyRow) []string {
	var names []string
	seen := map[string]bool{}
	for _, row := range rows {
		if !seen[row.Model] {
			seen[row.Model] = true
			names = append(names, row.Model)
		}
	}
	return names
}

// Fig5Prompt is the paper's worked example (Fig. 5).
const Fig5Prompt = `Please act as a professional Verilog designer. Create a simple Verilog module named "data_register" that takes a 4-bit input data_in and assigns it to a 4-bit output data_out using a non-blocking assignment on the positive edge of the clock clk.`

// RunFig5 decodes the data_register example greedily with each method
// and reports step counts (paper: Ours 14, Medusa 24, NTP 77 — the
// ordering and rough ratios are the reproduction target).
func (r *Runner) RunFig5() []Fig5Row {
	var rows []Fig5Row
	for _, scheme := range Schemes {
		m := r.Model(r.setup.Models[0], scheme)
		res := r.decode(m, []serve.Request{{Prompt: Fig5Prompt, Options: core.Options{Strategy: scheme.String()}}})[0].Result
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

// Fig1 derives the scatter points from Table I and the Table2 view
// (largest data size, first model, RTLLM benchmark).
func Fig1(t1 []QualityCell, t2 []StrategyRow, modelName string) []Fig1Point {
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
			if c.Model == modelName && c.Benchmark == "RTLLM" && c.DataSize == maxSize && c.Method == row.Strategy {
				pts = append(pts, Fig1Point{Method: row.Strategy, TokensPerSec: row.TokensPerSec, FuncPass10: c.FuncPass10})
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
