// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation section (go test -bench=. -benchmem) and the
// ablation studies DESIGN.md calls out. Each benchmark reports the
// reproduced quantities through b.ReportMetric, so `bench_output.txt`
// doubles as a results record:
//
//	BenchmarkTable1_*     — quality grid cells (pass@k, Pass Rate)
//	BenchmarkTable2_*     — simulated tokens/s + speedup per method
//	BenchmarkStrategyMatrix — the experiments.Runner's strategy matrix:
//	                        every column of every decoding strategy
//	BenchmarkFig1         — speed vs pass@10 scatter points
//	BenchmarkFig5         — decoding steps on the data_register example
//	BenchmarkFig6         — the CodeT5p pass@5 slice
//	BenchmarkAblation*    — integrity check / label masking / heads / ε-δ
//	BenchmarkEngine*      — real wall-clock throughput of the decoder
//
// Benchmarks use a reduced-scale setup (see experiments.Quick and the
// constants below) so the full suite completes in minutes; cmd/evalbench
// runs the full-scale harness.
package main

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// benchItems is the corpus scale for in-repo benchmarks.
const benchItems = 3400

var (
	setupOnce sync.Once
	benchEx   []model.Example
	benchTk   *tokenizer.Tokenizer
	benchTk5p *tokenizer.Tokenizer
	models    map[string]*model.Model
)

func setup(b *testing.B) {
	b.Helper()
	setupOnce.Do(func() {
		benchEx, _ = dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: benchItems})
		benchTk = model.TrainTokenizer(model.CodeLlamaSim(), benchEx)
		benchTk5p = model.TrainTokenizer(model.CodeT5pSim(), benchEx)
		models = map[string]*model.Model{}
		for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeOursNoMask, model.SchemeMedusa, model.SchemeNTP} {
			models["CodeLlama/"+scheme.String()] = model.Train(benchTk, model.CodeLlamaSim(), scheme, benchEx)
		}
		for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP} {
			models["CodeT5p/"+scheme.String()] = model.Train(benchTk5p, model.CodeT5pSim(), scheme, benchEx)
		}
	})
}

// evalQuality runs the reduced Table I protocol for one model/suite.
func evalQuality(m *model.Model, probs []bench.Problem, samples int) (fn, syn []metrics.PromptResult) {
	dec := core.NewDecoder(m)
	// Only the three paper schemes reach here; each decodes with the
	// strategy of the same name.
	strategy := m.Scheme().String()
	for pi, p := range probs {
		cF, cS := 0, 0
		for s := 0; s < samples; s++ {
			temp := 0.2
			if s%2 == 1 {
				temp = 0.6
			}
			res := dec.Generate(p.Prompt, core.Options{Strategy: strategy, Temperature: temp, Seed: int64(pi*100 + s)})
			if bench.CheckSyntax(res.Text) {
				cS++
				if bench.CheckFunction(res.Text, p) {
					cF++
				}
			}
		}
		fn = append(fn, metrics.PromptResult{N: samples, C: cF})
		syn = append(syn, metrics.PromptResult{N: samples, C: cS})
	}
	return fn, syn
}

func benchQualityCell(b *testing.B, modelKey, suite string) {
	setup(b)
	m := models[modelKey]
	probs := bench.RTLLM()
	if suite == "VGen" {
		probs = bench.VGen()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn, syn := evalQuality(m, probs, 4)
		b.ReportMetric(100*metrics.MeanPassAtK(fn, 1), "funcPass@1_%")
		b.ReportMetric(100*metrics.MeanPassAtK(fn, 4), "funcPass@4_%")
		b.ReportMetric(100*metrics.PassRate(fn), "funcRate_%")
		b.ReportMetric(100*metrics.MeanPassAtK(syn, 1), "synPass@1_%")
		b.ReportMetric(100*metrics.PassRate(syn), "synRate_%")
	}
}

// --- Table I (one benchmark per model × method × suite cell group) ---

func BenchmarkTable1_CodeLlama_Ours_RTLLM(b *testing.B) {
	benchQualityCell(b, "CodeLlama/Ours", "RTLLM")
}
func BenchmarkTable1_CodeLlama_Medusa_RTLLM(b *testing.B) {
	benchQualityCell(b, "CodeLlama/Medusa", "RTLLM")
}
func BenchmarkTable1_CodeLlama_NTP_RTLLM(b *testing.B) { benchQualityCell(b, "CodeLlama/NTP", "RTLLM") }
func BenchmarkTable1_CodeLlama_Ours_VGen(b *testing.B) { benchQualityCell(b, "CodeLlama/Ours", "VGen") }
func BenchmarkTable1_CodeLlama_Medusa_VGen(b *testing.B) {
	benchQualityCell(b, "CodeLlama/Medusa", "VGen")
}
func BenchmarkTable1_CodeLlama_NTP_VGen(b *testing.B) { benchQualityCell(b, "CodeLlama/NTP", "VGen") }
func BenchmarkTable1_CodeT5p_Ours_RTLLM(b *testing.B) { benchQualityCell(b, "CodeT5p/Ours", "RTLLM") }
func BenchmarkTable1_CodeT5p_Medusa_RTLLM(b *testing.B) {
	benchQualityCell(b, "CodeT5p/Medusa", "RTLLM")
}
func BenchmarkTable1_CodeT5p_NTP_RTLLM(b *testing.B)   { benchQualityCell(b, "CodeT5p/NTP", "RTLLM") }
func BenchmarkTable1_CodeT5p_Ours_VGen(b *testing.B)   { benchQualityCell(b, "CodeT5p/Ours", "VGen") }
func BenchmarkTable1_CodeT5p_Medusa_VGen(b *testing.B) { benchQualityCell(b, "CodeT5p/Medusa", "VGen") }
func BenchmarkTable1_CodeT5p_NTP_VGen(b *testing.B)    { benchQualityCell(b, "CodeT5p/NTP", "VGen") }

// --- Table II ---

func speedOf(m *model.Model, prompts []string, opts core.Options) float64 {
	dec := core.NewDecoder(m)
	var tokens []int
	var secs []float64
	for i, prompt := range prompts {
		greedy := dec.Generate(prompt, opts)
		sampled := dec.Generate(prompt, core.Options{Strategy: opts.Strategy, Temperature: 0.8, Seed: int64(i), TopK: opts.TopK, Epsilon: opts.Epsilon, Delta: opts.Delta})
		tokens = append(tokens, len(greedy.CleanTokens), len(sampled.CleanTokens))
		secs = append(secs, greedy.SimulatedMS/1000, sampled.SimulatedMS/1000)
	}
	return metrics.Speed(tokens, secs)
}

func speedPrompts() []string {
	var prompts []string
	for _, p := range bench.All() {
		prompts = append(prompts, p.Prompt)
	}
	return prompts
}

func benchSpeed(b *testing.B, modelName string) {
	setup(b)
	prompts := speedPrompts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ntp := speedOf(models[modelName+"/NTP"], prompts, core.Options{Strategy: "ntp"})
		medusa := speedOf(models[modelName+"/Medusa"], prompts, core.Options{Strategy: "medusa"})
		ours := speedOf(models[modelName+"/Ours"], prompts, core.Options{Strategy: "ours"})
		b.ReportMetric(ntp, "NTP_tok/s")
		b.ReportMetric(medusa, "Medusa_tok/s")
		b.ReportMetric(ours, "Ours_tok/s")
		b.ReportMetric(metrics.Speedup(medusa, ntp), "Medusa_speedup")
		b.ReportMetric(metrics.Speedup(ours, ntp), "Ours_speedup")
	}
}

func BenchmarkTable2_CodeLlama(b *testing.B) { benchSpeed(b, "CodeLlama") }
func BenchmarkTable2_CodeT5p(b *testing.B)   { benchSpeed(b, "CodeT5p") }

// --- Strategy matrix: every decoding strategy under one harness ---

// BenchmarkStrategyMatrix runs the experiments.Runner's strategy matrix
// at Quick scale — the same fold evalbench and the tree/grammar gates
// read — and reports each row's columns: simulated tokens/s and
// speedup, mean accepted length (the quantity tree and grammar drafting
// exist to raise) and, for the tree strategies, draft nodes per step
// and node-budget utilization (CI smoke target for the pluggable
// pipeline and the tree subsystem). Models are trained before the
// timer starts.
func BenchmarkStrategyMatrix(b *testing.B) {
	quick := experiments.Quick()
	r := experiments.NewRunner(quick)
	for _, entry := range experiments.StrategyMatrix {
		r.Model(quick.Models[0], entry.Scheme)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range r.RunStrategyMatrix() {
			b.ReportMetric(row.TokensPerSec, row.Strategy+"_tok/s")
			b.ReportMetric(row.Speedup, row.Strategy+"_speedup")
			b.ReportMetric(row.MeanAccepted, row.Strategy+"_accepted")
			if row.NodesPerStep > 0 {
				b.ReportMetric(row.NodesPerStep, row.Strategy+"_nodes/step")
				b.ReportMetric(row.BudgetUtilization, row.Strategy+"_budget_util")
			}
		}
	}
}

// --- Fig. 1: speed vs pass@10(RTLLM) scatter ---

func BenchmarkFig1(b *testing.B) {
	setup(b)
	prompts := speedPrompts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP} {
			m := models["CodeLlama/"+scheme.String()]
			speed := speedOf(m, prompts[:20], core.Options{Strategy: scheme.String()})
			fn, _ := evalQuality(m, bench.RTLLM(), 4)
			b.ReportMetric(speed, scheme.String()+"_tok/s")
			b.ReportMetric(100*metrics.MeanPassAtK(fn, 4), scheme.String()+"_funcPass@4_%")
		}
	}
}

// --- Fig. 5: decoding steps on the worked example ---

func BenchmarkFig5(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP} {
			m := models["CodeLlama/"+scheme.String()]
			dec := core.NewDecoder(m)
			res := dec.Generate(experiments.Fig5Prompt, core.Options{Strategy: scheme.String()})
			b.ReportMetric(float64(res.Steps), scheme.String()+"_steps")
		}
	}
}

// --- Fig. 6: CodeT5p pass@5 slice ---

func BenchmarkFig6(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []model.Scheme{model.SchemeOurs, model.SchemeMedusa, model.SchemeNTP} {
			m := models["CodeT5p/"+scheme.String()]
			for _, suite := range []struct {
				name  string
				probs []bench.Problem
			}{{"RTLLM", bench.RTLLM()}, {"VGen", bench.VGen()}} {
				fn, syn := evalQuality(m, suite.probs, 4)
				b.ReportMetric(100*metrics.MeanPassAtK(fn, 4), scheme.String()+"_"+suite.name+"_func@4_%")
				b.ReportMetric(100*metrics.MeanPassAtK(syn, 4), scheme.String()+"_"+suite.name+"_syn@4_%")
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationIntegrity isolates the [FRAG] integrity check on
// the Ours-trained model: the "ours" strategy with truncation, and
// "medusa" — the same drafter and verifier without it.
func BenchmarkAblationIntegrity(b *testing.B) {
	setup(b)
	m := models["CodeLlama/Ours"]
	prompts := speedPrompts()[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := speedOf(m, prompts, core.Options{Strategy: "ours"})
		without := speedOf(m, prompts, core.Options{Strategy: "medusa"})
		fnW, synW := evalQuality(m, bench.RTLLM(), 2)
		b.ReportMetric(with, "with_tok/s")
		b.ReportMetric(without, "without_tok/s")
		b.ReportMetric(100*metrics.PassRate(fnW), "with_funcRate_%")
		b.ReportMetric(100*metrics.PassRate(synW), "with_synRate_%")
	}
}

// BenchmarkAblationLabels isolates the [IGNORE] masking: the Ours-nomask
// scheme trains on [FRAG] sequences with vanilla labels.
func BenchmarkAblationLabels(b *testing.B) {
	setup(b)
	prompts := speedPrompts()[:20]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		masked := speedOf(models["CodeLlama/Ours"], prompts, core.Options{Strategy: "ours"})
		nomask := speedOf(models["CodeLlama/Ours-nomask"], prompts, core.Options{Strategy: "ours"})
		b.ReportMetric(masked, "masked_tok/s")
		b.ReportMetric(nomask, "nomask_tok/s")
	}
}

// BenchmarkAblationHeads sweeps the head count (paper: the label scheme
// "increases the number of effective heads").
func BenchmarkAblationHeads(b *testing.B) {
	setup(b)
	prompts := speedPrompts()[:12]
	for _, heads := range []int{2, 4, 6, 10} {
		b.Run(fmt.Sprintf("heads=%d", heads), func(b *testing.B) {
			cfg := model.CodeLlamaSim()
			cfg.NumHeads = heads
			m := model.Train(benchTk, cfg, model.SchemeOurs, benchEx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.ReportMetric(speedOf(m, prompts, core.Options{Strategy: "ours"}), "tok/s")
			}
		})
	}
}

// BenchmarkAblationAcceptance sweeps the typical-acceptance thresholds.
func BenchmarkAblationAcceptance(b *testing.B) {
	setup(b)
	m := models["CodeLlama/Ours"]
	prompts := speedPrompts()[:12]
	for _, cfg := range []struct{ eps, delta float64 }{{0.1, 0.4}, {0.3, 1.2}, {0.6, 2.4}} {
		b.Run(fmt.Sprintf("eps=%.1f_delta=%.1f", cfg.eps, cfg.delta), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := speedOf(m, prompts, core.Options{Strategy: "ours", Epsilon: cfg.eps, Delta: cfg.delta})
				b.ReportMetric(s, "tok/s")
			}
		})
	}
}

// --- Engine wall-clock benchmarks (real CPU throughput, not the cost
// model): tokens generated per real second of decoder work. ---

func benchEngine(b *testing.B, modelKey, strategy string) {
	setup(b)
	m := models[modelKey]
	dec := core.NewDecoder(m)
	prompt := bench.RTLLM()[12].Prompt
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := dec.Generate(prompt, core.Options{Strategy: strategy, Temperature: 0.4, Seed: int64(i)})
		total += len(res.Tokens)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "wallclock_tok/s")
}

func BenchmarkEngineOurs(b *testing.B)   { benchEngine(b, "CodeLlama/Ours", "ours") }
func BenchmarkEngineMedusa(b *testing.B) { benchEngine(b, "CodeLlama/Medusa", "medusa") }
func BenchmarkEngineNTP(b *testing.B)    { benchEngine(b, "CodeLlama/NTP", "ntp") }

// BenchmarkSimulator measures the event-driven simulator on a
// register-file testbench (the functional-evaluation hot path).
func BenchmarkSimulator(b *testing.B) {
	p := bench.RTLLM()[24] // regfile_16x8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bench.CheckFunction(p.Ref, p) {
			b.Fatal("reference failed")
		}
	}
}

// BenchmarkParser measures the front-end on the full benchmark corpus.
func BenchmarkParser(b *testing.B) {
	var srcs []string
	for _, p := range bench.All() {
		srcs = append(srcs, p.Ref, p.Testbench)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if !bench.CheckSyntax(src) {
				b.Fatal("reference failed to parse")
			}
		}
	}
}
