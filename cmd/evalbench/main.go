// Command evalbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	evalbench -exp table1|table2|matrix|tree|grammar|sim|fleet|prefix|load|sweep|diff|trace|fig1|fig5|fig6|all
//	          [-quick] [-items N] [-samples N] [-seed N] [-json BENCH_8.json]
//
// -quick selects the scaled-down setup (one model, one data size, few
// samples); the default is the full harness described in DESIGN.md.
// "matrix" runs the strategy matrix: every decoding strategy (the
// legacy three, self-speculative prompt lookup and the three
// tree-drafting lifts) under the Table II protocol, with measured
// wall-clock ms/token next to the simulated speedup. "tree" compares
// each tree strategy against its linear counterpart: mean accepted
// length, draft nodes per step and node-budget utilization. "grammar"
// compares each grammar-constrained strategy against the ungated tree
// drafter it extends: mean accepted length plus oracle pruning and
// construct-drafting rates. "sim" is the simulation-in-the-loop
// quality tier: greedy decodes of every benchmark problem are
// elaborated and run against their self-checking testbenches, and the
// rows report sim-pass rate next to syntax rate per strategy. "fleet"
// runs the multi-replica load scenario: measured wall-clock throughput
// and latency percentiles per routing policy. "prefix" compares
// session-preparation tokens recomputed across the three prefix-cache
// modes on a shared-stem workload; "diff" asserts all cache modes
// decode byte-identically across the strategy matrix AND that greedy
// lookup-tree byte streams equal linear prompt-lookup's (the tree
// losslessness proof). "sweep" runs the adaptive-speculation load
// sweep: offered load swept over every static (strategy, budget)
// configuration and over the live self-tuning controller, on decode
// profiles measured from real decodes. "trace" prices the tracing
// layer: the same decode workload runs with tracing off and on, the
// rows report best-of-N throughput for each, and the run fails if the
// two modes' generations are not byte-identical.
//
// -json writes the structured rows of the tree, grammar, sim, prefix,
// load, sweep and trace experiments (whichever ran) as one JSON
// document — CI writes BENCH_8.json and BENCH_10.json this way and
// uploads them as artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchDoc accumulates the structured rows of the experiments that
// emit them; -json serializes whichever fields were filled.
type benchDoc struct {
	Tree          []experiments.TreeBenchRow    `json:"tree,omitempty"`
	Grammar       []experiments.GrammarBenchRow `json:"grammar,omitempty"`
	Sim           []experiments.SimBenchRow     `json:"sim,omitempty"`
	Prefix        []experiments.PrefixBenchRow  `json:"prefix,omitempty"`
	Load          []experiments.LoadBenchRow    `json:"load,omitempty"`
	SweepProfiles []*experiments.SweepProfile   `json:"sweep_profiles,omitempty"`
	Sweep         []experiments.LoadSweepRow    `json:"sweep,omitempty"`
	Trace         []experiments.TraceBenchRow   `json:"trace,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, matrix, tree, grammar, sim, fleet, prefix, load, sweep, diff, trace, fig1, fig5, fig6 or all")
	quick := flag.Bool("quick", false, "scaled-down setup (fast smoke run)")
	items := flag.Int("items", 0, "override corpus item count")
	samples := flag.Int("samples", 0, "override samples per prompt per temperature")
	seed := flag.Int64("seed", 1, "corpus and sampling seed")
	temps := flag.String("temps", "", "override temperatures, comma-separated (e.g. 0.2,0.6)")
	sizes := flag.String("sizes", "", "override data-size numerators over 4 (e.g. 2,4)")
	speedPrompts := flag.Int("speedprompts", 0, "override Table II prompt count")
	jsonOut := flag.String("json", "", "write tree/grammar/sim/prefix/load/sweep rows as one JSON document to this path (e.g. BENCH_8.json)")
	flag.Parse()

	setup := experiments.Default()
	if *quick {
		setup = experiments.Quick()
	}
	if *items > 0 {
		setup.CorpusItems = *items
	}
	if *samples > 0 {
		setup.Samples = *samples
	}
	setup.Seed = *seed
	if *temps != "" {
		setup.Temps = nil
		for _, t := range strings.Split(*temps, ",") {
			var v float64
			fmt.Sscanf(t, "%g", &v)
			setup.Temps = append(setup.Temps, v)
		}
	}
	if *sizes != "" {
		setup.SizeNumerators = nil
		for _, t := range strings.Split(*sizes, ",") {
			var v int
			fmt.Sscanf(t, "%d", &v)
			setup.SizeNumerators = append(setup.SizeNumerators, v)
		}
	}
	if *speedPrompts > 0 {
		setup.SpeedPrompts = *speedPrompts
	}

	t0 := time.Now()
	fmt.Printf("# building corpus (%d items) and tokenizers...\n", setup.CorpusItems)
	runner := experiments.NewRunner(setup)
	fmt.Printf("# corpus ready in %v: %s\n\n", time.Since(t0).Round(time.Millisecond), runner.Stats())

	var t1 []experiments.QualityCell
	var t2 []experiments.SpeedRow
	var doc benchDoc

	// -exp accepts a comma-separated list ("grammar,sim"), so one run
	// can emit several experiments' rows into one JSON document.
	wanted := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return wanted["all"] || wanted[name] }

	if want("table1") || want("fig1") || want("fig6") {
		fmt.Println("## Table I — quality of generated Verilog (percent)")
		t1 = runner.RunTable1()
		printTable1(t1)
	}
	if want("table2") || want("fig1") {
		fmt.Println("## Table II — generation speed")
		t2 = runner.RunTable2()
		printTable2(t2)
	}
	if want("matrix") {
		fmt.Println("## Strategy matrix — tokens/s per decoding strategy")
		printMatrix(runner.RunStrategyMatrix())
	}
	if want("tree") {
		fmt.Println("## Tree bench — mean accepted length, linear vs tree drafting")
		doc.Tree = runner.RunTreeBench()
		printTreeBench(doc.Tree)
	}
	if want("grammar") {
		fmt.Println("## Grammar bench — mean accepted length, ungated vs grammar-constrained tree drafting")
		doc.Grammar = runner.RunGrammarBench()
		printGrammarBench(doc.Grammar)
	}
	if want("sim") {
		fmt.Println("## Sim bench — testbench simulation pass rate per decoding strategy (greedy)")
		doc.Sim = runner.RunSimBench()
		printSimBench(doc.Sim)
	}
	if want("fleet") {
		fmt.Println("## Fleet bench — measured wall-clock throughput/latency per routing policy")
		rows, err := runner.RunFleetBench(experiments.FleetBenchConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet bench: %v\n", err)
			os.Exit(1)
		}
		printFleetBench(rows)
	}
	if want("prefix") {
		fmt.Println("## Prefix bench — session-prep tokens recomputed per prefix-cache mode (shared-stem workload)")
		doc.Prefix = runner.RunPrefixBench(experiments.PrefixBenchConfig{})
		for _, row := range doc.Prefix {
			fmt.Printf("  %-6s requests=%3d  prompt_toks=%6d  recomputed=%6d  saved=%6d  hits=%3d  partial=%3d  hit_rate=%.2f\n",
				row.Mode, row.Requests, row.PromptTokens, row.TokensRecomputed,
				row.TokensSaved, row.Hits, row.PartialHits, row.HitRate)
		}
		fmt.Println()
	}
	if want("load") {
		fmt.Println("## Load bench — short-request p95 with one long decode in flight")
		row, err := runner.RunLoadBench(experiments.LoadBenchConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "load bench: %v\n", err)
			os.Exit(1)
		}
		doc.Load = []experiments.LoadBenchRow{row}
		fmt.Printf("  shorts=%3d  unloaded p95=%7.3fms  loaded p95=%7.3fms  ratio=%.2f  preemptions=%d  long_decodes=%d\n\n",
			row.Shorts, row.UnloadedP95MS, row.LoadedP95MS,
			row.LatencyRatio, row.Preemptions, row.LongDecodes)
	}
	if want("sweep") {
		fmt.Println("## Load sweep — adaptive speculation controller vs the static (strategy, budget) grid")
		rows, profiles, err := runner.RunLoadSweep(experiments.LoadSweepConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "load sweep: %v\n", err)
			os.Exit(1)
		}
		doc.Sweep, doc.SweepProfiles = rows, profiles
		printLoadSweep(rows, profiles)
	}
	if want("trace") {
		fmt.Println("## Trace bench — decode throughput with tracing off vs on, plus byte-identity")
		rows, texts, err := runner.RunTraceBench(experiments.TraceBenchConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace bench: %v\n", err)
			os.Exit(1)
		}
		doc.Trace = rows
		for _, row := range rows {
			fmt.Printf("  tracing=%-3s requests=%3d  repeats=%d  best=%8.2fms  tok/s=%8.1f  spans=%5d  dropped=%d\n",
				row.Tracing, row.Requests, row.Repeats, row.BestWallMS, row.TokensPerSec, row.Spans, row.Dropped)
		}
		if len(texts) == 2 {
			identical := len(texts[0]) == len(texts[1])
			for i := 0; identical && i < len(texts[0]); i++ {
				identical = texts[0][i] == texts[1][i]
			}
			fmt.Printf("  byte-identity: %d generations, identical=%v\n", len(texts[0]), identical)
			if !identical {
				fmt.Fprintln(os.Stderr, "trace bench: tracing changed generated bytes")
				os.Exit(1)
			}
		}
		fmt.Println()
	}
	if want("diff") {
		fmt.Println("## Differential — byte-identity of {off, whole, trie} session caches across the strategy matrix")
		report, err := runner.RunDiffTest(experiments.DiffConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "differential: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  clean: %d cases byte-identical, %d mid-prompt forks exercised\n", report.Cases, report.PartialHits)
		lossless, err := runner.RunTreeLossless()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tree lossless: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  lossless: %d greedy lookup-tree cases byte-identical to prompt-lookup and NTP (steps %d vs %d vs %d)\n\n",
			lossless.Cases, lossless.StepsTree, lossless.StepsLinear, lossless.StepsNTP)
	}
	if want("fig1") && t1 != nil && t2 != nil {
		fmt.Println("## Fig. 1 — speed vs pass@10 (RTLLM, first model)")
		for _, pt := range experiments.Fig1(t1, t2, setup.Models[0].Name) {
			fmt.Printf("  %-8s speed=%8.2f tok/s  funcPass@10=%6.2f%%\n", pt.Method, pt.TokensPerSec, pt.FuncPass10)
		}
		fmt.Println()
	}
	if want("fig5") {
		fmt.Println("## Fig. 5 — decoding steps for the data_register example")
		for _, row := range runner.RunFig5() {
			fmt.Printf("  %-8s steps=%4d  cleanTokens=%4d\n", row.Method, row.Steps, row.Tokens)
		}
		fmt.Println()
	}
	if want("fig6") && t1 != nil {
		name := setup.Models[len(setup.Models)-1].Name
		fmt.Printf("## Fig. 6 — pass@5 slice (%s)\n", name)
		for _, c := range experiments.Fig6(t1, name) {
			fmt.Printf("  %-7s %-6s size=%-6s funcPass@5=%6.2f%%  synPass@5=%6.2f%%\n",
				c.Method, c.Benchmark, experiments.SizeLabel(c.DataSize), c.FuncPass5, c.SynPass5)
		}
		fmt.Println()
	}
	fmt.Printf("# total %v\n", time.Since(t0).Round(time.Second))
	known := map[string]bool{"all": true, "table1": true, "table2": true, "matrix": true,
		"tree": true, "grammar": true, "sim": true, "fleet": true, "prefix": true,
		"load": true, "sweep": true, "diff": true, "trace": true,
		"fig1": true, "fig5": true, "fig6": true}
	for name := range wanted {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %s\n", *jsonOut)
	}
}

// printLoadSweep renders the measured decode profiles, then the rows
// grouped per load point with the adaptive row last in each group.
func printLoadSweep(rows []experiments.LoadSweepRow, profiles []*experiments.SweepProfile) {
	fmt.Printf("  %-14s %9s %11s %8s %11s\n", "profile", "tok/step", "slots/step", "ms/tok", "nodes/step")
	for _, p := range profiles {
		fmt.Printf("  %-14s %9.2f %11.2f %8.2f %11.2f\n",
			p.Name(), p.TokPerStep, p.SlotsPerStep, p.MSPerTok, p.NodesPerStep)
	}
	fmt.Println()
	fmt.Printf("  %-5s %-14s %8s %8s %8s %9s %10s %11s %7s\n",
		"load", "config", "rps", "p50 ms", "p95 ms", "accepted", "decisions", "downgrades", "level")
	lastFrac := -1.0
	for _, r := range rows {
		if r.LoadFrac != lastFrac {
			fmt.Println("  " + strings.Repeat("-", 88))
			lastFrac = r.LoadFrac
		}
		extra := []string{"", "", ""}
		if r.Adaptive {
			extra = []string{
				fmt.Sprintf("%d", r.Decisions),
				fmt.Sprintf("%d", r.Downgrades),
				r.FinalLevel,
			}
		}
		fmt.Printf("  %-5.2f %-14s %8.2f %8.1f %8.1f %9.2f %10s %11s %7s\n",
			r.LoadFrac, r.Config, r.ThroughputRPS, r.P50MS, r.P95MS, r.MeanAccepted,
			extra[0], extra[1], extra[2])
	}
	fmt.Println()
}

func printMatrix(rows []experiments.StrategyRow) {
	fmt.Printf("%-14s %-8s %-13s %14s %9s %9s %12s\n", "model", "scheme", "strategy", "speed (tok/s)", "speedup", "accepted", "wall ms/tok")
	fmt.Println(strings.Repeat("-", 85))
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %-13s %14.2f %9.2f %9.2f %12.4f\n",
			r.Model, r.Scheme, r.Strategy, r.TokensPerSec, r.Speedup, r.MeanAccepted, r.WallMSPerToken)
	}
	fmt.Println()
}

func printTreeBench(rows []experiments.TreeBenchRow) {
	fmt.Printf("%-14s %-8s %-12s %-12s %9s %9s %6s %11s %10s %6s\n",
		"model", "scheme", "linear", "tree", "lin acc", "tree acc", "gain", "nodes/step", "tree tok/s", "util")
	fmt.Println(strings.Repeat("-", 108))
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %-12s %-12s %9.3f %9.3f %6.3f %11.1f %10.2f %6.2f\n",
			r.Model, r.Scheme, r.Linear, r.Tree, r.LinearAccepted, r.TreeAccepted,
			r.AcceptedGain, r.TreeNodesPerStep, r.TreeTokensPerSec, r.BudgetUtilization)
	}
	fmt.Println()
}

func printGrammarBench(rows []experiments.GrammarBenchRow) {
	fmt.Printf("%-14s %-8s %-12s %-20s %9s %9s %6s %12s %10s\n",
		"model", "scheme", "base", "grammar", "base acc", "gram acc", "gain", "pruned/step", "gtok/step")
	fmt.Println(strings.Repeat("-", 110))
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %-12s %-20s %9.3f %9.3f %6.3f %12.2f %10.2f\n",
			r.Model, r.Scheme, r.Base, r.Grammar, r.BaseAccepted, r.GrammarAccepted,
			r.AcceptedGain, r.PrunedPerStep, r.GrammarTokensPerStep)
	}
	fmt.Println()
}

func printSimBench(rows []experiments.SimBenchRow) {
	fmt.Printf("%-14s %-8s %-20s %9s %10s %12s %11s %14s\n",
		"model", "scheme", "strategy", "problems", "syntax ok", "syntax rate", "sim passed", "sim-pass rate")
	fmt.Println(strings.Repeat("-", 104))
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %-20s %9d %10d %11.1f%% %11d %13.1f%%\n",
			r.Model, r.Scheme, r.Strategy, r.Problems,
			r.SyntaxOK, r.SyntaxRate, r.SimPassed, r.SimPassRate)
	}
	fmt.Println()
}

func printFleetBench(rows []experiments.FleetBenchRow) {
	fmt.Printf("%-16s %8s %8s %9s %9s %8s %8s %8s %8s\n",
		"router", "requests", "hit-rate", "pfx-rate", "dedup", "rps", "p50 ms", "p95 ms", "p99 ms")
	fmt.Println(strings.Repeat("-", 92))
	for _, r := range rows {
		fmt.Printf("%-16s %8d %8.3f %9.3f %9d %8.1f %8.2f %8.2f %8.2f\n",
			r.Router, r.Requests, r.CacheHitRate, r.PrefixHitRate, r.DedupHits,
			r.ThroughputRPS, r.P50WallMS, r.P95WallMS, r.P99WallMS)
	}
	fmt.Println()
}

func printTable1(cells []experiments.QualityCell) {
	fmt.Printf("%-14s %-8s %-7s %-7s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"model", "size", "bench", "method",
		"f@1", "f@5", "f@10", "fRate", "s@1", "s@5", "s@10", "sRate")
	fmt.Println(strings.Repeat("-", 118))
	for _, c := range cells {
		fmt.Printf("%-14s %-8s %-7s %-7s | %7.2f %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f %7.2f\n",
			c.Model, experiments.SizeLabel(c.DataSize), c.Benchmark, c.Method,
			c.FuncPass1, c.FuncPass5, c.FuncPass10, c.FuncRate,
			c.SynPass1, c.SynPass5, c.SynPass10, c.SynRate)
	}
	fmt.Println()
}

func printTable2(rows []experiments.SpeedRow) {
	fmt.Printf("%-14s %-8s %14s %9s\n", "model", "method", "speed (tok/s)", "speedup")
	fmt.Println(strings.Repeat("-", 50))
	for _, r := range rows {
		fmt.Printf("%-14s %-8s %14.2f %9.2f\n", r.Model, r.Method, r.TokensPerSec, r.Speedup)
	}
	fmt.Println()
}
