// Command evalbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	evalbench -exp table1|table2|matrix|tree|grammar|sim|load|sweep|trace|diff|fig1|fig5|fig6|all
//	          [-quick] [-items N] [-samples N] [-seed N] [-json rows.json]
//
// -exp takes one name or a comma-separated list; the experiments table
// below is the one place the names live. -quick selects the
// scaled-down setup (one model, one data size, few samples); the
// default is the full harness described in DESIGN.md.
//
// "matrix" decodes every strategy of experiments.StrategyMatrix under
// the Table II protocol once per process and prints every column: the
// simulated speed and speedup, mean accepted length, measured
// wall-clock ms/token next to them, and the tree and grammar drafters'
// own counters. "table2", "tree" and "grammar" are views of those same
// rows: the paper's three methods; each tree strategy beside its linear
// counterpart; each grammar-constrained strategy beside the ungated
// tree drafter it extends. "sim" is the simulation-in-the-loop quality
// tier: greedy decodes of every benchmark problem are elaborated and
// run against their self-checking testbenches, and the rows report
// sim-pass rate next to syntax rate per strategy. "load" measures
// short-request p95 with one long decode in flight. "sweep" runs the
// adaptive-speculation load sweep: offered load swept over every static
// (strategy, budget) configuration and over the live self-tuning
// controller, on decode profiles measured from real decodes. "trace"
// prices the tracing layer: the same decode workload runs with tracing
// off and on, the rows report best-of-N throughput for each, and the
// run fails if the two modes' generations are not byte-identical.
// "diff" asserts that decoding with no session cache, with the prefix
// trie, and with the trie under randomized preemption is byte-identical
// across the strategy matrix AND that greedy lookup-tree byte streams
// equal linear prompt-lookup's (the tree losslessness proof).
//
// -json writes the structured rows of the matrix, tree, grammar, sim,
// load, sweep and trace experiments (whichever ran) as one JSON
// document; `make bench` writes evalbench_rows.json this way and CI
// uploads it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// benchDoc accumulates the structured rows of the experiments that
// emit them; -json serializes whichever fields were filled.
type benchDoc struct {
	Matrix        []experiments.StrategyRow   `json:"matrix,omitempty"`
	Tree          []experiments.PairRow       `json:"tree,omitempty"`
	Grammar       []experiments.PairRow       `json:"grammar,omitempty"`
	Sim           []experiments.SimBenchRow   `json:"sim,omitempty"`
	Load          []experiments.LoadBenchRow  `json:"load,omitempty"`
	SweepProfiles []*experiments.SweepProfile `json:"sweep_profiles,omitempty"`
	Sweep         []experiments.LoadSweepRow  `json:"sweep,omitempty"`
	Trace         []experiments.TraceBenchRow `json:"trace,omitempty"`
}

// session is one evalbench process: the runner, where the report goes,
// the -json document, and the two results several experiments read —
// each computed at most once however many of them run.
type session struct {
	runner *experiments.Runner
	setup  experiments.Setup
	out    io.Writer
	doc    benchDoc
	table1 func() []experiments.QualityCell
	matrix func() []experiments.StrategyRow
}

// experiment is one -exp name. The table is the single source of the
// names: flag help, name resolution and "all" read it, and the test
// holds the usage comment and every -exp spelled in the docs to it.
type experiment struct {
	name, title string
	run         func(*session) error
}

var experimentTable = []experiment{
	{"table1", "Table I — quality of generated Verilog (percent)", func(s *session) error {
		printTable1(s.out, s.table1())
		return nil
	}},
	{"table2", "Table II — generation speed (the paper's three methods, a view of the strategy matrix)", func(s *session) error {
		printMatrix(s.out, experiments.Table2(s.matrix()))
		return nil
	}},
	{"matrix", "Strategy matrix — every decoding strategy under the Table II protocol, simulated speed beside measured wall ms/token", func(s *session) error {
		s.doc.Matrix = s.matrix()
		printMatrix(s.out, s.doc.Matrix)
		return nil
	}},
	{"tree", "Tree bench — mean accepted length, linear vs tree drafting", func(s *session) error {
		s.doc.Tree = experiments.Compare(s.matrix(), experiments.TreePairs)
		printPairs(s.out, s.doc.Tree)
		return nil
	}},
	{"grammar", "Grammar bench — mean accepted length, ungated vs grammar-constrained tree drafting", func(s *session) error {
		s.doc.Grammar = experiments.Compare(s.matrix(), experiments.GrammarPairs)
		printPairs(s.out, s.doc.Grammar)
		return nil
	}},
	{"sim", "Sim bench — testbench simulation pass rate per decoding strategy (greedy)", func(s *session) error {
		s.doc.Sim = s.runner.RunSimBench()
		printSimBench(s.out, s.doc.Sim)
		return nil
	}},
	{"load", "Load bench — short-request p95 with one long decode in flight", func(s *session) error {
		row, err := experiments.LoadBench(s.runner.ServingFixture())
		if err != nil {
			return err
		}
		s.doc.Load = []experiments.LoadBenchRow{row}
		fmt.Fprintf(s.out, "  shorts=%3d  unloaded p95=%7.3fms  loaded p95=%7.3fms  ratio=%.2f  preemptions=%d  long_decodes=%d\n\n",
			row.Shorts, row.UnloadedP95MS, row.LoadedP95MS,
			row.LatencyRatio, row.Preemptions, row.LongDecodes)
		return nil
	}},
	{"sweep", "Load sweep — adaptive speculation controller vs the static (strategy, budget) grid", func(s *session) error {
		rows, profiles, err := experiments.LoadSweep(s.runner.ServingFixture())
		if err != nil {
			return err
		}
		s.doc.Sweep, s.doc.SweepProfiles = rows, profiles
		printLoadSweep(s.out, rows, profiles)
		return nil
	}},
	{"trace", "Trace bench — decode throughput with tracing off vs on, plus byte-identity", runTrace},
	{"diff", "Differential — byte-identity of {off, trie, trie under preemption} session handling across the strategy matrix", func(s *session) error {
		report, err := s.runner.RunDiffTest()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "  clean: %d cases byte-identical, %d mid-prompt forks exercised\n", report.Cases, report.PartialHits)
		lossless, err := s.runner.RunTreeLossless()
		if err != nil {
			return fmt.Errorf("tree lossless: %w", err)
		}
		fmt.Fprintf(s.out, "  lossless: %d greedy lookup-tree cases byte-identical to prompt-lookup and NTP (steps %d vs %d vs %d)\n\n",
			lossless.Cases, lossless.StepsTree, lossless.StepsLinear, lossless.StepsNTP)
		return nil
	}},
	{"fig1", "Fig. 1 — speed vs pass@10 (RTLLM, first model)", func(s *session) error {
		for _, pt := range experiments.Fig1(s.table1(), experiments.Table2(s.matrix()), s.setup.Models[0].Name) {
			fmt.Fprintf(s.out, "  %-8s speed=%8.2f tok/s  funcPass@10=%6.2f%%\n", pt.Method, pt.TokensPerSec, pt.FuncPass10)
		}
		fmt.Fprintln(s.out)
		return nil
	}},
	{"fig5", "Fig. 5 — decoding steps for the data_register example", func(s *session) error {
		for _, row := range s.runner.RunFig5() {
			fmt.Fprintf(s.out, "  %-8s steps=%4d  cleanTokens=%4d\n", row.Method, row.Steps, row.Tokens)
		}
		fmt.Fprintln(s.out)
		return nil
	}},
	{"fig6", "Fig. 6 — pass@5 slice (last model)", func(s *session) error {
		for _, c := range experiments.Fig6(s.table1(), s.setup.Models[len(s.setup.Models)-1].Name) {
			fmt.Fprintf(s.out, "  %-14s %-7s %-6s size=%-6s funcPass@5=%6.2f%%  synPass@5=%6.2f%%\n",
				c.Model, c.Method, c.Benchmark, experiments.SizeLabel(c.DataSize), c.FuncPass5, c.SynPass5)
		}
		fmt.Fprintln(s.out)
		return nil
	}},
}

// runTrace prints the on/off rows and fails if tracing moved a byte.
func runTrace(s *session) error {
	m, prompts := s.runner.ServingFixture()
	rows, texts, err := experiments.TraceBench(m, prompts, experiments.TraceRepeats)
	if err != nil {
		return err
	}
	s.doc.Trace = rows
	for _, row := range rows {
		fmt.Fprintf(s.out, "  tracing=%-3s requests=%3d  repeats=%d  best=%8.2fms  tok/s=%8.1f  spans=%5d  dropped=%d\n",
			row.Tracing, row.Requests, row.Repeats, row.BestWallMS, row.TokensPerSec, row.Spans, row.Dropped)
	}
	identical := slices.Equal(texts[0], texts[1])
	fmt.Fprintf(s.out, "  byte-identity: %d generations, identical=%v\n\n", len(texts[0]), identical)
	if !identical {
		return errors.New("tracing changed generated bytes")
	}
	return nil
}

// experimentNames lists the table's names in table order.
func experimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// resolve maps an -exp value (one name, a comma-separated list, or
// "all") to the experiments to run, in table order.
func resolve(spec string) ([]experiment, error) {
	names := experimentNames()
	wanted := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(names, ", "))
		}
		wanted[name] = true
	}
	var selected []experiment
	for _, e := range experimentTable {
		if wanted["all"] || wanted[e.name] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

// parseTemps reads -temps: comma-separated finite temperatures >= 0.
func parseTemps(list string) ([]float64, error) {
	var out []float64
	for _, field := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || !(v >= 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-temps: %q is not a temperature", field)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSizes reads -sizes: data-size numerators over 4, increasing
// (Table I trains each size incrementally on top of the previous one).
func parseSizes(list string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || v < 1 || v > 4 || (len(out) > 0 && v <= out[len(out)-1]) {
			return nil, fmt.Errorf("-sizes: %q is not a numerator over 4 in increasing order", field)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code (2 for bad input, detected before any corpus is built).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evalbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiments to run, comma-separated: "+strings.Join(experimentNames(), ", ")+" or all")
	quick := fs.Bool("quick", false, "scaled-down setup (fast smoke run)")
	items := fs.Int("items", 0, "override corpus item count")
	samples := fs.Int("samples", 0, "override samples per prompt per temperature")
	seed := fs.Int64("seed", 1, "corpus and sampling seed")
	temps := fs.String("temps", "", "override temperatures, comma-separated (e.g. 0.2,0.6)")
	sizes := fs.String("sizes", "", "override data-size numerators over 4 (e.g. 2,4)")
	speedPrompts := fs.Int("speedprompts", 0, "override Table II prompt count")
	jsonOut := fs.String("json", "", "write the matrix/tree/grammar/sim/load/sweep/trace rows that ran as one JSON document to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

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
	if *speedPrompts > 0 {
		setup.SpeedPrompts = *speedPrompts
	}
	selected, err := resolve(*exp)
	if err == nil && *temps != "" {
		setup.Temps, err = parseTemps(*temps)
	}
	if err == nil && *sizes != "" {
		setup.SizeNumerators, err = parseSizes(*sizes)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	t0 := time.Now()
	fmt.Fprintf(stdout, "# building corpus (%d items) and tokenizers...\n", setup.CorpusItems)
	runner := experiments.NewRunner(setup)
	fmt.Fprintf(stdout, "# corpus ready in %v: %s\n\n", time.Since(t0).Round(time.Millisecond), runner.Stats())

	s := &session{
		runner: runner, setup: setup, out: stdout,
		table1: sync.OnceValue(runner.RunTable1),
		matrix: sync.OnceValue(runner.RunStrategyMatrix),
	}
	for _, e := range selected {
		fmt.Fprintf(stdout, "## %s\n", e.title)
		if err := e.run(s); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "# total %v\n", time.Since(t0).Round(time.Second))

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(s.doc, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "marshal %s: %v\n", *jsonOut, err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "write %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Fprintf(stdout, "# wrote %s\n", *jsonOut)
	}
	return 0
}

// printLoadSweep renders the measured decode profiles, then the rows
// grouped per load point with the adaptive row last in each group.
func printLoadSweep(w io.Writer, rows []experiments.LoadSweepRow, profiles []*experiments.SweepProfile) {
	fmt.Fprintf(w, "  %-14s %9s %11s %8s %11s\n", "profile", "tok/step", "slots/step", "ms/tok", "nodes/step")
	for _, p := range profiles {
		fmt.Fprintf(w, "  %-14s %9.2f %11.2f %8.2f %11.2f\n",
			p.Name(), p.TokPerStep, p.SlotsPerStep, p.MSPerTok, p.NodesPerStep)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-5s %-14s %8s %8s %8s %9s %10s %11s %7s\n",
		"load", "config", "rps", "p50 ms", "p95 ms", "accepted", "decisions", "downgrades", "level")
	lastFrac := -1.0
	for _, r := range rows {
		if r.LoadFrac != lastFrac {
			fmt.Fprintln(w, "  "+strings.Repeat("-", 88))
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
		fmt.Fprintf(w, "  %-5.2f %-14s %8.2f %8.1f %8.1f %9.2f %10s %11s %7s\n",
			r.LoadFrac, r.Config, r.ThroughputRPS, r.P50MS, r.P95MS, r.MeanAccepted,
			extra[0], extra[1], extra[2])
	}
	fmt.Fprintln(w)
}

// printMatrix renders strategy-matrix rows — the whole matrix or the
// Table II view of it.
func printMatrix(w io.Writer, rows []experiments.StrategyRow) {
	fmt.Fprintf(w, "%-14s %-8s %-18s %14s %8s %9s %12s %11s %6s %12s %10s\n",
		"model", "scheme", "strategy", "speed (tok/s)", "speedup", "accepted", "wall ms/tok",
		"nodes/step", "util", "pruned/step", "gtok/step")
	fmt.Fprintln(w, strings.Repeat("-", 132))
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-8s %-18s %14.2f %8.2f %9.3f %12.4f %11.1f %6.2f %12.2f %10.2f\n",
			r.Model, r.Scheme, r.Strategy, r.TokensPerSec, r.Speedup, r.MeanAccepted, r.WallMSPerToken,
			r.NodesPerStep, r.BudgetUtilization, r.PrunedPerStep, r.GrammarTokensPerStep)
	}
	fmt.Fprintln(w)
}

// printPairs renders a Compare view: each pair's accepted lengths and
// gain, then the lift's own columns.
func printPairs(w io.Writer, rows []experiments.PairRow) {
	fmt.Fprintf(w, "%-14s %-8s %-12s %-18s %9s %9s %6s %10s %12s %11s %6s %12s %10s\n",
		"model", "scheme", "base", "lift", "base acc", "lift acc", "gain", "lift tok/s", "wall ms/tok",
		"nodes/step", "util", "pruned/step", "gtok/step")
	fmt.Fprintln(w, strings.Repeat("-", 150))
	for _, r := range rows {
		l := r.Lift
		fmt.Fprintf(w, "%-14s %-8s %-12s %-18s %9.3f %9.3f %6.3f %10.2f %12.4f %11.1f %6.2f %12.2f %10.2f\n",
			l.Model, l.Scheme, r.Base.Strategy, l.Strategy, r.Base.MeanAccepted, l.MeanAccepted, r.AcceptedGain,
			l.TokensPerSec, l.WallMSPerToken, l.NodesPerStep, l.BudgetUtilization, l.PrunedPerStep, l.GrammarTokensPerStep)
	}
	fmt.Fprintln(w)
}

func printSimBench(w io.Writer, rows []experiments.SimBenchRow) {
	fmt.Fprintf(w, "%-14s %-8s %-20s %9s %10s %12s %11s %14s\n",
		"model", "scheme", "strategy", "problems", "syntax ok", "syntax rate", "sim passed", "sim-pass rate")
	fmt.Fprintln(w, strings.Repeat("-", 104))
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-8s %-20s %9d %10d %11.1f%% %11d %13.1f%%\n",
			r.Model, r.Scheme, r.Strategy, r.Problems,
			r.SyntaxOK, r.SyntaxRate, r.SimPassed, r.SimPassRate)
	}
	fmt.Fprintln(w)
}

func printTable1(w io.Writer, cells []experiments.QualityCell) {
	fmt.Fprintf(w, "%-14s %-8s %-7s %-7s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"model", "size", "bench", "method",
		"f@1", "f@5", "f@10", "fRate", "s@1", "s@5", "s@10", "sRate")
	fmt.Fprintln(w, strings.Repeat("-", 118))
	for _, c := range cells {
		fmt.Fprintf(w, "%-14s %-8s %-7s %-7s | %7.2f %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f %7.2f\n",
			c.Model, experiments.SizeLabel(c.DataSize), c.Benchmark, c.Method,
			c.FuncPass1, c.FuncPass5, c.FuncPass10, c.FuncRate,
			c.SynPass1, c.SynPass5, c.SynPass10, c.SynRate)
	}
	fmt.Fprintln(w)
}
