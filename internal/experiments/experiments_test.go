package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// quickSetup is small enough for CI but large enough that the trained
// models behave (the corpus still covers every family).
func quickSetup() Setup {
	s := Quick()
	s.CorpusItems = 900
	s.Samples = 2
	s.Temps = []float64{0.4}
	s.SpeedPrompts = 10
	return s
}

// testRunner is the one Runner the package's tests share, so a test
// binary builds the corpus once and trains each (backbone, scheme) once
// however many gates decode with it; testMatrix is its strategy matrix,
// which the Table II, tree and grammar tests are all views of.
var (
	testRunner = sync.OnceValue(func() *Runner { return NewRunner(quickSetup()) })
	testMatrix = sync.OnceValue(func() []StrategyRow { return testRunner().RunStrategyMatrix() })
)

func TestRunnerBuildsCorpus(t *testing.T) {
	r := testRunner()
	if len(r.examples) == 0 {
		t.Fatal("no examples after refinement")
	}
	if r.Stats().SyntaxClean != len(r.examples) {
		t.Fatalf("stats inconsistent: %+v vs %d", r.Stats(), len(r.examples))
	}
	if r.toks[model.CodeLlamaSim().Name] == nil {
		t.Fatal("tokenizer missing")
	}
}

func TestTable2SpeedOrderingAndCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rows := Table2(testMatrix())
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one model in Quick setup)", len(rows))
	}
	byMethod := map[string]StrategyRow{}
	for i, row := range rows {
		if row.Strategy != Schemes[i].String() || row.Scheme != row.Strategy {
			t.Fatalf("row %d is %s on %s, want the paper's column order %v", i, row.Strategy, row.Scheme, Schemes)
		}
		byMethod[row.Strategy] = row
	}
	// NTP must sit at its calibrated baseline (eq. 3 with the
	// CodeLlama cost model: 1000/12.03 ≈ 83 tok/s).
	ntp := byMethod["NTP"].TokensPerSec
	if ntp < 80 || ntp > 86 {
		t.Fatalf("NTP speed %f outside calibration band", ntp)
	}
	// Both speculative methods must beat NTP (Table II's headline).
	if byMethod["Ours"].Speedup <= 1.5 {
		t.Fatalf("Ours speedup %f, want > 1.5", byMethod["Ours"].Speedup)
	}
	if byMethod["Medusa"].Speedup <= 1.5 {
		t.Fatalf("Medusa speedup %f, want > 1.5", byMethod["Medusa"].Speedup)
	}
}

func TestStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rows := testMatrix()
	if len(rows) != len(StrategyMatrix) {
		t.Fatalf("rows = %d, want %d (one model in Quick setup)", len(rows), len(StrategyMatrix))
	}
	byStrategy := map[string]StrategyRow{}
	for _, row := range rows {
		byStrategy[row.Strategy] = row
	}
	ntp := byStrategy["NTP"]
	if ntp.TokensPerSec < 80 || ntp.TokensPerSec > 86 {
		t.Fatalf("NTP speed %f outside calibration band", ntp.TokensPerSec)
	}
	// The headline of the new axis: self-speculative prompt lookup
	// accelerates the plain NTP backbone — no heads required.
	pl := byStrategy["PromptLookup"]
	if pl.TokensPerSec <= ntp.TokensPerSec {
		t.Fatalf("PromptLookup %f tok/s not faster than NTP %f", pl.TokensPerSec, ntp.TokensPerSec)
	}
	if pl.Speedup <= 1 {
		t.Fatalf("PromptLookup speedup %f, want > 1", pl.Speedup)
	}
	if pl.MeanAccepted <= 1 || ntp.MeanAccepted != 1 {
		t.Fatalf("mean accepted: pl=%f ntp=%f", pl.MeanAccepted, ntp.MeanAccepted)
	}
	if byStrategy["Ours"].Speedup <= 1.5 || byStrategy["Medusa"].Speedup <= 1.5 {
		t.Fatalf("legacy speculative rows regressed: %+v", rows)
	}
	// The honest-accounting column: every row carries a measured
	// wall-clock cost per token alongside its simulated speedup.
	for _, row := range rows {
		if row.WallMSPerToken <= 0 {
			t.Errorf("%s: wall ms/token missing: %+v", row.Strategy, row)
		}
	}
}

// pairsByLift logs a Compare view and indexes it by the lift's name.
func pairsByLift(t *testing.T, pairs []Pair) map[string]PairRow {
	t.Helper()
	rows := Compare(testMatrix(), pairs)
	if len(rows) != len(pairs) {
		t.Fatalf("rows = %d, want %d (one model in Quick setup)", len(rows), len(pairs))
	}
	byLift := map[string]PairRow{}
	for _, row := range rows {
		byLift[row.Lift.Strategy] = row
		t.Logf("%-12s vs %-20s accepted %.3f -> %.3f (gain %.3f)  speed %.1f -> %.1f  nodes/step %.1f  util %.2f  pruned/step %.2f  gtok/step %.2f",
			row.Base.Strategy, row.Lift.Strategy, row.Base.MeanAccepted, row.Lift.MeanAccepted, row.AcceptedGain,
			row.Base.TokensPerSec, row.Lift.TokensPerSec, row.Lift.NodesPerStep, row.Lift.BudgetUtilization,
			row.Lift.PrunedPerStep, row.Lift.GrammarTokensPerStep)
		if row.Lift.MeanAccepted < row.Base.MeanAccepted {
			t.Errorf("%s mean accepted %.4f regressed below %s's %.4f",
				row.Lift.Strategy, row.Lift.MeanAccepted, row.Base.Strategy, row.Base.MeanAccepted)
		}
	}
	return byLift
}

// TestTreeBenchTreeBeatsLinearMedusa pins the tree subsystem's
// acceptance criterion: on the eval suite's prompt schedule,
// tree-structured Medusa drafting achieves strictly higher mean
// accepted length than linear Medusa on the same trained model — and
// the remaining pairs never regress. Decodes are deterministic per
// seed, so this is a stable gate, not a flaky benchmark.
func TestTreeBenchTreeBeatsLinearMedusa(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	byTree := pairsByLift(t, TreePairs)
	if mt := byTree["MedusaTree"]; mt.AcceptedGain <= 1 {
		t.Fatalf("medusa-tree mean accepted %.4f not strictly above linear medusa's %.4f",
			mt.Lift.MeanAccepted, mt.Base.MeanAccepted)
	}
	for name, row := range byTree {
		if row.Lift.NodesPerStep <= 0 {
			t.Errorf("%s proposed no tree nodes", name)
		}
		if row.Lift.BudgetUtilization <= 0 || row.Lift.BudgetUtilization > 1 {
			t.Errorf("%s budget utilization %.4f outside (0, 1]", name, row.Lift.BudgetUtilization)
		}
	}
}

// TestGrammarBenchGrammarBeatsOursTree pins the grammar subsystem's
// acceptance criterion: grammar-constrained tree drafting achieves
// strictly higher mean accepted length than plain ours-tree on the
// same trained model, with the oracle demonstrably engaged (nonzero
// pruning or construct drafting), and the lookup pair never regresses.
func TestGrammarBenchGrammarBeatsOursTree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	byGrammar := pairsByLift(t, GrammarPairs)
	if gt := byGrammar["GrammarTree"]; gt.AcceptedGain <= 1 {
		t.Errorf("grammar-tree mean accepted %.4f not strictly above ours-tree's %.4f",
			gt.Lift.MeanAccepted, gt.Base.MeanAccepted)
	}
	for name, row := range byGrammar {
		if row.Lift.PrunedPerStep <= 0 && row.Lift.GrammarTokensPerStep <= 0 {
			t.Errorf("%s: oracle never engaged (no pruning, no construct tokens)", name)
		}
	}
}

// TestViewsOverTwoModels checks Table2 and Compare on synthetic matrix
// rows of two models: rows come back per model, Table II in the paper's
// column order, pairs in pair order with the right gain.
func TestViewsOverTwoModels(t *testing.T) {
	var rows []StrategyRow
	for mi, name := range []string{"A", "B"} {
		for i, entry := range StrategyMatrix {
			rows = append(rows, StrategyRow{Model: name, Strategy: displayName(entry.Strategy), MeanAccepted: float64((mi + 1) * (i + 1))})
		}
	}
	var got []string
	for _, row := range Table2(rows) {
		got = append(got, row.Model+"/"+row.Strategy)
	}
	if want := "A/Ours A/Medusa A/NTP B/Ours B/Medusa B/NTP"; strings.Join(got, " ") != want {
		t.Errorf("Table2 order = %v, want %s", got, want)
	}
	pairs := Compare(rows, GrammarPairs)
	if len(pairs) != 2*len(GrammarPairs) {
		t.Fatalf("Compare returned %d rows, want %d (every pair per model)", len(pairs), 2*len(GrammarPairs))
	}
	// StrategyMatrix positions: ours-tree 2nd, grammar-tree 3rd;
	// lookup-tree 8th, grammar-lookup-tree 9th — the same gains on both
	// models, since a model's accepted lengths share one factor.
	for i, want := range []struct {
		model, base, lift string
		gain              float64
	}{
		{"A", "OursTree", "GrammarTree", 3.0 / 2}, {"A", "LookupTree", "GrammarLookupTree", 9.0 / 8},
		{"B", "OursTree", "GrammarTree", 3.0 / 2}, {"B", "LookupTree", "GrammarLookupTree", 9.0 / 8},
	} {
		p := pairs[i]
		if p.Base.Model != want.model || p.Lift.Model != want.model || p.Base.Strategy != want.base ||
			p.Lift.Strategy != want.lift || p.AcceptedGain != want.gain {
			t.Errorf("pair %d = %+v, want %+v", i, p, want)
		}
	}
}

// TestPromptLookupPassRateUnchanged pins the quality side of the new
// strategy: greedy prompt-lookup decoding is lossless, so its pass
// rates on the benchmark suites equal greedy NTP's exactly.
func TestPromptLookupPassRateUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	r := testRunner()
	m := r.Model(r.setup.Models[0], model.SchemeNTP)
	suite := bench.All()
	mk := func(strategy string) []serve.Request {
		reqs := make([]serve.Request, len(suite))
		for i := range suite {
			reqs[i] = serve.Request{Prompt: suite[i].Prompt, Options: core.Options{Strategy: strategy}}
		}
		return reqs
	}
	ntp := r.decode(m, mk("ntp"))
	pl := r.decode(m, mk("prompt-lookup"))
	ntpPass, plPass := 0, 0
	for i := range suite {
		if pl[i].Result.Text != ntp[i].Result.Text {
			t.Fatalf("prompt %d: greedy prompt-lookup diverged from NTP", i)
		}
		if bench.CheckSyntax(ntp[i].Result.Text) {
			ntpPass++
		}
		if bench.CheckSyntax(pl[i].Result.Text) {
			plPass++
		}
		if pl[i].Result.SimulatedMS > ntp[i].Result.SimulatedMS {
			t.Fatalf("prompt %d: prompt-lookup simulated slower than NTP", i)
		}
	}
	if ntpPass != plPass {
		t.Fatalf("pass rate changed: ntp=%d pl=%d", ntpPass, plPass)
	}
}

func TestFig5StepOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rows := testRunner().RunFig5()
	steps := map[string]int{}
	for _, row := range rows {
		steps[row.Method] = row.Steps
	}
	// The paper's Fig. 5 ordering: both speculative methods need far
	// fewer decoding steps than NTP.
	if steps["Ours"] >= steps["NTP"] || steps["Medusa"] >= steps["NTP"] {
		t.Fatalf("step ordering violated: %v", steps)
	}
}

func TestTable1SmokeAndFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cells := testRunner().RunTable1()
	// 1 model × 1 size × 3 methods × 2 benchmarks.
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	for _, c := range cells {
		if c.SynPass1 < 0 || c.SynPass1 > 100 || c.FuncPass10 < c.FuncPass1 {
			t.Fatalf("implausible cell: %+v", c)
		}
	}
	slice := Fig6(cells, model.CodeLlamaSim().Name)
	if len(slice) != 6 {
		t.Fatalf("Fig6 slice = %d", len(slice))
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{500: "500", 3400: "3.4K", 34000: "34K", 136000: "136K"}
	for n, want := range cases {
		if got := SizeLabel(n); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
