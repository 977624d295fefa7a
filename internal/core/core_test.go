package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/spec"
	"repro/internal/core/spec/tree"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/verilog"
)

var trainExamples = []model.Example{
	{
		Prompt: "Create a 4-bit data register with clock clk.",
		Code: `module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule
`,
	},
	{
		Prompt: "Create an 8-bit counter with synchronous reset.",
		Code: `module counter (
    input clk,
    input rst,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + 8'd1;
    end
endmodule
`,
	},
	{
		Prompt: "Create a 2-to-1 multiplexer.",
		Code: `module mux2to1 (
    input a,
    input b,
    input sel,
    output y
);
    assign y = sel ? b : a;
endmodule
`,
	},
}

func corpusText() []string {
	var out []string
	for _, ex := range trainExamples {
		out = append(out, model.FormatPrompt(ex.Prompt)+ex.Code)
	}
	return out
}

func smallCfg() model.Config {
	cfg := model.CodeLlamaSim()
	cfg.VocabSize = 500
	return cfg
}

func trained(t testing.TB, scheme model.Scheme) *model.Model {
	t.Helper()
	tk := tokenizer.Train(corpusText(), 500)
	return model.Train(tk, smallCfg(), scheme, trainExamples)
}

func TestNTPOneTokenPerStep(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	res := d.Generate(trainExamples[0].Prompt, Options{Strategy: "ntp"})
	if res.Steps != len(res.Tokens) && res.Steps != len(res.Tokens)+1 {
		// +1 allows the final step that produced only <eos>.
		t.Fatalf("NTP steps=%d tokens=%d", res.Steps, len(res.Tokens))
	}
	for _, n := range res.AcceptedPerStep {
		if n != 1 {
			t.Fatalf("NTP accepted %d tokens in one step", n)
		}
	}
}

func TestGreedyReproducesMemorizedExample(t *testing.T) {
	// A model trained to saturation on one mapping should reproduce it
	// greedily — the sanity floor for all three schemes.
	for _, scheme := range []model.Scheme{model.SchemeNTP, model.SchemeMedusa, model.SchemeOurs} {
		m := trained(t, scheme)
		d := NewDecoder(m)
		res := d.Generate(trainExamples[0].Prompt, Options{Strategy: scheme.String()})
		if !strings.Contains(res.Text, "module data_register") {
			t.Errorf("%v: output does not start the right module:\n%s", scheme, res.Text)
		}
		if err := verilog.Check(res.Text); err != nil {
			t.Errorf("%v: greedy output does not parse: %v\n%s", scheme, err, res.Text)
		}
	}
}

func TestSpeculativeFewerSteps(t *testing.T) {
	ntp := NewDecoder(trained(t, model.SchemeNTP))
	ours := NewDecoder(trained(t, model.SchemeOurs))
	medusa := NewDecoder(trained(t, model.SchemeMedusa))

	prompt := trainExamples[1].Prompt
	rNTP := ntp.Generate(prompt, Options{Strategy: "ntp"})
	rOurs := ours.Generate(prompt, Options{Strategy: "ours"})
	rMedusa := medusa.Generate(prompt, Options{Strategy: "medusa"})

	if rOurs.Steps >= rNTP.Steps {
		t.Fatalf("Ours should need fewer steps: ours=%d ntp=%d", rOurs.Steps, rNTP.Steps)
	}
	if rMedusa.Steps >= rNTP.Steps {
		t.Fatalf("Medusa should need fewer steps: medusa=%d ntp=%d", rMedusa.Steps, rNTP.Steps)
	}
	if rOurs.MeanAccepted() <= 1.0 {
		t.Fatalf("Ours mean accepted = %f, want > 1", rOurs.MeanAccepted())
	}
}

func TestSpeculativeModesBeatNTPSpeed(t *testing.T) {
	// Both speculative modes must beat conventional decoding on the
	// simulated-latency speed metric. On a tiny memorized corpus all
	// heads are perfect, so only the NTP floor is asserted here. The
	// paper's Table II ordering (Ours > Medusa > NTP) is not asserted
	// anywhere today: internal/experiments checks that each speculative
	// speedup exceeds 1.5 on the corpus, and ROADMAP item 1 tracks
	// reproducing the ordering.
	ntp := NewDecoder(trained(t, model.SchemeNTP))
	ours := NewDecoder(trained(t, model.SchemeOurs))
	medusa := NewDecoder(trained(t, model.SchemeMedusa))

	speed := func(d *Decoder, strategy string) float64 {
		total, ms := 0, 0.0
		for _, ex := range trainExamples {
			r := d.Generate(ex.Prompt, Options{Strategy: strategy})
			total += len(r.CleanTokens)
			ms += r.SimulatedMS
		}
		return float64(total) / (ms / 1000)
	}
	sNTP := speed(ntp, "ntp")
	sMedusa := speed(medusa, "medusa")
	sOurs := speed(ours, "ours")
	if sOurs <= sNTP {
		t.Fatalf("Ours not faster than NTP: %.1f vs %.1f tok/s", sOurs, sNTP)
	}
	if sMedusa <= sNTP {
		t.Fatalf("Medusa not faster than NTP: %.1f vs %.1f tok/s", sMedusa, sNTP)
	}
}

func TestIntegrityKeepsFragmentsComplete(t *testing.T) {
	// Under "ours" every step's emission either ends at a [FRAG] marker
	// or is the single lossless base token.
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	res := d.Generate(trainExamples[2].Prompt, Options{Strategy: "ours"})
	pos := 0
	for _, n := range res.AcceptedPerStep {
		if n > 1 {
			endIdx := pos + n - 1
			if endIdx < len(res.Tokens) && res.Tokens[endIdx] != tokenizer.FragID {
				// The final step may have been cut by <eos>; allow it.
				if endIdx != len(res.Tokens)-1 {
					t.Fatalf("multi-token step does not end on FRAG at %d", endIdx)
				}
			}
		}
		pos += n
	}
}

func TestDeterminism(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	opts := Options{Strategy: "ours", Temperature: 0.8, Seed: 42}
	a := d.Generate(trainExamples[0].Prompt, opts)
	b := d.Generate(trainExamples[0].Prompt, opts)
	if a.Text != b.Text || a.Steps != b.Steps {
		t.Fatal("same seed produced different generations")
	}
	c := d.Generate(trainExamples[0].Prompt, Options{Strategy: "ours", Temperature: 0.8, Seed: 43})
	_ = c // different seed may or may not differ; just ensure no panic
}

func TestMaxNewTokensRespected(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	res := d.Generate(trainExamples[0].Prompt, Options{Strategy: "ours", MaxNewTokens: 7})
	if len(res.Tokens) > 7 {
		t.Fatalf("generated %d tokens, cap 7", len(res.Tokens))
	}
}

func TestCleanTokensHaveNoSpecials(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	res := d.Generate(trainExamples[1].Prompt, Options{Strategy: "ours"})
	for _, id := range res.CleanTokens {
		if tokenizer.IsSpecial(id) {
			t.Fatalf("special token %d in CleanTokens", id)
		}
	}
	if strings.Contains(res.Text, "[FRAG]") {
		t.Fatal("FRAG marker leaked into text")
	}
}

// TestAblationDisableIntegrity: the paper's "without integrity"
// ablation is the medusa pairing decoded on the Ours-trained model —
// ours' drafter and verifier without the [FRAG] check.
func TestAblationDisableIntegrity(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	with := d.Generate(trainExamples[0].Prompt, Options{Strategy: "ours"})
	without := d.Generate(trainExamples[0].Prompt, Options{Strategy: "medusa"})
	if without.TruncatedTokens != 0 {
		t.Fatalf("integrity disabled but truncated %d tokens", without.TruncatedTokens)
	}
	if with.Steps > without.Steps+5 {
		t.Fatalf("integrity check should not slow decoding drastically: %d vs %d", with.Steps, without.Steps)
	}
}

func TestStepCostModel(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	cfg := m.Config()
	wantNTP := cfg.StepLatencyMS
	wantSpec := cfg.StepLatencyMS + float64(m.NumHeads())*cfg.HeadLatencyMS
	// Drafters that consume heads pay every head's cost; ntp and the
	// self-speculative lookups (linear or tree) pay the backbone only.
	for name, want := range map[string]float64{
		"ntp": wantNTP, "prompt-lookup": wantNTP, "lookup-tree": wantNTP, "grammar-lookup-tree": wantNTP,
		"medusa": wantSpec, "ours": wantSpec, "medusa-tree": wantSpec, "ours-tree": wantSpec, "grammar-tree": wantSpec,
	} {
		s, err := ResolveStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.stepCostMS(s); got != want {
			t.Errorf("%s step cost = %f, want %f", name, got, want)
		}
	}
}

// fixedDrafter is a test-local Drafter proposing one fixed draft.
type fixedDrafter struct{ draft spec.Draft }

func (fixedDrafter) Name() string                          { return "fixed" }
func (fixedDrafter) NeedsHeads() bool                      { return false }
func (f fixedDrafter) Draft(spec.DraftCtx, int) spec.Draft { return f.draft }

// TestAcceptDraftShapes pins the two rules of the one walk: without a
// tree the chain is walked from the root and kept whole, and a tree
// with no draft nodes proposes nothing even when a chain is present.
func TestAcceptDraftShapes(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	opts := Options{}.withDefaults(m)
	seq := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[0].Prompt)
	gen := m.NewGen(seq)
	// The greedy continuation after the base token: greedy-exact
	// screening accepts every token of it.
	ctx := append([]int(nil), seq...)
	var greedy []int
	for range 4 {
		id := gen.BaseDistMemo(ctx, new(model.Memo)).Argmax()
		greedy = append(greedy, id)
		ctx = append(ctx, id)
	}
	base, run := greedy[:1], greedy[1:]
	chain := spec.Chain{Run: run}
	for _, c := range []struct {
		name string
		tree *tree.Tree
		want []int
	}{
		{"no tree walks the chain from the root", nil, greedy},
		{"empty tree drafts nothing", tree.New(opts.TreeBudget), base},
	} {
		strat := spec.Strategy{Name: "fixed", Drafter: fixedDrafter{spec.Draft{Tree: c.tree, Chain: chain}}, Verifier: spec.GreedyExact{}}
		got, nodes, _ := d.accept(gen, new(model.Memo), nil, seq, append([]int(nil), base...), model.Forward{}, strat, opts, nil)
		if !slices.Equal(got, c.want) || nodes != 0 {
			t.Errorf("%s: accepted %v with %d nodes, want %v with 0", c.name, got, nodes, c.want)
		}
	}
}

func TestNoRepeatGuardBreaksCycles(t *testing.T) {
	// Even at temperature 0 the decoder must not emit unbounded exact
	// line cycles (the canonical n-gram degeneracy): every generation
	// over the training prompts terminates within the token budget
	// with far fewer tokens than the cap.
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	for i, ex := range trainExamples {
		res := d.Generate(ex.Prompt, Options{Strategy: "ours", MaxNewTokens: 600, Seed: int64(i)})
		if len(res.Tokens) >= 600 {
			t.Fatalf("prompt %d: generation hit the cap (%d tokens) — repetition guard failed", i, len(res.Tokens))
		}
	}
}

// TestGenerateCtxCancelledBeforeStart: a decode begun on a context
// already cancelled does no work and returns the empty Result with the
// context's error.
func TestGenerateCtxCancelledBeforeStart(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runDecode(ctx, d, promptIDs(m, 0), Options{Strategy: "ours"}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res == nil || len(res.Tokens) != 0 || res.Steps != 0 {
		t.Fatalf("pre-cancelled decode produced work: %+v", res)
	}
}

// TestGenerateCtxCancelMidDecodeReturnsPartial: a context cancelled
// from the onStep observer ends the decode at the next Step with the
// partial Result intact.
func TestGenerateCtxCancelMidDecodeReturnsPartial(t *testing.T) {
	m := trained(t, model.SchemeNTP) // one token per step: many steps
	d := NewDecoder(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	res, err := runDecode(ctx, d, promptIDs(m, 0), Options{Strategy: "ntp"}, func(StepEvent) {
		steps++
		if steps == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Cancellation is polled once per forward pass: exactly the three
	// completed steps survive, and the partial result is coherent.
	if res.Steps != 3 {
		t.Fatalf("steps=%d, want 3", res.Steps)
	}
	if len(res.Tokens) == 0 || res.Text == "" {
		t.Fatal("partial result empty")
	}
	if res.Text != m.Tokenizer().DecodeClean(res.Tokens) {
		t.Fatal("partial result text inconsistent with tokens")
	}
}

// TestGenerateStreamEventsMatchResult: the onStep events of a decode
// reassemble its Result, one event per step.
func TestGenerateStreamEventsMatchResult(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	var events []StepEvent
	res, err := runDecode(context.Background(), d, promptIDs(m, 1), Options{Strategy: "ours"},
		func(ev StepEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Steps {
		t.Fatalf("events=%d, steps=%d", len(events), res.Steps)
	}
	var tokens []int
	var text strings.Builder
	for i, ev := range events {
		if ev.Step != i+1 {
			t.Fatalf("event %d has step %d", i, ev.Step)
		}
		tokens = append(tokens, ev.Tokens...)
		text.WriteString(ev.Text)
	}
	if len(tokens) != len(res.Tokens) {
		t.Fatalf("streamed %d tokens, result has %d", len(tokens), len(res.Tokens))
	}
	if text.String() != res.Text {
		t.Fatal("streamed text does not reassemble result text")
	}
}

// TestGenerateCtxBackgroundMatchesGenerate: a decode on a live,
// cancellable context with an observer attached produces the bytes
// Generate does.
func TestGenerateCtxBackgroundMatchesGenerate(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	opts := Options{Strategy: "ours", Temperature: 0.5, Seed: 11}
	plain := d.Generate(trainExamples[2].Prompt, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := runDecode(ctx, d, promptIDs(m, 2), opts, func(StepEvent) {})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Text != ctxed.Text || plain.Steps != ctxed.Steps || !slices.Equal(plain.Tokens, ctxed.Tokens) {
		t.Fatal("a decode with a context and an observer diverges from Generate")
	}
}

func TestPromptLookupGreedyLossless(t *testing.T) {
	// Greedy-exact verification makes PromptLookup lossless at
	// temperature 0: the emitted token sequence is exactly the NTP
	// greedy sequence, in fewer forward passes — so simulated tokens/s
	// rises with pass rate untouched.
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	sawSpeedup := false
	for _, ex := range trainExamples {
		ntp := d.Generate(ex.Prompt, Options{Strategy: "ntp"})
		pl := d.Generate(ex.Prompt, Options{Strategy: "prompt-lookup"})
		if pl.Text != ntp.Text {
			t.Fatalf("prompt-lookup diverged from greedy NTP\n  pl: %q\n ntp: %q", pl.Text, ntp.Text)
		}
		if pl.Steps > ntp.Steps {
			t.Fatalf("prompt-lookup used more steps than NTP: %d vs %d", pl.Steps, ntp.Steps)
		}
		if pl.SimulatedMS > ntp.SimulatedMS {
			t.Fatalf("prompt-lookup simulated slower than NTP: %v vs %v ms", pl.SimulatedMS, ntp.SimulatedMS)
		}
		if pl.Steps < ntp.Steps {
			sawSpeedup = true
		}
	}
	if !sawSpeedup {
		t.Fatal("prompt-lookup never accepted a draft on template-heavy RTL")
	}
}

func TestStrategySpellingsDecodeIdentically(t *testing.T) {
	// The paper's three methods decode the same bytes however their
	// strategy is spelled: canonical name, display name (what a scheme
	// prints as) and, on the model trained for it, the empty default.
	for _, c := range []struct {
		scheme    model.Scheme
		spellings []string
	}{
		{model.SchemeNTP, []string{"ntp", "NTP", ""}},
		{model.SchemeMedusa, []string{"medusa", "Medusa", ""}},
		{model.SchemeOurs, []string{"ours", "Ours", ""}},
	} {
		m := trained(t, c.scheme)
		d := NewDecoder(m)
		for _, temp := range []float64{0, 0.8} {
			want := d.Generate(trainExamples[1].Prompt, Options{Strategy: c.spellings[0], Temperature: temp, Seed: 9})
			for _, sp := range c.spellings[1:] {
				got := d.Generate(trainExamples[1].Prompt, Options{Strategy: sp, Temperature: temp, Seed: 9})
				if got.Text != want.Text || got.Steps != want.Steps {
					t.Fatalf("strategy %q diverges from %q at temp %g", sp, c.spellings[0], temp)
				}
			}
		}
	}
}

func TestUnknownStrategyErrors(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	st, err := d.BeginDecode(context.Background(), promptIDs(m, 0), Options{Strategy: "warp"}, nil)
	if err == nil || st != nil {
		t.Fatalf("unknown strategy accepted: %v, %v", st, err)
	}
	// The error-less convenience API must fail loudly, not return an
	// empty Result that poisons downstream math.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Generate with unknown strategy did not panic")
			}
		}()
		d.Generate(trainExamples[0].Prompt, Options{Strategy: "warp"})
	}()
	if got := (Options{Strategy: "prompt-lookup"}).StrategyLabel(); got != "PromptLookup" {
		t.Fatalf("StrategyLabel = %q", got)
	}
	// An empty strategy names no method until a model resolves it.
	if got := (Options{}).StrategyLabel(); got != "" {
		t.Fatalf("empty StrategyLabel = %q", got)
	}
}

func TestOptionsCanonical(t *testing.T) {
	// Every spelling of one strategy collapses onto one value…
	spellings := []Options{
		{Strategy: "prompt-lookup", Seed: 3},
		{Strategy: "PromptLookup", Seed: 3},
		{Strategy: "PROMPT-LOOKUP", Seed: 3},
	}
	want := spellings[0].Canonical()
	for i, o := range spellings {
		if got := o.Canonical(); got != want {
			t.Errorf("spelling %d canonicalized to %+v, want %+v", i, got, want)
		}
	}
	// …and the empty spelling resolves to the model's own method: the
	// one it was trained for, the mask ablation decoding as Ours.
	for scheme, own := range map[model.Scheme]string{
		model.SchemeNTP:        "NTP",
		model.SchemeMedusa:     "Medusa",
		model.SchemeOurs:       "Ours",
		model.SchemeOursNoMask: "Ours",
	} {
		m := model.Train(tokenizer.Train(corpusText(), 300), smallCfg(), scheme, nil)
		if got := (Options{}).ForModel(m).Canonical().Strategy; got != own {
			t.Errorf("%v model: empty strategy resolves to %q, want %q", scheme, got, own)
		}
		if got := (Options{Strategy: "prompt-lookup"}).ForModel(m).Strategy; got != "prompt-lookup" {
			t.Errorf("%v model: named strategy rewritten to %q", scheme, got)
		}
	}
	// Spelled-out defaults and knobs the strategy ignores fold onto the
	// unset spelling; knobs that change the decode do not.
	for _, c := range []struct {
		a, b Options
		same bool
	}{
		{Options{Strategy: "ours"}, Options{Strategy: "ours", TopK: 3}, true},
		{Options{Strategy: "ours"}, Options{Strategy: "ours", Epsilon: 0.3, Delta: 1.2}, true},
		{Options{Strategy: "ours"}, Options{Strategy: "ours", TopK: 4}, false},
		{Options{Strategy: "ours"}, Options{Strategy: "medusa"}, false}, // the integrity ablation
		{Options{Strategy: "ours"}, Options{Strategy: "ours", TreeBudget: 5}, true},
		{Options{Strategy: "ours-tree"}, Options{Strategy: "ours-tree", TreeBudget: spec.DefaultTreeBudget}, true},
		{Options{Strategy: "ours-tree"}, Options{Strategy: "ours-tree", TreeBudget: 5}, false},
	} {
		if got := c.a.Canonical() == c.b.Canonical(); got != c.same {
			t.Errorf("%+v and %+v canonically equal = %v, want %v", c.a, c.b, got, c.same)
		}
	}
	// Canonicalization never changes the decode.
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	opts := Options{Strategy: "ours", Temperature: 0.6, Seed: 4}
	a := d.Generate(trainExamples[0].Prompt, opts)
	b := d.Generate(trainExamples[0].Prompt, opts.Canonical())
	if a.Text != b.Text || a.Steps != b.Steps {
		t.Error("canonical options decode differently")
	}
	opts.Strategy = ""
	if c := d.Generate(trainExamples[0].Prompt, opts); c.Text != a.Text || c.Steps != a.Steps {
		t.Error("the empty strategy decodes differently from the model's own")
	}
	// Unknown names pass through for decode-time failure.
	if got := (Options{Strategy: "warp"}).Canonical().Strategy; got != "warp" {
		t.Errorf("unknown strategy rewritten to %q", got)
	}
}

func TestSessionCacheDoesNotChangeOutputs(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	plain := NewDecoder(m)
	cache := model.NewTrieCache(0)
	cached := NewDecoder(m).WithSessionCache(cache)
	for i, ex := range trainExamples {
		opts := Options{Strategy: "ours", Temperature: 0.6, Seed: int64(i)}
		a := plain.Generate(ex.Prompt, opts)
		b := cached.Generate(ex.Prompt, opts)
		c := cached.Generate(ex.Prompt, opts) // second decode hits the cache
		if a.Text != b.Text || a.Text != c.Text {
			t.Fatalf("prompt %d: cached session changed the decode", i)
		}
	}
	if st := cache.SessionStats(); st.Hits < uint64(len(trainExamples)) {
		t.Fatalf("session cache %+v, want >= %d exact hits", st, len(trainExamples))
	}
}

func TestConcurrentDecodesShareModel(t *testing.T) {
	// The serving layer's premise: a frozen model decodes concurrently
	// without coordination, and scheduling cannot change outputs.
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	want := make([]string, len(trainExamples))
	for i, ex := range trainExamples {
		want[i] = d.Generate(ex.Prompt, Options{Strategy: "ours", Temperature: 0.4, Seed: int64(i)}).Text
	}
	var wg sync.WaitGroup
	got := make([]string, len(trainExamples)*8)
	for r := 0; r < 8; r++ {
		for i, ex := range trainExamples {
			wg.Add(1)
			go func(slot, i int, prompt string) {
				defer wg.Done()
				got[slot] = d.Generate(prompt, Options{Strategy: "ours", Temperature: 0.4, Seed: int64(i)}).Text
			}(r*len(trainExamples)+i, i, ex.Prompt)
		}
	}
	wg.Wait()
	for r := 0; r < 8; r++ {
		for i := range trainExamples {
			if got[r*len(trainExamples)+i] != want[i] {
				t.Fatalf("concurrent decode diverged (round %d, example %d)", r, i)
			}
		}
	}
}
