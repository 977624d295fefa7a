package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core/spec"
	"repro/internal/core/spec/grammar"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// oracleStep is one drafting step of a grammar decode as the oracle saw
// it: the text it was opened over and every extension it classified.
type oracleStep struct {
	base   string
	probes []string
}

// oracleTap wraps a grammar drafter: after each Draft it hands the step
// to see, with the state the drafter advanced.
type oracleTap struct {
	spec.Drafter
	see func(dc spec.DraftCtx, base string)
}

func (w oracleTap) Draft(dc spec.DraftCtx, budget int) spec.Draft {
	d := w.Drafter.Draft(dc, budget)
	w.see(dc, renderBase(dc))
	return d
}

// renderBase is the generated text a drafter's oracle is opened over,
// joined in one piece: every token after the prompt, then the step's
// accepted prefix, specials rendered empty.
func renderBase(dc spec.DraftCtx) string {
	tok := dc.Gen.Tokenizer()
	var sb strings.Builder
	for _, id := range append(slices.Clone(dc.Seq[dc.Gen.PromptLen():]), dc.Prefix...) {
		if !tokenizer.IsSpecial(id) {
			sb.WriteString(tok.Token(id))
		}
	}
	return sb.String()
}

// tapDecode runs one decode of strategy with its drafter tapped.
func tapDecode(t testing.TB, d *Decoder, prompt int, opts Options, see func(spec.DraftCtx, string)) *Result {
	t.Helper()
	st, err := d.BeginDecode(context.Background(), promptIDs(d.m, prompt), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.strat.Drafter = oracleTap{st.strat.Drafter, see}
	for !st.Step() {
	}
	res, _ := st.Finish()
	return res
}

// TestStateMatchesScratch holds the oracle a decode carries across its
// steps to one built from scratch: at every step of every grammar decode
// of the golden matrix's shape (both grammar strategies on their
// schemes, every prompt, T ∈ {0, 0.5}, two seeds), each extension the
// drafter probed classifies as a fresh grammar.Begin over the same text
// classifies it, the constructs are the fresh oracle's, and the decode
// itself is the one Generate gives.
func TestStateMatchesScratch(t *testing.T) {
	steps, probes := 0, 0
	for _, sc := range []struct {
		scheme   model.Scheme
		strategy string
	}{
		{model.SchemeOurs, "grammar-tree"},
		{model.SchemeNTP, "grammar-lookup-tree"},
	} {
		d := NewDecoder(trained(t, sc.scheme))
		for prompt := range trainExamples {
			for _, temp := range []float64{0, 0.5} {
				for _, seed := range []int64{1, 42} {
					opts := Options{Strategy: sc.strategy, Temperature: temp, Seed: seed}
					id := fmt.Sprintf("%s/prompt=%d/temp=%g/seed=%d", sc.strategy, prompt, temp, seed)
					res := tapDecode(t, d, prompt, opts, func(dc spec.DraftCtx, base string) {
						steps++
						carried, fresh := dc.Grammar, grammar.Begin(base)
						var exts []string
						for ext := range carried.Probes() {
							exts = append(exts, ext)
						}
						for _, ext := range exts {
							probes++
							if got, want := carried.Check(ext), fresh.Check(ext); got != want {
								t.Fatalf("%s step %d: carried Check(%q) = %v, fresh %v\nbase: %q", id, steps, ext, got, want, base)
							}
						}
						if got, want := carried.Constructs(), fresh.Constructs(); !slices.Equal(got, want) {
							t.Fatalf("%s step %d: carried Constructs = %q, fresh %q\nbase: %q", id, steps, got, want, base)
						}
					})
					if want := d.Generate(trainExamples[prompt].Prompt, opts); res.Text != want.Text || res.GrammarPruned != want.GrammarPruned {
						t.Fatalf("%s: tapped decode diverged from Generate", id)
					}
				}
			}
		}
	}
	if steps == 0 || probes == 0 {
		t.Fatalf("%d steps, %d probes: the oracle was never consulted", steps, probes)
	}
	t.Logf("%d steps, %d probes", steps, probes)
}

// TestTypicalAcceptanceMatchesEq1 holds the verifier, which computes
// the entropy only when it decides the outcome, to eq. 1 as written:
// the threshold min(ε, δ·exp(−H)) first, then the first candidate above
// it. Every posterior of the fixture decodes is screened, with single
// candidates across its support (the top, the tail, one outside it) and
// with the lists a head would offer, at ε and δ ∈ {default, 0, −1,
// +Inf, NaN}.
func TestTypicalAcceptanceMatchesEq1(t *testing.T) {
	eq1 := func(ver model.Dist, cands []int, p spec.VerifyParams) int {
		threshold := math.Min(p.Epsilon, p.Delta*math.Exp(-ver.Entropy()))
		for _, c := range cands {
			if ver.Prob(c) > threshold {
				return c
			}
		}
		return -1
	}
	values := func(def float64) []float64 { return []float64{def, 0, -1, math.Inf(1), math.NaN()} }
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m)
	outside := func(ver model.Dist) int { // a token the posterior gives no mass
		for id := range m.Config().VocabSize {
			if !tokenizer.IsSpecial(id) && ver.Prob(id) == 0 {
				return id
			}
		}
		return -1
	}
	checked := 0
	for prompt := range trainExamples {
		for _, temp := range []float64{0, 0.8} {
			res := d.Generate(trainExamples[prompt].Prompt, Options{Strategy: "ours", Temperature: temp, Seed: 1})
			ids := promptIDs(m, prompt)
			gen := m.NewGen(ids)
			seq := slices.Clone(ids)
			for _, next := range append(res.Tokens, tokenizer.EosID) {
				ver := gen.Forward(seq).Base
				support, absent := ver.TopK(math.MaxInt32), outside(ver)
				var lists [][]int
				for _, c := range slices.Concat(support[:min(8, len(support))], support[max(0, len(support)-4):], []int{absent, next}) {
					lists = append(lists, []int{c})
				}
				lists = append(lists, ver.TopK(3), append(ver.TopK(2), absent), []int{absent, support[len(support)-1], support[0]})
				for _, eps := range values(0.3) {
					for _, delta := range values(1.2) {
						p := spec.VerifyParams{Epsilon: eps, Delta: delta}
						for _, cands := range lists {
							checked++
							if got, want := (spec.TypicalAcceptance{}).Accept(ver, cands, p), eq1(ver, cands, p); got != want {
								t.Fatalf("ε=%v δ=%v cands %v: Accept = %d, eq. 1 = %d", eps, delta, cands, got, want)
							}
						}
					}
				}
				seq = append(seq, next)
			}
		}
	}
	t.Logf("%d screenings", checked)
}

// BenchmarkGrammarDecode replays one recorded grammar-tree decode's
// oracle work — each step's base text, then every extension the drafter
// probed and the constructs — through one carried grammar.State
// (/state), and through a fresh grammar.Begin per step (/fresh), which
// lexes and parses the whole text again every step.
func BenchmarkGrammarDecode(b *testing.B) {
	d := NewDecoder(trained(b, model.SchemeOurs))
	var rec []oracleStep
	tapDecode(b, d, 1, Options{Strategy: "grammar-tree", Temperature: 0.5, Seed: 1}, func(dc spec.DraftCtx, base string) {
		st := oracleStep{base: base}
		for ext := range dc.Grammar.Probes() {
			st.probes = append(st.probes, ext)
		}
		slices.Sort(st.probes)
		rec = append(rec, st)
	})
	replay := func(b *testing.B, begin func(*grammar.State, string) *grammar.State) {
		b.ReportAllocs()
		for b.Loop() {
			var s grammar.State
			for _, st := range rec {
				o := begin(&s, st.base)
				for _, ext := range st.probes {
					o.Check(ext)
				}
				o.Constructs()
			}
		}
	}
	b.Run("state", func(b *testing.B) {
		replay(b, func(s *grammar.State, base string) *grammar.State { return s.Begin(base) })
	})
	b.Run("fresh", func(b *testing.B) {
		replay(b, func(_ *grammar.State, base string) *grammar.State { return grammar.Begin(base) })
	})
}
