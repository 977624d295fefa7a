package model_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// vgendCorpus is what vgend trains its model on at its default flags:
// the corpus and CodeLlama-sim's tokenizer.
var vgendCorpus = sync.OnceValues(func() (*tokenizer.Tokenizer, []model.Example) {
	examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: 3400})
	return model.TrainTokenizer(model.CodeLlamaSim(), examples), examples
})

// BenchmarkTrain is one training of the model vgend serves at its
// default flags (CodeLlama-sim, Ours) on vgend's corpus: the bulk of
// vgend's start-up.
func BenchmarkTrain(b *testing.B) {
	tk, examples := vgendCorpus()
	b.ReportAllocs()
	for b.Loop() {
		model.Train(tk, model.CodeLlamaSim(), model.SchemeOurs, examples)
	}
}

// decode trains the model vgend serves at its default flags and returns
// a session plus a decode of the first bench prompt: the prompt and 100
// greedy tokens.
var decode = sync.OnceValues(func() (*model.Gen, []int) {
	tk, examples := vgendCorpus()
	m := model.Train(tk, model.CodeLlamaSim(), model.SchemeOurs, examples)
	prompt := model.CanonicalPromptIDs(m.Tokenizer(), bench.All()[0].Prompt)
	g := m.NewGen(prompt)
	seq := append([]int(nil), prompt...)
	for len(seq) < len(prompt)+100 {
		next := g.BaseDistMemo(seq, new(model.Memo)).Argmax()
		if next == tokenizer.EosID {
			break
		}
		seq = append(seq, next)
	}
	return g, seq
})

// positions returns every decode position's context, prompt excluded,
// so a benchmark op costs what an average decoding step does.
func positions(g *model.Gen, seq []int) [][]int {
	var out [][]int
	for n := g.PromptLen() + 1; n <= len(seq); n++ {
		out = append(out, seq[:n])
	}
	return out
}

// BenchmarkForward is one full forward pass on a fresh memo (the base
// plus every head built to its top 3), the per-step model cost of a
// head-drafting strategy that reads every head, from scratch.
func BenchmarkForward(b *testing.B) {
	g, seq := decode()
	ctxs := positions(g, seq)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		g.Forward(ctxs[i%len(ctxs)])
	}
}

// BenchmarkForwardMemo is the same full pass through a decode's memo:
// each op starts a step at its position, takes the pass and reads every
// head's top 3, so the heads build into the memo's storage and the
// keyword factors are the memo's steady state.
func BenchmarkForwardMemo(b *testing.B) {
	g, seq := decode()
	ctxs := positions(g, seq)
	mm := new(model.Memo)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		ctx := ctxs[i%len(ctxs)]
		mm.NextStep(ctx)
		fw := g.ForwardMemo(ctx, mm)
		for h := range fw.NumHeads() {
			fw.Cands(h, 3)
		}
	}
}

// BenchmarkPredict is one n-gram prediction over a decode position's
// context view, by table: the base table, the keyword table under one
// keyword, and the heads in turn.
func BenchmarkPredict(b *testing.B) {
	g, seq := decode()
	var views [][]int
	for _, ctx := range positions(g, seq) {
		views = append(views, g.View(ctx))
	}
	for _, kind := range []string{"base", "kw", "head"} {
		b.Run(kind, func(b *testing.B) {
			predict := g.Predictor(kind)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				predict(views[i%len(views)])
			}
		})
	}
}

// BenchmarkKwFactors is one keyword-run miss of the keyword expert at a
// decode position: the decode's keywords already resolved, the view's
// run built from them, the per-keyword walks and the max over keywords.
// A memo miss of the base posterior pays it for every keyword context
// its decode has not yet seen.
func BenchmarkKwFactors(b *testing.B) {
	g, seq := decode()
	var views [][]int
	for _, ctx := range positions(g, seq) {
		views = append(views, g.View(ctx))
	}
	miss := g.KwMiss()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		miss(views[i%len(views)])
	}
}

// BenchmarkBaseDistMemo is one base-model posterior, the per-position
// cost of verification and of NTP decoding. On "hit" the memo has seen
// every keyword context of the decode (posteriors are not reused: the
// step boundary lies past every context), the steady state of a
// decode; on "miss" every op starts a fresh memo, the cost from
// scratch.
func BenchmarkBaseDistMemo(b *testing.B) {
	g, seq := decode()
	ctxs := positions(g, seq)
	b.Run("hit", func(b *testing.B) {
		mm := new(model.Memo)
		for _, ctx := range ctxs {
			g.BaseDistMemo(ctx, mm)
		}
		mm.NextStep(append(slices.Clone(seq), tokenizer.EosID))
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			g.BaseDistMemo(ctxs[i%len(ctxs)], mm)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			g.BaseDistMemo(ctxs[i%len(ctxs)], new(model.Memo))
		}
	})
}

// BenchmarkSample is one temperature sample from a decode position's
// base posterior: T = 0.5, where each tempered weight is a square, and
// T = 0.4, where it is math.Pow(p, 2.5).
func BenchmarkSample(b *testing.B) {
	g, seq := decode()
	var posts []model.Dist
	for _, ctx := range positions(g, seq) {
		posts = append(posts, g.BaseDistMemo(ctx, new(model.Memo)))
	}
	for _, temp := range []float64{0.5, 0.4} {
		b.Run(fmt.Sprintf("T=%g", temp), func(b *testing.B) {
			var w []float64
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				posts[i%len(posts)].Sample(temp, float64(i%997)/997, &w)
			}
		})
	}
}

// BenchmarkFindInduction is one induction match of a decode position's
// suffix against the prompt, the search every base posterior starts
// with.
func BenchmarkFindInduction(b *testing.B) {
	g, seq := decode()
	ctxs := positions(g, seq)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		g.FindInduction(ctxs[i%len(ctxs)])
	}
}
