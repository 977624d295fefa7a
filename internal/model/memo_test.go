package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/tokenizer"
)

// TestMemoByteIdentical decodes the fixture prompts under all three
// schemes and checks, for every prefix of each decode, that the memo's
// answers equal bit for bit the ones a fresh Memo computes from scratch
// for that call alone. One memo serves each decode; its contexts are
// visited in shuffled order and then revisited, with step boundaries
// advancing in between, and then step by step the way the decoding loop
// drives it: a base pass, a chain of verification posteriors beyond
// it, a boundary at an accepted length.
func TestMemoByteIdentical(t *testing.T) {
	// A fourth example shares keywords (8, register, synchronous, reset)
	// with the fixture's, so keywords disagree and the max matters.
	examples := append(slices.Clone(trainExamples), Example{
		Prompt: "Create an 8-bit register with synchronous reset.",
		Code: `module register8 (
    input clk,
    input reset,
    input [7:0] d,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (reset) q <= 8'd0;
        else q <= d;
    end
endmodule
`,
	})
	var corpus []string
	for _, ex := range examples {
		corpus = append(corpus, FormatPrompt(ex.Prompt)+ex.Code)
	}
	tk := tokenizer.Train(corpus, 400)
	for _, scheme := range []Scheme{SchemeNTP, SchemeMedusa, SchemeOurs} {
		m := Train(tk, smallCfg(), scheme, examples)
		kwHits, kwCalls, postHits := 0, 0, 0
		for p, ex := range examples {
			prompt := CanonicalPromptIDs(m.tok, ex.Prompt)
			g := m.NewGen(prompt)
			full := slices.Clone(prompt)
			for len(full) < len(prompt)+150 {
				next := baseDist(g, full).Argmax()
				if next == tokenizer.EosID {
					break
				}
				full = append(full, next)
			}
			ctxs := make([][]int, 0, len(full)-len(prompt)+1)
			for n := len(prompt); n <= len(full); n++ {
				ctxs = append(ctxs, full[:n])
			}
			check := func(mm *Memo, seq []int) {
				t.Helper()
				_, kept := mm.posterior(seq)
				if kept {
					postHits++
				}
				kwCalls++
				view := kwViewOf(g, seq)
				if _, ok := mm.kwIdx[mm.key(view)]; ok {
					kwHits++
				}
				sameForward(t, "BaseDistMemo", Forward{Base: baseDist(g, seq)}, Forward{Base: g.BaseDistMemo(seq, mm)})
				if scheme != SchemeNTP {
					sameForward(t, "ForwardMemo", g.Forward(seq), g.ForwardMemo(seq, mm))
				}
				sameFactors(t, g, mm, view)
				if mm.bytes > memoCap {
					t.Fatalf("memo holds %d bytes, cap %d", mm.bytes, memoCap)
				}
			}

			mm := boundMemo(g)
			rng := rand.New(rand.NewSource(int64(p)))
			order := rng.Perm(len(ctxs))
			for pass := 0; pass < 2; pass++ {
				bound := len(prompt)
				for i, o := range order {
					if i%9 == 0 {
						mm.NextStep(full[:bound])
						bound = min(len(full), bound+1+rng.Intn(8))
					}
					check(mm, ctxs[o])
				}
				mm.NextStep(full[:len(prompt)]) // a shorter boundary drops everything
			}

			mm = boundMemo(g)
			mm.NextStep(full[:len(prompt)])
			for n := len(prompt); n < len(full); {
				check(mm, full[:n])
				walk := min(len(full), n+1+rng.Intn(6))
				for w := n + 1; w <= walk; w++ {
					check(mm, full[:w])
				}
				n = min(walk, n+1+rng.Intn(walk-n))
				mm.NextStep(full[:n])
			}
		}
		t.Logf("%v: %d of %d calls found their keyword factors, %d reused a posterior", scheme, kwHits, kwCalls, postHits)
		if kwHits == 0 || postHits == 0 {
			t.Fatalf("%v: the memo was never used (%d keyword hits, %d posterior hits)", scheme, kwHits, postHits)
		}
	}
}

// boundMemo returns a fresh Memo bound to g, as the first model call on
// it would leave it.
func boundMemo(g *Gen) *Memo {
	mm := new(Memo)
	mm.bind(g)
	return mm
}

// sameFactors fails unless the keyword evidence the memo holds (or
// builds) for view is the definition's: per id, the largest probability
// any of the prompt's keywords gives it, bit for bit. The memo's run
// holds a value for every id of the decode's support, in the order of
// mm.kw.ids: the definition's probability for an id it predicts, 0 for
// the rest, whose factor is then the floor's.
func sameFactors(t *testing.T, g *Gen, mm *Memo, view []int) {
	t.Helper()
	best := map[int32]float64{}
	for _, seed := range g.seeds {
		for _, e := range g.m.kw.predict(new(accum), nil, view, seed) {
			best[e.id] = max(best[e.id], e.v)
		}
	}
	sc := new(scratch)
	fac := g.kwFactors(sc, mm, view)
	if len(best) == 0 {
		if len(fac) != 0 {
			t.Fatalf("keyword evidence: %d values, want none", len(fac))
		}
		return
	}
	ids := mm.kw.ids
	if len(fac) != len(ids) {
		t.Fatalf("keyword evidence: %d values for %d support ids", len(fac), len(ids))
	}
	eta, found := g.m.cfg.PromptBlend, 0
	for i, id := range ids {
		p, ok := best[id]
		if ok {
			found++
		}
		if got, want := sc.factor(&fac[i], eta), math.Pow(kwFloor+p, eta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("keyword factor for id %d: %v, want Pow(kwFloor+%v) = %v", id, got, p, want)
		}
	}
	if found != len(best) {
		t.Fatalf("keyword evidence: %d of %d predicted ids in the support", found, len(best))
	}
}

// kwViewOf is the keyword view baseAt builds for seq.
func kwViewOf(g *Gen, seq []int) []int {
	view := g.clippedView(new(scratch), seq)
	for len(view) > 0 && view[len(view)-1] == tokenizer.FragID {
		view = view[:len(view)-1]
	}
	return view
}

// TestMemoKeyExact pins the keyword key: views that differ only beyond
// the keyword table's reach r share a key and the same factors, views
// that differ within it never share one. r is the top ladder level,
// kwCtx.
func TestMemoKeyExact(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	const reach = kwCtx
	m := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	g := m.NewGen(CanonicalPromptIDs(tk, trainExamples[1].Prompt))
	mm := boundMemo(g)
	if mm.kwReach != reach {
		t.Fatalf("reach %d, want %d", mm.kwReach, reach)
	}
	code := tk.Encode(trainExamples[1].Code)
	tail := code[len(code)-reach:]
	x, y := code[0], code[0]+1 // two different tokens
	for _, tc := range []struct {
		name string
		a, b []int
		same bool
	}{
		{"empty", nil, nil, true},
		{"length 0 vs 1, token 0", nil, []int{0}, false},
		{"length 1", tail[reach-1:], tail[reach-1:], true},
		{"length 1 vs 2", tail[reach-1:], tail[reach-2:], false},
		{"length r", tail, tail, true},
		{"length r-1 vs r", tail[1:], tail, false},
		{"beyond r", append([]int{x}, tail...), append([]int{y}, tail...), true},
		{"much longer", code, tail, true},
		{"within r, oldest", append([]int{x}, tail[1:]...), append([]int{y}, tail[1:]...), false},
		{"within r, newest", append(slices.Clone(tail[1:]), x), append(slices.Clone(tail[1:]), y), false},
	} {
		if got := mm.key(tc.a) == mm.key(tc.b); got != tc.same {
			t.Errorf("%s: same key %v, want %v", tc.name, got, tc.same)
		}
		if !tc.same {
			continue
		}
		// Each side on a memo of its own, so neither reads the other's
		// run.
		fa := g.kwFactors(new(scratch), boundMemo(g), tc.a)
		fb := g.kwFactors(new(scratch), boundMemo(g), tc.b)
		if !slices.Equal(fa, fb) {
			t.Errorf("%s: one key, different factors", tc.name)
		}
	}
}

// TestMemoCap: the memo never holds more than memoCap bytes; at the cap
// the keyword runs start over, and a posterior that would cross it is
// not kept.
func TestMemoCap(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	mm := boundMemo(m.NewGen(CanonicalPromptIDs(tk, trainExamples[0].Prompt)))
	for i := range 7 {
		mm.newRun(mm.key([]int{i}), memoCap/valueBytes/3)
		if mm.bytes > memoCap {
			t.Fatalf("after %d runs the memo holds %d bytes, cap %d", i+1, mm.bytes, memoCap)
		}
	}
	if _, ok := mm.kwIdx[mm.key([]int{6})]; !ok || len(mm.kwIdx) > 3 {
		t.Fatalf("keyword runs after the cap: %d, newest kept %v", len(mm.kwIdx), ok)
	}
	before := mm.bytes
	mm.keep([]int{1}, Dist{e: make([]entry, memoCap/entryBytes)})
	if mm.bytes != before || len(mm.posts) != 0 {
		t.Fatalf("a posterior past the cap was kept")
	}
}

// TestMemoRunsStayPut: a keyword run, once kept, never moves. Later
// misses that open new chunks leave the run returned for a context at
// the same address, with the same values, and the memo hands out that
// same run on the next hit.
func TestMemoRunsStayPut(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	prompt := CanonicalPromptIDs(tk, trainExamples[1].Prompt)
	g := m.NewGen(prompt)
	mm := boundMemo(g)
	view := kwViewOf(g, prompt)
	run := g.kwFactors(new(scratch), mm, view)
	if len(run) == 0 {
		t.Fatal("the fixture prompt's keyword view has no keyword evidence")
	}
	want := slices.Clone(run)
	chunks := 0
	for i := range 6 {
		before := unsafe.SliceData(mm.kwChunk)
		room := cap(mm.kwChunk) - len(mm.kwChunk)
		mm.newRun(mm.key([]int{-1, i}), room+1)
		if unsafe.SliceData(mm.kwChunk) != before {
			chunks++
		}
	}
	again := g.kwFactors(new(scratch), mm, view)
	if unsafe.SliceData(again) != unsafe.SliceData(run) || !slices.Equal(run, want) || !slices.Equal(again, want) {
		t.Fatal("a kept keyword run moved or changed when later runs were kept")
	}
	if chunks < 6 {
		t.Fatalf("%d of 6 misses opened a chunk", chunks)
	}
}

// TestFactorCacheExact: the factor cache returns math.Pow bit for bit,
// through misses and hits, across random probabilities at both models'
// exponents in one scratch (the scratch pool serves every model), in
// slots two inputs share, and read through factor's in-place memo.
func TestFactorCacheExact(t *testing.T) {
	sc := new(scratch)
	check := func(x, eta float64) {
		t.Helper()
		if got, want := sc.pows.pow(x, eta), math.Pow(x, eta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v, want %v", x, eta, got, want)
		}
	}
	etas := []float64{CodeLlamaSim().PromptBlend, CodeT5pSim().PromptBlend}
	if etas[0] == etas[1] {
		t.Fatalf("both models blend at %v", etas[0])
	}
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0, 1, 0.5, 1.0 / 3}
	for range 3 * powSlots {
		ps = append(ps, rng.Float64())
	}
	for round := range 3 { // the first round misses, the later ones mostly hit
		for i, p := range ps {
			check(kwFloor+p, etas[(i+round)%2])
		}
	}

	// Pairs of inputs that share a slot, one pair per exponent and one
	// across them, each evicting the other in turn, and one input that
	// shares a slot with itself at the other exponent.
	slot := func(x, eta float64) uint64 { return sc.pows.slot(math.Float64bits(x), math.Float64bits(eta)) }
	for {
		if x := kwFloor + rng.Float64(); slot(x, etas[0]) == slot(x, etas[1]) {
			for range 3 {
				check(x, etas[0])
				check(x, etas[1])
			}
			break
		}
	}
	partner := func(x, eta, eta2 float64) float64 {
		for {
			if y := kwFloor + rng.Float64(); y != x && slot(y, eta2) == slot(x, eta) {
				return y
			}
		}
	}
	for _, pair := range [][2]float64{{etas[0], etas[0]}, {etas[1], etas[1]}, {etas[0], etas[1]}} {
		x := kwFloor + rng.Float64()
		y := partner(x, pair[0], pair[1])
		for range 3 {
			check(x, pair[0])
			check(y, pair[1])
		}
	}

	for _, p := range ps[:64] {
		for _, eta := range etas {
			v := p
			want := math.Pow(kwFloor+p, eta)
			for range 2 { // computed, then read back
				if got := sc.factor(&v, eta); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("factor(%v, %v) = %v, want %v", p, eta, got, want)
				}
			}
		}
	}
}
