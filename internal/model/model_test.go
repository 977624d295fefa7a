package model

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/frag"
	"repro/internal/tokenizer"
)

var trainExamples = []Example{
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
		out = append(out, FormatPrompt(ex.Prompt)+ex.Code)
	}
	return out
}

func smallCfg() Config {
	cfg := CodeLlamaSim()
	cfg.VocabSize = 400
	return cfg
}

func TestDistBasics(t *testing.T) {
	d := NewDist(map[int]float64{7: 0.5, 8: 0.3, 9: 0.2})
	if d.Argmax() != 7 {
		t.Fatalf("Argmax = %d", d.Argmax())
	}
	if got := d.TopK(2); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("TopK = %v", got)
	}
	h := d.Entropy()
	want := -(0.5*math.Log(0.5) + 0.3*math.Log(0.3) + 0.2*math.Log(0.2))
	if math.Abs(h-want) > 1e-12 {
		t.Fatalf("Entropy = %f, want %f", h, want)
	}
	if d.Sample(0, 0.99, nil) != 7 {
		t.Fatal("temperature 0 must be greedy")
	}
	// u walks the CDF over sorted ids at temperature 1.
	if d.Sample(1, 0.0, nil) != 7 || d.Sample(1, 0.999, nil) != 9 {
		t.Fatalf("Sample edges: %d %d", d.Sample(1, 0.0, nil), d.Sample(1, 0.999, nil))
	}
}

func TestSampleProperty(t *testing.T) {
	d := NewDist(map[int]float64{1: 0.25, 2: 0.25, 3: 0.5})
	f := func(u float64, temp float64) bool {
		u = math.Abs(u)
		u -= math.Floor(u) // into [0,1)
		temp = math.Abs(temp)
		if temp > 4 {
			temp = 4
		}
		id := d.Sample(temp, u, nil)
		return id >= 1 && id <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDistMatchesSortedDefinitions pins TopK's partial selection,
// Argmax and Sample to their definitions over the fully sorted support,
// on distributions with many exact ties.
func TestDistMatchesSortedDefinitions(t *testing.T) {
	f := func(raw []uint8, u float64, k uint8) bool {
		p := map[int]float64{}
		for i, r := range raw {
			p[i*3%50] = float64(r%4+1) / 8 // few distinct values: ties
		}
		d := NewDist(p)
		ids := slices.Sorted(maps.Keys(p))
		byProb := slices.Clone(ids)
		sort.SliceStable(byProb, func(i, j int) bool { return p[byProb[i]] > p[byProb[j]] })
		n := min(int(k%8), len(ids))
		if !slices.Equal(d.TopK(int(k%8)), byProb[:n]) {
			return false
		}
		if len(ids) > 0 && d.Argmax() != byProb[0] {
			return false
		}
		if len(ids) == 0 {
			return d.Argmax() == -1 && len(d.TopK(3)) == 0
		}
		u = math.Abs(u) - math.Floor(math.Abs(u))
		total := 0.0
		for _, id := range ids {
			total += math.Pow(p[id], 1/0.7)
		}
		want, acc := ids[len(ids)-1], 0.0
		for _, id := range ids {
			if acc += math.Pow(p[id], 1/0.7); u*total < acc {
				want = id
				break
			}
		}
		return d.Sample(0.7, u, nil) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainNTPPredictsCorpusPatterns(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	if m.NumHeads() != 0 {
		t.Fatal("NTP model must have no heads")
	}
	// After "always @(" the corpus always continues with "posedge".
	seq := tk.Encode("    always @(")
	d := baseDist(m.NewGen(seq), seq)
	next := d.Argmax()
	tok := tk.Token(next)
	if tok != "posedge" && tok != "pos" {
		t.Fatalf("after 'always @(' predicted %q", tok)
	}
}

func TestOursHeadsTrainedAndMasked(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	// Repeat the corpus so the per-head γ-decay subsampling leaves all
	// heads with data.
	var examples []Example
	for i := 0; i < 20; i++ {
		examples = append(examples, trainExamples...)
	}
	ours := Train(tk, smallCfg(), SchemeOurs, examples)
	medusa := Train(tk, smallCfg(), SchemeMedusa, examples)
	if ours.NumHeads() != 10 || medusa.NumHeads() != 10 {
		t.Fatalf("heads: ours=%d medusa=%d", ours.NumHeads(), medusa.NumHeads())
	}
	// The [IGNORE] masking must reduce the training signal reaching
	// later heads relative to vanilla Medusa labels.
	lastOurs := ours.heads[9].size()
	lastMedusa := medusa.heads[9].size()
	if lastOurs >= lastMedusa {
		t.Fatalf("mask did not shrink head-10 table: ours=%d medusa=%d", lastOurs, lastMedusa)
	}
}

func TestJointTrainingPollutesBase(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)

	// avgEntropy measures backbone noise on the model's own training
	// representation (comparisons must stay within one representation).
	// Contexts are probed through the same filtered view training used,
	// deep enough into the code region that prompt clipping is moot.
	avgEntropy := func(m *Model, encode func(code string) []int) float64 {
		total, n := 0.0, 0
		for _, ex := range trainExamples {
			ids := append([]int{tokenizer.BosID}, tk.Encode(FormatPrompt(ex.Prompt))...)
			promptLen := len(ids)
			ids = append(ids, encode(ex.Code)...)
			for p := promptLen + 20; p < len(ids); p += 3 {
				total += Dist{e: m.base.predict(new(accum), nil, filterTail(nil, ids[:p]), 0)}.Entropy()
				n++
			}
		}
		return total / float64(n)
	}
	plain := func(code string) []int { return tk.Encode(code) }
	withFrags := func(code string) []int {
		ids, err := frag.EncodeWithFrags(tk, code)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}

	// Plain representation: Medusa-2's joint training (cross-fragment
	// offset targets) perturbs the backbone relative to NTP.
	ntp := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	medusa := Train(tk, smallCfg(), SchemeMedusa, trainExamples)
	hNTP, hMed := avgEntropy(ntp, plain), avgEntropy(medusa, plain)
	if hMed <= hNTP {
		t.Fatalf("Medusa base should be noisier than NTP: %f vs %f", hMed, hNTP)
	}

	// FRAG representation: the [IGNORE] masking removes most of that
	// interference (the paper's stated reason Ours beats Medusa on
	// quality). Ablating only the mask must increase backbone noise.
	ours := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	noMask := Train(tk, smallCfg(), SchemeOursNoMask, trainExamples)
	hOurs, hNoMask := avgEntropy(ours, withFrags), avgEntropy(noMask, withFrags)
	if hOurs >= hNoMask {
		t.Fatalf("masked labels should clean the backbone: ours=%f nomask=%f", hOurs, hNoMask)
	}
}

// TestLambdaZeroIsNTP: joint training at λ = 0 moves the backbone by
// nothing, so a Medusa model trained with Lambda 0 has the NTP model's
// base table exactly: every level holds the same contexts in the same
// slots, with the same successors and bit-identical counts and totals.
func TestLambdaZeroIsNTP(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	cfg := smallCfg()
	cfg.Lambda = 0
	ntp := Train(tk, cfg, SchemeNTP, trainExamples)
	medusa := Train(tk, cfg, SchemeMedusa, trainExamples)
	a, b := ntp.base, medusa.base
	if !slices.Equal(a.levels, b.levels) || a.idBound != b.idBound {
		t.Fatalf("ladders %v / %v, id bounds %d / %d", a.levels, b.levels, a.idBound, b.idBound)
	}
	for i, k := range a.levels {
		la, lb := a.parts[0][i], b.parts[0][i]
		if la.ctxs != lb.ctxs || len(la.slots) != len(lb.slots) || len(la.slab) != len(lb.slab) {
			t.Fatalf("level %d (k=%d): %d contexts, %d slots, %d successors; Medusa at λ=0 has %d, %d, %d",
				i, k, la.ctxs, len(la.slots), len(la.slab), lb.ctxs, len(lb.slots), len(lb.slab))
		}
		for j, sa := range la.slots {
			sb := lb.slots[j]
			if sa.key != sb.key || sa.start != sb.start || sa.n != sb.n || math.Float64bits(sa.total) != math.Float64bits(sb.total) {
				t.Fatalf("level %d (k=%d) slot %d: %+v, Medusa at λ=0 has %+v", i, k, j, sa, sb)
			}
		}
		for j, ea := range la.slab {
			eb := lb.slab[j]
			if ea.id != eb.id || math.Float64bits(ea.v) != math.Float64bits(eb.v) {
				t.Fatalf("level %d (k=%d) successor %d: %+v, Medusa at λ=0 has %+v", i, k, j, ea, eb)
			}
		}
	}
}

func TestInductionCopyEchoesHeader(t *testing.T) {
	// A VGen-style prompt spells out the module header verbatim; the
	// model must echo it (name included) even though the exact header
	// was never in training. Whitespace and unsupported NL tokens are
	// deliberately left to the table, so we assert on the decoded
	// prefix rather than any single proposal.
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	prompt := "Complete the Verilog module below. It selects b when sel is high, else a.\nmodule mux2to1(input a, input b, input sel, output y);"
	promptIDs := append([]int{tokenizer.BosID}, tk.Encode(FormatPrompt(prompt))...)
	g := m.NewGen(promptIDs)
	seq := append([]int(nil), promptIDs...)
	for i := 0; i < 12; i++ {
		next := baseDist(g, seq).Argmax()
		if next == tokenizer.EosID {
			break
		}
		seq = append(seq, next)
	}
	got := tk.DecodeClean(seq[len(promptIDs):])
	if !strings.HasPrefix(got, "module mux2to1") {
		t.Fatalf("echoed prefix = %q, want module mux2to1...", got)
	}
}

func TestForwardShape(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	seq := tk.Encode(FormatPrompt("Create a 2-to-1 multiplexer."))
	fw := m.NewGen(seq).Forward(seq)
	if fw.NumHeads() != 10 || fw.HeadCalls() != 10 {
		t.Fatalf("heads = %d, built %d", fw.NumHeads(), fw.HeadCalls())
	}
	for i := range fw.NumHeads() {
		if len(fw.Cands(i, fullPassTopK)) == 0 {
			t.Fatalf("head %d proposes nothing", i)
		}
	}
	if len(fw.Base.e) == 0 {
		t.Fatal("empty base distribution")
	}
	sum := 0.0
	for _, e := range fw.Base.e {
		sum += e.v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("base distribution sums to %f", sum)
	}
}

// baseDist is g's base posterior over seq computed from scratch: a
// fresh Memo remembers nothing.
func baseDist(g *Gen, seq []int) Dist { return g.BaseDistMemo(seq, new(Memo)) }

// sameForward fails unless two forward passes agree bit for bit on
// every entry of the base and of every head distribution their captured
// state builds, and on every head's candidates.
func sameForward(t *testing.T, what string, a, b Forward) {
	t.Helper()
	if !sameDist(a.Base, b.Base) {
		t.Fatalf("%s: base distributions differ", what)
	}
	if a.NumHeads() != b.NumHeads() {
		t.Fatalf("%s: %d heads vs %d", what, a.NumHeads(), b.NumHeads())
	}
	for i := range a.NumHeads() {
		if !sameDist(denseHead(a, i), denseHead(b, i)) {
			t.Fatalf("%s: head %d distributions differ", what, i)
		}
		for _, k := range []int{1, 3, 8} {
			if !slices.Equal(a.Cands(i, k), b.Cands(i, k)) {
				t.Fatalf("%s: head %d top %d: %v vs %v", what, i, k, a.Cands(i, k), b.Cands(i, k))
			}
		}
	}
}

// sameDist reports whether two distributions are equal bit for bit.
func sameDist(x, y Dist) bool {
	return slices.EqualFunc(x.e, y.e, func(p, q entry) bool {
		return p.id == q.id && math.Float64bits(p.v) == math.Float64bits(q.v)
	})
}

// denseHead builds head i's whole distribution from the state a model
// pass captured.
func denseHead(fw Forward, i int) Dist {
	h := fw.heads
	return Dist{e: slices.Clone(h.g.headAt(new(scratch), i, h.seq, h.view, h.matchJ, h.matchK))}
}

// TestNgramDeterminism: two trainings on the same data, and repeated
// calls on one model, give bitwise-identical Forward passes on every
// context of the fixture's decodes. Every sum over a distribution runs
// in ascending id order, so nothing rests on map iteration order.
func TestNgramDeterminism(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	a := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	b := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	gens, seqs := decodeContexts(a)
	for i, seq := range seqs {
		want := gens[i].Forward(seq)
		sameForward(t, "retrained", want, b.NewGen(seq[:gens[i].promptLen]).Forward(seq))
		if i%7 == 0 {
			for r := 0; r < 20; r++ {
				sameForward(t, "repeat call", want, gens[i].Forward(seq))
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeNTP.String() != "NTP" || SchemeMedusa.String() != "Medusa" || SchemeOurs.String() != "Ours" {
		t.Fatal("scheme names wrong")
	}
}

// referenceHead builds head i's whole distribution for seq from scratch,
// with the merge reference predictor: the dense head Cands must agree
// with.
func referenceHead(g *Gen, seq []int, i int) Dist {
	sc := new(scratch)
	view := g.clippedView(sc, seq)
	matchJ, matchK := g.findInduction(seq)
	table := referencePredict(g.m.heads[i], nil, view, 0)
	g.copyBoost(table)
	return Dist{e: g.finish(table, seq, matchJ, matchK, i+2)}
}

// TestHeadCandsExact decodes the fixture prompts under both head
// schemes, greedy and sampled, the way the decoding loop drives a memo:
// a pass, a chain walk that reads each head's candidates and verifies
// them against the posterior after everything accepted so far, then the
// step boundary. At every step, after the walk, every head is asked for
// its top 1, 3 and 8 in shuffled head and k order, with verification
// calls in between, and must equal TopK of the dense reference head.
func TestHeadCandsExact(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	steps := 0
	for _, scheme := range []Scheme{SchemeMedusa, SchemeOurs} {
		m := Train(tk, smallCfg(), scheme, trainExamples)
		for p, ex := range trainExamples {
			prompt := CanonicalPromptIDs(tk, ex.Prompt)
			g := m.NewGen(prompt)
			for _, temp := range []float64{0, 0.8} {
				rng := rand.New(rand.NewSource(int64(p)))
				mm := new(Memo)
				seq := slices.Clone(prompt)
				mm.NextStep(seq)
				for len(seq) < len(prompt)+120 {
					fw := g.ForwardMemo(seq, mm)
					base := fw.Base.Sample(temp, rng.Float64(), nil)
					if base == tokenizer.EosID {
						break
					}
					walk := append(slices.Clone(seq), base)
					for i := range fw.NumHeads() {
						post := g.BaseDistMemo(walk, mm)
						if c := fw.Cands(i, 3); !slices.Contains(c, post.Argmax()) || post.Argmax() == tokenizer.EosID {
							break
						}
						walk = append(walk, post.Argmax())
					}
					for _, i := range rng.Perm(fw.NumHeads()) {
						ref := referenceHead(g, seq, i)
						for _, j := range rng.Perm(3) {
							k := []int{1, 3, 8}[j]
							if got, want := fw.Cands(i, k), ref.TopK(k); !slices.Equal(got, want) {
								t.Fatalf("%v prompt %d step %d: head %d top %d = %v, want %v", scheme, p, steps, i, k, got, want)
							}
						}
						g.BaseDistMemo(walk[:len(seq)+1+rng.Intn(len(walk)-len(seq))], mm)
					}
					seq = walk
					mm.NextStep(seq)
					steps++
				}
			}
		}
	}
	if steps < 50 {
		t.Fatalf("only %d steps compared", steps)
	}
	t.Logf("%d steps compared", steps)
}

// TestPosteriorKeepsEntropy: a posterior computes its entropy once and
// every copy reads it back, bit for bit the entropy of the same support
// computed afresh.
func TestPosteriorKeepsEntropy(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	prompt := CanonicalPromptIDs(tk, trainExamples[1].Prompt)
	g := m.NewGen(prompt)
	mm := boundMemo(g)
	checked := 0
	for n := len(prompt); n <= len(prompt)+3; n++ {
		seq := append(slices.Clone(prompt), tk.Encode(trainExamples[1].Code)[:n-len(prompt)]...)
		d := g.BaseDistMemo(seq, mm)
		want := math.Float64bits(Dist{e: d.e}.Entropy())
		if d.h == nil || d.h.v != 0 {
			t.Fatalf("a fresh posterior keeps no entropy yet")
		}
		for range 2 {
			if got := math.Float64bits(d.Entropy()); got != want {
				t.Fatalf("entropy %x, want %x", got, want)
			}
		}
		if want != 0 && math.Float64bits(d.h.v) != want {
			t.Fatalf("the posterior kept %x, want %x", math.Float64bits(d.h.v), want)
		}
		if copied := g.BaseDistMemo(seq, mm); math.Float64bits(copied.Entropy()) != want || copied.h != d.h {
			t.Fatalf("the memo's copy does not share the kept entropy")
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no posterior checked")
	}
}
