package model

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/frag"
	"repro/internal/tokenizer"
)

// ctxKey is the key of ctx's last k ids in a table seeded by seed,
// hashed on its own: the per-level hash the one-pass ctxHashes must
// reproduce at every level.
func ctxKey(ctx []int, k int, seed uint64) uint64 {
	h := uint64(fnvOffset)
	for i := len(ctx) - 1; i >= len(ctx)-k; i-- {
		h = (h ^ uint64(ctx[i])) * fnvPrime
	}
	return fmix(h ^ fmix(seed))
}

// trainTable builds and seals a one-part table as a one-group unit that
// owns all of its levels does, observe counting its observations in the
// unit's tallies.
func trainTable(maxCtx int, observe func(counts tallies, ladder []int)) *ngramTable {
	t := newNgramTable(maxCtx, 0)
	trainLevels(make([]prepared, 1), t, 0, 0, len(t.levels), []group{{examples: []int32{0}}},
		func(counts tallies, ladder []int, _ *prepared, _ uint64) { observe(counts, ladder) })
	t.seal()
	return t
}

// build builds the level of one tally's contexts, as a one-group unit
// does.
func build(c *tally) level {
	var b levelBuf
	return b.level(c)
}

// refTable is the map form the frozen tables replaced, kept as the
// reference predictor: per level, context hash → successor counts.
type refTable struct {
	levels []int
	orders []map[uint64]*refSucc
}

type refSucc struct {
	total  float64
	counts map[int]float64
}

func newRefTable(maxCtx int) *refTable {
	r := &refTable{levels: ladder(maxCtx)}
	for range r.levels {
		r.orders = append(r.orders, map[uint64]*refSucc{})
	}
	return r
}

// addRange records one observation of next after ctx, under seed, at
// the levels of at least loK ids that fit it. Like the table, it records
// nothing of a weight-0 observation.
func (r *refTable) addRange(ctx []int, next int, weight float64, loK int, seed uint64) {
	if weight == 0 {
		return
	}
	for i, k := range r.levels {
		if k > len(ctx) || k < loK {
			continue
		}
		h := ctxKey(ctx, k, seed)
		s := r.orders[i][h]
		if s == nil {
			s = &refSucc{counts: map[int]float64{}}
			r.orders[i][h] = s
		}
		s.counts[next] += weight
		s.total += weight
	}
}

// refOf rebuilds the reference form from the tallies of a ladder's
// levels.
func refOf(levels []int, counts tallies) *refTable {
	r := &refTable{levels: levels}
	for _, c := range counts {
		m := map[uint64]*refSucc{}
		for _, chunk := range c.ctxs {
			for _, s := range chunk {
				counts := map[int]float64{}
				for _, e := range s.run {
					counts[int(e.id)] = e.v
				}
				m[s.key] = &refSucc{total: s.total, counts: counts}
			}
		}
		r.orders = append(r.orders, m)
	}
	return r
}

// predict is the map predictor, normalized in ascending id order.
// fractional reports whether a contributing context carried a
// non-integer count — joint-training pollution.
func (r *refTable) predict(ctx []int, seed uint64) (out map[int]float64, fractional bool) {
	out = map[int]float64{}
	weight := 1.0
	for i := len(r.levels) - 1; i >= 0; i-- {
		k := r.levels[i]
		if k > len(ctx) {
			continue
		}
		s := r.orders[i][ctxKey(ctx, k, seed)]
		if s == nil || s.total <= 0 {
			continue
		}
		keep := s.total / (s.total + wbScale*float64(len(s.counts)))
		if k == 0 {
			keep = 1
		}
		for id, c := range s.counts {
			out[id] += weight * keep * (c / s.total)
			fractional = fractional || c != math.Trunc(c)
		}
		weight *= 1 - keep
		if weight < 1e-9 {
			break
		}
	}
	ids := slices.Sorted(maps.Keys(out))
	total := 0.0
	for _, id := range ids {
		total += out[id]
	}
	if total > 0 {
		for _, id := range ids {
			out[id] /= total
		}
	}
	return out, fractional
}

// sameAsRef fails unless the frozen prediction equals the reference bit
// for bit.
func sameAsRef(t *testing.T, what string, got []entry, want map[int]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: support %d, reference %d", what, len(got), len(want))
	}
	for i, e := range got {
		w, ok := want[int(e.id)]
		if !ok || math.Float64bits(e.v) != math.Float64bits(w) || (i > 0 && got[i-1].id >= e.id) {
			t.Fatalf("%s: entry %d = (%d, %v), reference %v (present %v)", what, i, e.id, e.v, w, ok)
		}
	}
}

// trainWithRef trains a model and, from a second preparation of the
// examples, replays every table's observations straight into the map
// reference, one example at a time: its base observations, then its
// pollution, its keyword observations and its heads'. The reference
// shares nothing with the code under test past the preparation: not
// its tallies, its hashing, its keyword parts nor its units.
func trainWithRef(tk *tokenizer.Tokenizer, scheme Scheme, examples []Example) (*Model, map[*ngramTable]*refTable) {
	cfg := smallCfg()
	m := Train(tk, cfg, scheme, examples)
	base, kw := newRefTable(cfg.Order), newRefTable(kwCtx)
	ref := map[*ngramTable]*refTable{m.base: base, m.kw: kw}
	heads := make([]*refTable, len(m.heads))
	for i, h := range m.heads {
		heads[i] = newRefTable(cfg.HeadCtx)
		ref[h] = heads[i]
	}
	loK := max(cfg.Order-2, 1)
	prep := newModel(tk, cfg, scheme).prepareAll(examples)
	for j := range prep {
		p := &prep[j]
		for s, ctx := range p.contexts() {
			base.addRange(ctx, p.code[s], 1, 0, 0)
		}
		for s, ctx := range p.contexts() {
			for i := 1; p.depth != nil && i <= int(p.depth[s]); i++ {
				if p.heads[i] {
					base.addRange(ctx, p.code[s+i], cfg.Lambda*math.Pow(cfg.Gamma, float64(i)), loK, 0)
				}
			}
		}
		for s, ctx := range p.contexts() {
			if p.code[s] == tokenizer.FragID {
				continue
			}
			for len(ctx) > 0 && ctx[len(ctx)-1] == tokenizer.FragID {
				ctx = ctx[:len(ctx)-1]
			}
			for _, seed := range p.seeds {
				kw.addRange(ctx, p.code[s], 1, 0, seed)
			}
		}
		for s, ctx := range p.contexts() {
			for i, h := range heads {
				if p.heads[i+1] && int(p.depth[s]) > i {
					h.addRange(ctx, p.code[s+i+1], 1, 0, 0)
				}
			}
		}
	}
	return m, ref
}

// decodeContexts returns each fixture prompt's session and every prefix
// of its greedy base-only decode (the contexts the golden decodes see).
func decodeContexts(m *Model) (gens []*Gen, seqs [][]int) {
	for _, ex := range trainExamples {
		prompt := CanonicalPromptIDs(m.tok, ex.Prompt)
		g := m.NewGen(prompt)
		seq := slices.Clone(prompt)
		for len(seq) < len(prompt)+150 {
			gens, seqs = append(gens, g), append(seqs, slices.Clone(seq))
			next := baseDist(g, seq).Argmax()
			if next == tokenizer.EosID {
				break
			}
			seq = append(seq, next)
		}
	}
	return gens, seqs
}

// TestFrozenMatchesReference runs the frozen predictor and the map
// reference over every context of the fixture's greedy decodes, for the
// base table, every head and every keyword seed of the session.
func TestFrozenMatchesReference(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	for _, scheme := range []Scheme{SchemeNTP, SchemeMedusa, SchemeOurs} {
		m, ref := trainWithRef(tk, scheme, trainExamples)
		gens, seqs := decodeContexts(m)
		sc, acc := new(scratch), new(accum)
		kwHits, polluted := 0, 0
		for i, seq := range seqs {
			g := gens[i]
			view := g.clippedView(sc, seq)
			want, frac := ref[m.base].predict(view, 0)
			sameAsRef(t, scheme.String()+" base", m.base.predict(acc, nil, view, 0), want)
			if frac {
				polluted++
			}
			for h, head := range m.heads {
				want, _ := ref[head].predict(view, 0)
				sameAsRef(t, fmt.Sprintf("%v head %d", scheme, h), head.predict(acc, nil, view, 0), want)
			}
			kwView := view
			for len(kwView) > 0 && kwView[len(kwView)-1] == tokenizer.FragID {
				kwView = kwView[:len(kwView)-1]
			}
			for _, seed := range g.seeds {
				want, _ := ref[m.kw].predict(kwView, seed)
				sameAsRef(t, scheme.String()+" keyword", m.kw.predict(acc, nil, kwView, seed), want)
				if len(want) > 0 {
					kwHits++
				}
			}
		}
		t.Logf("%v: %d contexts, %d keyword predictions, %d base predictions over polluted counts", scheme, len(seqs), kwHits, polluted)
		if kwHits == 0 {
			t.Errorf("%v: no keyword-seeded prediction was compared", scheme)
		}
		if scheme != SchemeNTP && polluted == 0 {
			t.Errorf("%v: no prediction read a polluted long level", scheme)
		}
	}
}

// TestTallyAcrossChunks trains a level past several tally chunks:
// every context keeps its total through the freeze.
func TestTallyAcrossChunks(t *testing.T) {
	n := 3*chunkLen + 5
	tb := trainTable(1, func(counts tallies, ladder []int) {
		for i := range 2 * n {
			hs := hashLevels(ladder, []int{i % n})
			counts.observe(&hs, i%7, 1, 0, len(counts), 0)
		}
	})
	l := &tb.parts[0][1]
	if l.ctxs != n {
		t.Fatalf("%d contexts, want %d", l.ctxs, n)
	}
	for c := range n {
		if s := l.find(ctxKey([]int{c}, 1, 0)); s == nil || s.total != 2 {
			t.Fatalf("context %d: record %+v, want total 2", c, s)
		}
	}
}

// TestTallyReset fills a tally past several chunks, with runs long
// enough to be indexed, resets it and refills it with other keys (and
// a few of the old ones): it must freeze to exactly the level a fresh
// tally given the second fill freezes to. A stale index slot, context
// or successor left by the reset shows in the layout or the counts.
func TestTallyReset(t *testing.T) {
	fill := func(c *tally, keys, ids int, salt uint64) {
		for i := range keys * ids {
			c.add(fmix(uint64(i%keys)+salt), int32(i/keys), float64(i%3+1)/2)
		}
	}
	var reused, fresh tally
	fill(&reused, 3*chunkLen+5, 2*linearMax, 0)
	reused.reset()
	fill(&reused, chunkLen+7, 3, 3*chunkLen)
	fill(&fresh, chunkLen+7, 3, 3*chunkLen)
	got, want := build(&reused), build(&fresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset tally froze to %d contexts, %d successors; a fresh one to %d, %d",
			got.ctxs, len(got.slab), want.ctxs, len(want.slab))
	}
	if want.ctxs != chunkLen+7 || len(want.slab) != 3*(chunkLen+7) {
		t.Fatalf("fresh tally froze to %d contexts, %d successors", want.ctxs, len(want.slab))
	}
}

// TestLevelBufTakes splits one tally's observations by key across
// several takes, resetting the tally between them as a keyword part
// does between its keywords, and builds the level from the last part
// without taking it: the level must be the level one tally of all the
// observations builds. Every key of a take is first seen before any key
// of the next, so the one tally emits its keys in the takes' order.
// Each take records its contexts after another level's records in the
// array it is given, and its run starts hold only once moved past the
// runs taken before it.
func TestLevelBufTakes(t *testing.T) {
	var whole, part tally
	var b levelBuf
	const parts = 4
	for k := range parts {
		if k > 0 {
			b.take(&part, make([]slot, k, k+part.n))
			part.reset()
		}
		keys, ids := chunkLen/2+k, 2+8*k // the last part's runs are indexed
		for i := range keys * ids {
			key, id, w := fmix(uint64(k*chunkLen+i%keys)), int32((i/keys)*5%97), float64(i%3+1)/2
			whole.add(key, id, w)
			part.add(key, id, w)
		}
	}
	got, want := b.level(&part), build(&whole)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d parts built %d contexts, %d successors; one tally %d, %d",
			parts, got.ctxs, len(got.slab), want.ctxs, len(want.slab))
	}
	if len(b.runs) != parts-1 || want.ctxs != parts*chunkLen/2+parts*(parts-1)/2 {
		t.Fatalf("%d takes of %d contexts", len(b.runs), want.ctxs)
	}
}

// TestTrainDeterministic is the exactness gate of parallel training:
// for every scheme, a model trained at GOMAXPROCS 4 is the model
// GOMAXPROCS 1 builds, float bits included. The first example is
// long, so at GOMAXPROCS 4 its preparation finishes after the short
// ones behind it: numbering examples in completion order instead of
// example order gives the heads other examples and fails. An
// unparsable example in the middle trains nothing under a frag scheme
// and takes no ordinal.
func TestTrainDeterministic(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	var long strings.Builder
	for range 8 {
		for _, ex := range trainExamples {
			long.WriteString(ex.Code)
		}
	}
	examples := []Example{{Prompt: "Create every register and counter.", Code: long.String()}}
	examples = append(examples, trainExamples...)
	examples = append(examples, trainExamples...)
	broken := Example{Prompt: "Create a broken module.", Code: "module broken (\n"}
	examples = append(examples, broken)
	examples = append(examples, trainExamples...)
	examples = append(examples, trainExamples...)
	if _, err := frag.EncodeWithFrags(tk, examples[0].Code); err != nil {
		t.Fatalf("the long example does not parse: %v", err)
	}
	if _, err := frag.EncodeWithFrags(tk, broken.Code); err == nil {
		t.Fatal("the broken example parses")
	}
	train := func(scheme Scheme, procs int) *Model {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Train(tk, smallCfg(), scheme, examples)
	}
	for _, scheme := range []Scheme{SchemeNTP, SchemeMedusa, SchemeOurs, SchemeOursNoMask} {
		if got, want := train(scheme, 4), train(scheme, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%v at GOMAXPROCS 4: not the model GOMAXPROCS 1 builds", scheme)
		}
	}
}

// FuzzFrozenTable feeds weighted observations (any loK, three seeds) to
// a table and to the map reference. Each 4-byte group is one
// observation: the next token, its weight, loK and the seed; the context
// is everything observed before it. The tallies must hold the
// reference's counts exactly, and the frozen predictor must equal the
// reference on every context.
func FuzzFrozenTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 0, 0, 2, 7, 0, 0, 1, 7, 0, 0, 2, 7, 0, 0})              // a repeating pair
	f.Add([]byte{3, 1, 5, 0, 3, 2, 5, 1, 4, 3, 6, 2, 3, 15, 0, 0, 4, 9, 2, 1}) // pollution-only long levels, seeds
	f.Add([]byte{0, 0, 0, 0, 11, 255, 255, 255, 0, 0, 0, 0, 11, 255, 255, 255})
	seeds := []uint64{0, 7, 0xdeadbeef}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxCtx = 6
		ref := newRefTable(maxCtx)
		var hist []int
		tbl := trainTable(maxCtx, func(counts tallies, ladder []int) {
			for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
				next := int(data[i] % (2 * linearMax)) // short and indexed runs
				weight := float64(data[i+1]%16+1) / 8
				loK := int(data[i+2] % 8)
				seed := seeds[int(data[i+3])%len(seeds)]
				ctx := hist[max(0, len(hist)-8):]
				hs := hashLevels(ladder, ctx)
				lo, _ := slices.BinarySearch(ref.levels, loK) // the first level of at least loK ids
				counts.observe(&hs, next, weight, lo, len(counts), seed)
				ref.addRange(ctx, next, weight, loK, seed)
				hist = append(hist, next)
			}
			if tallied := refOf(ref.levels, counts); !reflect.DeepEqual(tallied, ref) {
				t.Fatal("the tallies do not hold the reference's counts")
			}
		})
		acc := new(accum)
		for p := 0; p <= len(hist); p++ {
			ctx := hist[max(0, p-8):p]
			for _, seed := range seeds {
				want, _ := ref.predict(ctx, seed)
				sameAsRef(t, "frozen", tbl.predict(acc, nil, ctx, seed), want)
			}
		}
	})
}

// referencePredict is predict as an n-way merge of the contributing
// levels' id-sorted runs, the loop the scatter kernel replaced: each
// id's mass is summed over the levels longest context first.
// TestPredictMatchesReference and FuzzPredict hold the kernel equal to
// it bit for bit.
func referencePredict(t *ngramTable, dst []entry, ctx []int, seed uint64) []entry {
	var runs [maxLevels][]entry
	var scale, totals [maxLevels]float64
	n := 0
	weight := 1.0
	for i := len(t.levels) - 1; i >= 0; i-- {
		k := t.levels[i]
		if k > len(ctx) {
			continue
		}
		l := &t.parts[t.partOf(fmix(seed))][i]
		s := l.find(ctxKey(ctx, k, seed))
		if s == nil || s.total <= 0 {
			continue
		}
		keep := s.total / (s.total + wbScale*float64(s.n))
		if k == 0 {
			keep = 1
		}
		runs[n], scale[n], totals[n] = l.slab[s.start:s.start+s.n], weight*keep, s.total
		n++
		weight *= 1 - keep
		if weight < 1e-9 {
			break
		}
	}
	start := len(dst)
	for {
		var next int32
		found := false
		for _, r := range runs[:n] {
			if len(r) > 0 && (!found || r[0].id < next) {
				next, found = r[0].id, true
			}
		}
		if !found {
			break
		}
		acc := 0.0
		for j, r := range runs[:n] {
			if len(r) > 0 && r[0].id == next {
				acc += scale[j] * (r[0].v / totals[j])
				runs[j] = r[1:]
			}
		}
		dst = append(dst, entry{next, acc})
	}
	normalize(dst[start:])
	return dst
}

// sameEntries fails unless two predictions are equal bit for bit.
func sameEntries(t *testing.T, what string, got, want []entry) {
	t.Helper()
	if !sameDist(Dist{e: got}, Dist{e: want}) {
		t.Fatalf("%s: kernel %v, reference %v", what, got, want)
	}
}

// TestPredictMatchesReference runs the scatter kernel and the merge
// reference over every table of the three schemes — the base, the
// keyword table under each seed, every head — on every context of the
// fixture corpus (each prefix of each training sequence) and of the
// fixture prompts' greedy decodes. One accumulator serves every call,
// so a slot left dirty by one prediction shows in the next.
func TestPredictMatchesReference(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	acc, sc := new(accum), new(scratch)
	for _, scheme := range []Scheme{SchemeNTP, SchemeMedusa, SchemeOurs} {
		m := Train(tk, smallCfg(), scheme, trainExamples)
		var views [][]int
		var seeds [][]uint64
		for _, ex := range trainExamples {
			ids := append([]int{tokenizer.BosID}, tk.Encode(FormatPrompt(ex.Prompt))...)
			code := tk.Encode(ex.Code)
			if scheme.UsesFrags() {
				var err error
				if code, err = frag.EncodeWithFrags(tk, ex.Code); err != nil {
					t.Fatal(err)
				}
			}
			ids = append(ids, code...)
			var kw []uint64
			for _, w := range Keywords(ex.Prompt) {
				kw = append(kw, kwSeed(w))
			}
			for p := 0; p <= len(ids); p++ {
				views, seeds = append(views, filterTail(nil, ids[:p])), append(seeds, kw)
			}
		}
		gens, seqs := decodeContexts(m)
		for i, seq := range seqs {
			views, seeds = append(views, slices.Clone(gens[i].clippedView(sc, seq))), append(seeds, gens[i].seeds)
		}
		preds := 0
		for i, view := range views {
			sameEntries(t, scheme.String()+" base", m.base.predict(acc, nil, view, 0), referencePredict(m.base, nil, view, 0))
			for h, head := range m.heads {
				sameEntries(t, fmt.Sprintf("%v head %d", scheme, h), head.predict(acc, nil, view, 0), referencePredict(head, nil, view, 0))
			}
			kwView := view
			for len(kwView) > 0 && kwView[len(kwView)-1] == tokenizer.FragID {
				kwView = kwView[:len(kwView)-1]
			}
			for _, seed := range seeds[i] {
				sameEntries(t, scheme.String()+" keyword", m.kw.predict(acc, nil, kwView, seed), referencePredict(m.kw, nil, kwView, seed))
			}
			preds += 1 + len(m.heads) + len(seeds[i])
		}
		t.Logf("%v: %d contexts, %d predictions", scheme, len(views), preds)
	}
}

// FuzzPredict builds a full-ladder table from weighted observations
// (each 3-byte group: the next id, spanning four bitmap words, its
// weight and its seed; the context is everything observed before it)
// and holds the scatter kernel equal to the merge reference, bit for
// bit, on every context under every seed. The accumulator is sized for
// a larger vocabulary than the table's and shared by every call.
func FuzzPredict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 0, 2, 7, 0, 1, 7, 0, 2, 7, 0, 1, 7, 0})
	f.Add([]byte{63, 1, 0, 64, 2, 0, 127, 3, 1, 128, 4, 2, 255, 5, 0, 0, 6, 1})
	seeds := []uint64{0, 7, 0xdeadbeef}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hist []int
		tbl := trainTable(maxReach, func(counts tallies, ladder []int) {
			for i := 0; i+3 <= len(data) && i < 3*256; i += 3 {
				next := int(data[i])
				weight := float64(data[i+1]%16+1) / 8
				seed := seeds[int(data[i+2])%len(seeds)]
				ctx := hist[max(0, len(hist)-maxReach):]
				hs := hashLevels(ladder, ctx)
				counts.observe(&hs, next, weight, 0, len(counts), seed)
				hist = append(hist, next)
			}
		})
		acc := new(accum)
		acc.fit(1024)
		for p := 0; p <= len(hist); p++ {
			ctx := hist[max(0, p-maxReach):p]
			for _, seed := range seeds {
				sameEntries(t, "kernel", tbl.predict(acc, nil, ctx, seed), referencePredict(tbl, nil, ctx, seed))
			}
		}
	})
}
