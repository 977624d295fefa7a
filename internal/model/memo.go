package model

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Memo is one decode's memory of what its base model already computed.
// A session (*Gen) is shared and immutable; a Memo is the decode's own
// mutable state beside it, and every model call takes one:
// ForwardMemo and BaseDistMemo (Gen.Forward, a one-off pass, makes a
// fresh one). It caches two pure functions of the session and the
// context, so every distribution it returns equals, bit for bit, the
// one a fresh Memo computes from scratch:
//
//   - The keyword expert's evidence per keyword context: each support
//     id's best probability p over the prompt's keywords, replaced by its
//     factor Pow(kwFloor+p, PromptBlend) once a table has asked for it.
//     The support is the decode's own, resolved at its first miss: every
//     id some keyword's level-0 run holds, in ascending order, which
//     every keyword context's evidence falls within. A run holds one
//     value per support id and no ids, 8 B an entry, so every run of a
//     decode has the support's length and reads against one id list.
//     The keyword tables reach back only as far as their top ladder
//     level r, so the key is the last r tokens of the keyword view plus
//     min(len, r) — exact, not a hash. Most of a decode's keyword
//     contexts repeat one it has seen. Runs are filled in place in
//     chunks that never grow, so a run never moves and nothing is copied
//     as the memo fills: a run that does not fit the current chunk opens
//     one at least twice its size.
//   - The base posteriors computed since the last step boundary
//     (NextStep), keyed by their context beyond it. The posterior that
//     rejected the step's last draft token is the next step's base
//     distribution, and a tree leaf's chain walk starts from the
//     posterior the sweep already built for it.
//
// It also owns the storage of the current step's heads: the view and
// induction match ForwardMemo captured, and each head's candidates once
// a drafter has asked for them.
//
// A Memo serves one decode: every sequence passed to it between two
// NextStep calls is a prefix of, or extends, the sequence given to the
// earlier one. It holds at most memoCap bytes of runs and posteriors.
// The zero Memo is ready to use; it is not safe for concurrent use.
type Memo struct {
	gen *Gen // the session the cached values belong to

	kwReach int                 // r: the keyword tables' longest context
	kw      *kwSupport          // the session's keywords resolved; nil until the first miss
	kwIdx   map[kwKey][]float64 // keyword context → its run, in a chunk
	kwChunk []float64           // the chunk new runs are filled in

	bound int    // the sequence length at the last NextStep
	posts []post // posteriors since bound, in order of computation
	toks  []int  // the posts' contexts beyond bound, back to back
	spare []int  // NextStep's second toks buffer

	bytes int // the keyword runs plus the posts' supports, in bytes

	heads headSet // the last ForwardMemo's heads
}

// memoCap bounds a Memo's cached bytes. A greedy decode of up to 512
// tokens peaks at about 0.1 MB on average and 0.23 MB at most
// (CodeLlama-sim, every third bench prompt); past the cap the keyword
// runs start over and posteriors are not kept.
const memoCap = 1 << 20

// kwChunkMin is the smallest keyword chunk, in values.
const kwChunkMin = 64

// kwKey is a keyword view as far as the keyword tables see it: its last
// n = min(len, r) tokens, r = kwCtx.
type kwKey struct {
	n   int32
	ids [kwCtx]int32
}

// kwSupport is a session's keywords resolved against the frozen keyword
// table, the state every miss of a decode starts from.
//
// A keyword's observations are each filed at every level of the ladder
// that fits their context, and no two (keyword, context) pairs share a
// key (TestContextKeysExact), so each of a keyword's longer contexts
// holds a subset of the ids its level-0 context (the empty one) holds
// (TestKwSupportNested). Its prediction's support is therefore within
// its level-0 run, and the expert's is within the support: the union of
// those runs.
type kwSupport struct {
	ids   []int32     // the support, ascending
	seeds []kwSeedRun // the keywords with a level-0 run, in prompt order
}

// kwSeedRun is one keyword resolved: the key mix of its seed, the
// levels of its part, and its level-0 run, each entry's probability
// there and its position in the support.
type kwSeedRun struct {
	ms   uint64
	part []level
	ids  []int32   // the level-0 run's ids, ascending
	q    []float64 // q[k] is ids[k]'s count over the level-0 total
	at   []int32   // at[k] is ids[k]'s position in the support
}

// support returns the session's keywords resolved, resolving them on
// the first call with acc's help.
func (mm *Memo) support(acc *accum) *kwSupport {
	if mm.kw != nil {
		return mm.kw
	}
	g, t := mm.gen, mm.gen.m.kw
	sup := &kwSupport{seeds: make([]kwSeedRun, 0, len(g.seeds))}
	h0 := t.hashes(nil).h[0] // the empty context's hash
	level0 := func(s *kwSeedRun) *slot { return s.part[0].find(fmix(h0 ^ s.ms)) }
	n := 0
	acc.fit(t.idBound)
	lo, hi := len(acc.seen), -1 // the bitmap words marked
	for _, seed := range g.seeds {
		ms := fmix(seed)
		s := kwSeedRun{ms: ms, part: t.parts[t.partOf(ms)]}
		r := level0(&s)
		if r == nil || r.total <= 0 {
			continue // an untrained keyword: it supports nothing
		}
		sup.seeds = append(sup.seeds, s)
		run := s.part[0].slab[r.start : r.start+r.n]
		n += len(run)
		for _, e := range run {
			acc.seen[e.id>>6] |= 1 << (e.id & 63)
		}
		lo, hi = min(lo, int(run[0].id>>6)), max(hi, int(run[len(run)-1].id>>6))
	}
	// The support in ascending order, each id's position parked in acc.v
	// until every run entry has read its own.
	size := 0
	for w := lo; w <= hi; w++ {
		size += bits.OnesCount64(acc.seen[w])
	}
	buf := make([]int32, size+2*n) // the support, then each run's ids and positions
	sup.ids, buf = buf[:0:size], buf[size:]
	for w := lo; w <= hi; w++ {
		for b := acc.seen[w]; b != 0; b &= b - 1 {
			id := w<<6 | bits.TrailingZeros64(b)
			acc.v[id] = float64(len(sup.ids))
			sup.ids = append(sup.ids, int32(id))
		}
		acc.seen[w] = 0
	}
	q := make([]float64, n)
	for i := range sup.seeds {
		s := &sup.seeds[i]
		r := level0(s)
		m := int(r.n)
		s.ids, s.at, s.q = buf[:m:m], buf[m:2*m:2*m], q[:m:m]
		buf, q = buf[2*m:], q[m:]
		for k, e := range s.part[0].slab[r.start : r.start+r.n] {
			s.ids[k], s.at[k], s.q[k] = e.id, int32(acc.v[e.id]), e.v/r.total
		}
	}
	for _, id := range sup.ids {
		acc.v[id] = 0
	}
	mm.kw = sup
	return sup
}

// post is one posterior and its context beyond the boundary,
// toks[off:off+n].
type post struct {
	off, n int
	d      Dist
}

var entryBytes = int(unsafe.Sizeof(entry{}))

// valueBytes is a keyword run's cost per support id.
const valueBytes = 8

// bind points the memo at g, dropping whatever it held for another
// session.
func (mm *Memo) bind(g *Gen) {
	if mm.gen == g {
		return
	}
	bound := mm.bound
	*mm = Memo{gen: g, bound: bound, kwReach: g.m.kw.levels[len(g.m.kw.levels)-1]}
}

// NextStep marks seq as the new step boundary. Posteriors whose context
// extends seq are kept, re-keyed beyond it; the rest are dropped.
func (mm *Memo) NextStep(seq []int) {
	extends := len(seq) >= mm.bound
	var cut []int
	if extends {
		cut = seq[mm.bound:]
	}
	kept, spare := mm.posts[:0], mm.spare[:0]
	for _, p := range mm.posts {
		ctx := mm.toks[p.off : p.off+p.n]
		if extends && len(ctx) >= len(cut) && slices.Equal(ctx[:len(cut)], cut) {
			kept = append(kept, post{off: len(spare), n: len(ctx) - len(cut), d: p.d})
			spare = append(spare, ctx[len(cut):]...)
		} else {
			mm.bytes -= len(p.d.e) * entryBytes
		}
	}
	clear(mm.posts[len(kept):]) // release the dropped supports
	mm.posts, mm.toks, mm.spare = kept, spare, mm.toks
	mm.bound = len(seq)
}

// posterior returns the base posterior kept for seq, if any.
func (mm *Memo) posterior(seq []int) (Dist, bool) {
	if len(seq) < mm.bound {
		return Dist{}, false
	}
	beyond := seq[mm.bound:]
	for _, p := range mm.posts {
		if p.n == len(beyond) && slices.Equal(mm.toks[p.off:p.off+p.n], beyond) {
			return p.d, true
		}
	}
	return Dist{}, false
}

// keep records d as the base posterior for seq, within the cap.
func (mm *Memo) keep(seq []int, d Dist) {
	size := len(d.e) * entryBytes
	if len(seq) < mm.bound || mm.bytes+size > memoCap {
		return
	}
	beyond := seq[mm.bound:]
	mm.posts = append(mm.posts, post{off: len(mm.toks), n: len(beyond), d: d})
	mm.toks = append(mm.toks, beyond...)
	mm.bytes += size
}

// key returns view's keyword context.
func (mm *Memo) key(view []int) kwKey {
	k := kwKey{n: int32(min(len(view), mm.kwReach))}
	for i, id := range view[len(view)-int(k.n):] {
		k.ids[i] = int32(id)
	}
	return k
}

// newRun returns a zeroed run of n values filed under keyword context
// k. At the cap the keyword runs start over; a run that would not fit
// even then is not kept.
func (mm *Memo) newRun(k kwKey, n int) []float64 {
	size := n * valueBytes
	if mm.bytes+size > memoCap {
		for _, run := range mm.kwIdx {
			mm.bytes -= len(run) * valueBytes
		}
		mm.kwChunk = mm.kwChunk[:0]
		clear(mm.kwIdx)
		if mm.bytes+size > memoCap {
			return make([]float64, n)
		}
	}
	if mm.kwIdx == nil {
		mm.kwIdx = map[kwKey][]float64{}
	}
	if cap(mm.kwChunk)-len(mm.kwChunk) < n {
		mm.kwChunk = make([]float64, 0, max(2*cap(mm.kwChunk), n, kwChunkMin))
	}
	start := len(mm.kwChunk)
	mm.kwChunk = mm.kwChunk[:start+n]
	run := mm.kwChunk[start : start+n : start+n]
	clear(run) // a chunk the cap emptied still holds its old runs
	mm.kwIdx[k] = run
	mm.bytes += size
	return run
}

// kwFactors returns the keyword expert's evidence for a keyword view: a
// run aligned with mm.kw.ids, each id's best probability over the
// prompt's keywords (read each one's factor with scratch.factor), empty
// when no keyword is trained. Ids outside the support take
// m.kwFloorPow, as does an id of the support no keyword predicts here
// (its value is 0). The run is valid until the next prediction call on
// mm.
//
// Each token keeps its best supporting evidence across the prompt's
// keywords (max, not mean: averaging dilutes the one keyword that knows
// the answer with the many that don't). Each keyword's prediction is
// predictHashed's, by the same float operations in the same order: its
// levels above 0 are scattered into sc.acc, longest context first, and
// its level-0 run, which holds every id they hold, is walked twice in
// ascending id order, once to add level 0 (each count over the level's
// total, divided once per decode) and sum the normaliser, once to
// divide and keep the larger value in the run.
func (g *Gen) kwFactors(sc *scratch, mm *Memo, view []int) []float64 {
	k := mm.key(view)
	if run, ok := mm.kwIdx[k]; ok {
		return run
	}
	sup := mm.support(&sc.acc)
	if len(sup.ids) == 0 {
		return nil
	}
	best := mm.newRun(k, len(sup.ids))
	t := g.m.kw
	sc.acc.fit(t.idBound)
	acc := sc.acc.v
	hs := t.hashes(view)
	for _, s := range sup.seeds {
		weight := 1.0
		for i := hs.n - 1; i > 0 && weight >= 1e-9; i-- {
			l := &s.part[i]
			r := l.find(fmix(hs.h[i] ^ s.ms))
			if r == nil || r.total <= 0 {
				continue
			}
			keep := r.total / (r.total + wbScale*float64(r.n))
			scale, total := weight*keep, r.total
			for _, e := range l.slab[r.start : r.start+r.n] {
				acc[e.id] += scale * (e.v / total)
			}
			weight *= 1 - keep
		}
		total := 0.0
		if weight >= 1e-9 { // level 0 keeps all the remaining mass
			for k, id := range s.ids {
				acc[id] += weight * s.q[k]
				total += acc[id]
			}
		} else {
			for _, id := range s.ids {
				total += acc[id]
			}
		}
		for k, id := range s.ids {
			p := acc[id]
			acc[id] = 0
			if total > 0 {
				p /= total
			}
			// max(best[j], p): p is never NaN or -0.
			if j := s.at[k]; p > best[j] {
				best[j] = p
			}
		}
	}
	return best
}
