package model

import (
	"math"
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
//   - The keyword expert's factors per keyword context: the id-sorted
//     run of each supported id's best probability p over the prompt's
//     keywords, replaced by its factor Pow(kwFloor+p, PromptBlend) once
//     a table has asked for it. The keyword tables reach back only as
//     far as their top ladder level r, so the key is the last r tokens
//     of the keyword view plus min(len, r) — exact, not a hash. Most of
//     a decode's keyword contexts repeat one it has seen. Runs are
//     appended into chunks that never grow in place, so a run never
//     moves and nothing is copied as the memo fills: a run that does
//     not fit the current chunk opens one at least twice its size.
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
// earlier one. It holds at most memoCap bytes. The zero Memo is ready to
// use; it is not safe for concurrent use.
type Memo struct {
	gen *Gen // the session the cached values belong to

	kwReach int               // r: the keyword tables' longest context
	kwIdx   map[kwKey][]entry // keyword context → its run, in a chunk
	kwChunk []entry           // the chunk new runs are appended to

	bound int    // the sequence length at the last NextStep
	posts []post // posteriors since bound, in order of computation
	toks  []int  // the posts' contexts beyond bound, back to back
	spare []int  // NextStep's second toks buffer

	bytes int // the keyword runs plus the posts' supports, in bytes

	heads headSet // the last ForwardMemo's heads
}

// memoCap bounds a Memo's cached bytes. A 512-token decode holds about
// 0.2 MB on average and 0.6 MB at most (CodeLlama-sim, the bench
// prompts); past the cap the keyword runs start over and posteriors are
// not kept.
const memoCap = 1 << 20

// kwChunkMin is the smallest keyword chunk, in entries.
const kwChunkMin = 64

// kwKey is a keyword view as far as the keyword tables see it: its last
// n = min(len, r) tokens.
type kwKey struct {
	n   int32
	ids [maxReach]int32
}

// kwFactor returns the keyword factor of a keyword evidence entry,
// Pow(kwFloor+p, eta), computing it on first use. An entry's value is
// the id's best keyword probability p >= 0 until then and the factor
// negated from then on: every factor is positive, and negation is exact,
// so the factor is read back bit for bit.
func kwFactor(e *entry, eta float64) float64 {
	if e.v >= 0 {
		e.v = -math.Pow(kwFloor+e.v, eta)
	}
	return -e.v
}

// post is one posterior and its context beyond the boundary,
// toks[off:off+n].
type post struct {
	off, n int
	d      Dist
}

var entryBytes = int(unsafe.Sizeof(entry{}))

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

// keepFactors records the factors of keyword context k and returns the
// kept run (fac itself when it would not fit). At the cap the keyword
// runs start over.
func (mm *Memo) keepFactors(k kwKey, fac []entry) []entry {
	size := len(fac) * entryBytes
	if mm.bytes+size > memoCap {
		for _, run := range mm.kwIdx {
			mm.bytes -= len(run) * entryBytes
		}
		mm.kwChunk = mm.kwChunk[:0]
		clear(mm.kwIdx)
		if mm.bytes+size > memoCap {
			return fac
		}
	}
	if mm.kwIdx == nil {
		mm.kwIdx = map[kwKey][]entry{}
	}
	if cap(mm.kwChunk)-len(mm.kwChunk) < len(fac) {
		mm.kwChunk = make([]entry, 0, max(2*cap(mm.kwChunk), len(fac), kwChunkMin))
	}
	start := len(mm.kwChunk)
	mm.kwChunk = append(mm.kwChunk, fac...)
	run := mm.kwChunk[start:len(mm.kwChunk):len(mm.kwChunk)]
	mm.kwIdx[k] = run
	mm.bytes += size
	return run
}

// kwFactors returns the keyword expert's evidence for a keyword view:
// the id-sorted run of every id some keyword supports (read each one's
// factor with kwFactor), empty when no keyword predicts at all. Ids
// outside the run take m.kwFloorPow. The run is valid until the next
// prediction call on sc or mm.
func (g *Gen) kwFactors(sc *scratch, mm *Memo, view []int) []entry {
	k := mm.key(view)
	if run, ok := mm.kwIdx[k]; ok {
		return run
	}
	// Each token keeps its best supporting evidence across the prompt's
	// keywords (max, not mean: averaging dilutes the one keyword that
	// knows the answer with the many that don't): every keyword's
	// prediction is scattered into sc.best, keeping the larger value.
	best := &sc.best
	best.fit(g.m.kw.idBound)
	lo, hi := len(best.seen), -1
	hs := g.m.kw.hashes(view)
	for _, seed := range g.seeds {
		sc.kw = g.m.kw.predictHashed(&sc.acc, sc.kw[:0], &hs, seed)
		for _, e := range sc.kw {
			best.v[e.id] = max(best.v[e.id], e.v)
			best.seen[e.id>>6] |= 1 << (e.id & 63)
		}
		if len(sc.kw) > 0 {
			lo, hi = min(lo, int(sc.kw[0].id>>6)), max(hi, int(sc.kw[len(sc.kw)-1].id>>6))
		}
	}
	sc.fac, _ = best.gather(sc.fac[:0], lo, hi)
	return mm.keepFactors(k, sc.fac)
}
