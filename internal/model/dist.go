// Package model implements the repository's substitute for the paper's
// GPU language models (CodeLlama-7b, CodeT5p-220m): a deterministic
// statistical language model over BPE token ids — an interpolated
// backoff n-gram with an induction-style prompt-copy mechanism — plus
// Medusa-style decoding heads that predict tokens at offsets 2..n+1.
//
// Everything the paper's method touches exists here with the same
// semantics: per-head next-token distributions, entropies for the
// typical-acceptance test, and training labels that genuinely change
// head quality. The NTP / Medusa-2 / syntax-enriched ("Ours") training
// schemes therefore differ mechanistically rather than by construction
// — but they do not yet reproduce the paper's orderings: Medusa
// currently decodes faster than Ours and NTP wins on quality. What is
// asserted today (internal/experiments) is only that each speculative
// scheme's simulated speedup over NTP exceeds 1.5; ROADMAP item 1
// tracks reproducing the orderings.
//
// A prompt's conditioning state is a session (*Gen), immutable once
// built, so each decode simply holds its own. A decode's mutable state
// lives beside it in its own Memo, which remembers what the decode's
// model calls already computed. TrieCache shares sessions across decodes
// by token prefix, forking a cached prefix over only the uncached
// suffix, and evicts by byte budget in LRU order.
package model

import (
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// entry is one (token id, value) pair: a successor count in a frozen
// n-gram table, a probability in a Dist.
type entry struct {
	id int32
	v  float64
}

// Dist is a sparse probability distribution over token ids: the support
// as a slice sorted by ascending id. Ids outside it have probability
// zero. Distributions are normalized at construction, and every sum over
// one runs in ascending id order, so a Dist and everything derived from
// it are bitwise repeatable. A Dist is immutable; copies share storage.
type Dist struct {
	e []entry
	// h is where a posterior the model built keeps its entropy once
	// computed, for every copy: the bits of H in h.v, stored atomically,
	// 0 until then (an entropy of +0 is recomputed). Nil elsewhere.
	h *entry
}

// newPosterior returns a distribution over a copy of e that keeps its
// entropy, in one allocation with its support.
func newPosterior(e []entry) Dist {
	buf := make([]entry, len(e)+1)
	copy(buf, e)
	return Dist{e: buf[:len(e):len(e)], h: &buf[len(e)]}
}

// NewDist builds a distribution from an id→probability map, taken as
// given (callers normalize). It is for tests and tools; the model builds
// its distributions directly.
func NewDist(p map[int]float64) Dist {
	e := make([]entry, 0, len(p))
	for _, id := range slices.Sorted(maps.Keys(p)) {
		e = append(e, entry{int32(id), p[id]})
	}
	return Dist{e: e}
}

// Prob returns the probability of token id.
func (d Dist) Prob(id int) float64 {
	if i, ok := d.find(id); ok {
		return d.e[i].v
	}
	return 0
}

// find binary-searches the support for id.
func (d Dist) find(id int) (int, bool) {
	return slices.BinarySearchFunc(d.e, id, func(e entry, id int) int { return int(e.id) - id })
}

// Entropy returns the Shannon entropy (nats) of the distribution — the
// H(p_base) term of the paper's typical-acceptance rule (eq. 1). A
// posterior computes it once: a tree sweep screens each child of a
// parent against the parent's posterior.
func (d Dist) Entropy() float64 {
	var kept *uint64
	if d.h != nil {
		kept = (*uint64)(unsafe.Pointer(&d.h.v))
		if b := atomic.LoadUint64(kept); b != 0 {
			return math.Float64frombits(b)
		}
	}
	h := 0.0
	for _, e := range d.e {
		if e.v > 0 {
			h -= e.v * math.Log(e.v)
		}
	}
	if kept != nil {
		atomic.StoreUint64(kept, math.Float64bits(h))
	}
	return h
}

// Argmax returns the most probable token, breaking ties by the smaller
// id for determinism (-1 for an empty distribution).
func (d Dist) Argmax() int {
	best, bestP := -1, -1.0
	for _, e := range d.e {
		if e.v > bestP {
			best, bestP = int(e.id), e.v
		}
	}
	return best
}

// TopK returns the k most probable token ids in descending probability
// (ties by ascending id), by partial selection over the support.
func (d Dist) TopK(k int) []int {
	return d.TopKTo(make([]int, 0, max(0, min(k, len(d.e)))), k)
}

// TopKTo is TopK appending to dst, so a caller that keeps dst reads
// candidates without allocating.
func (d Dist) TopKTo(dst []int, k int) []int {
	k = max(0, min(k, len(d.e)))
	if k == 0 {
		return dst
	}
	base := len(dst) // dst[base:] holds support indices until the final pass
	for i, e := range d.e {
		if len(dst)-base == k {
			// Ascending ids: an equal probability loses to the incumbent.
			if e.v <= d.e[dst[len(dst)-1]].v {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		j := len(dst)
		dst = append(dst, i)
		for ; j > base && d.e[dst[j-1]].v < e.v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	for j := base; j < len(dst); j++ {
		dst[j] = int(d.e[dst[j]].id)
	}
	return dst
}

// Sample draws a token at the given temperature using u ∈ [0,1).
// Temperature 0 (or below) is greedy. The tempered weights p^(1/T) are
// computed once, in ascending id order, into *weights — the caller's
// scratch, grown as needed and reused across calls (nil: a throwaway) —
// and the CDF is walked over them in the same order.
func (d Dist) Sample(temp, u float64, weights *[]float64) int {
	if temp <= 0 {
		return d.Argmax()
	}
	if weights == nil {
		weights = new([]float64)
	}
	inv := 1.0 / temp
	w := (*weights)[:0]
	total := 0.0
	for _, e := range d.e {
		// At T = 0.5 the weight is p*p, bit for bit math.Pow(p, 2): that
		// squares p's Frexp mantissa once and scales it by a power of two,
		// the same one rounding whenever the square is normal. Scaling to
		// a subnormal rounds twice, so such a square takes math.Pow.
		x := e.v * e.v
		if inv != 2 || !(x >= 0x1p-1022 && x <= math.MaxFloat64) {
			x = math.Pow(e.v, inv)
		}
		w = append(w, x)
		total += x
	}
	*weights = w
	if total <= 0 {
		return d.Argmax()
	}
	target := u * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if target < acc {
			return int(d.e[i].id)
		}
	}
	return int(d.e[len(d.e)-1].id)
}

// normalize scales the values of an id-sorted run to sum to one,
// summing in ascending id order (no-op when the mass is not positive).
func normalize(e []entry) {
	total := 0.0
	for _, x := range e {
		total += x.v
	}
	if total <= 0 {
		return
	}
	for i := range e {
		e[i].v /= total
	}
}
