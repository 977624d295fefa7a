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
// built, so each decode simply holds its own. TrieCache shares sessions
// across decodes by token prefix, forking a cached prefix over only the
// uncached suffix, and evicts by byte budget in LRU order.
package model

import (
	"maps"
	"math"
	"slices"
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
// H(p_base) term of the paper's typical-acceptance rule (eq. 1).
func (d Dist) Entropy() float64 {
	h := 0.0
	for _, e := range d.e {
		if e.v > 0 {
			h -= e.v * math.Log(e.v)
		}
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
	k = max(0, min(k, len(d.e)))
	out := make([]int, 0, k) // support indices until the final pass
	if k == 0 {
		return out
	}
	for i, e := range d.e {
		if len(out) == k {
			// Ascending ids: an equal probability loses to the incumbent.
			if e.v <= d.e[out[k-1]].v {
				continue
			}
			out = out[:k-1]
		}
		j := len(out)
		out = append(out, i)
		for ; j > 0 && d.e[out[j-1]].v < e.v; j-- {
			out[j] = out[j-1]
		}
		out[j] = i
	}
	for j, i := range out {
		out[j] = int(d.e[i].id)
	}
	return out
}

// Sample draws a token at the given temperature using u ∈ [0,1).
// Temperature 0 (or below) is greedy. The CDF is walked in ascending id
// order over the tempered weights p^(1/T); the weights are recomputed on
// the walk rather than stored (math.Pow is deterministic).
func (d Dist) Sample(temp, u float64) int {
	if temp <= 0 {
		return d.Argmax()
	}
	inv := 1.0 / temp
	total := 0.0
	for _, e := range d.e {
		total += math.Pow(e.v, inv)
	}
	if total <= 0 {
		return d.Argmax()
	}
	target := u * total
	acc := 0.0
	for _, e := range d.e {
		acc += math.Pow(e.v, inv)
		if target < acc {
			return int(e.id)
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
