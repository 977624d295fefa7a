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
package model

import (
	"math"
	"sort"
)

// Dist is a sparse probability distribution over token ids. Mass not
// present in P is treated as (approximately) zero; distributions are
// always normalized at construction.
type Dist struct {
	P map[int]float64
}

// Prob returns the probability of token id.
func (d Dist) Prob(id int) float64 { return d.P[id] }

// Entropy returns the Shannon entropy (nats) of the distribution — the
// H(p_base) term of the paper's typical-acceptance rule (eq. 1).
func (d Dist) Entropy() float64 {
	h := 0.0
	for _, p := range d.P {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Argmax returns the most probable token, breaking ties by the smaller
// id for determinism.
func (d Dist) Argmax() int {
	best, bestP := -1, -1.0
	for id, p := range d.P {
		if p > bestP || (p == bestP && id < best) {
			best, bestP = id, p
		}
	}
	return best
}

// TopK returns the k most probable token ids in descending probability
// (ties by ascending id).
func (d Dist) TopK(k int) []int {
	type tp struct {
		id int
		p  float64
	}
	all := make([]tp, 0, len(d.P))
	for id, p := range d.P {
		all = append(all, tp{id, p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// Sample draws a token at the given temperature using u ∈ [0,1).
// Temperature 0 (or below) is greedy. Iteration order is made
// deterministic by sorting ids.
func (d Dist) Sample(temp, u float64) int {
	if temp <= 0 {
		return d.Argmax()
	}
	ids := make([]int, 0, len(d.P))
	for id := range d.P {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Temperature reshaping: p^(1/T), renormalized.
	inv := 1.0 / temp
	total := 0.0
	w := make([]float64, len(ids))
	for i, id := range ids {
		w[i] = math.Pow(d.P[id], inv)
		total += w[i]
	}
	if total <= 0 {
		return d.Argmax()
	}
	target := u * total
	acc := 0.0
	for i, id := range ids {
		acc += w[i]
		if target < acc {
			return id
		}
	}
	return ids[len(ids)-1]
}

// normalize scales the map to sum to one (no-op for empty maps).
func normalize(p map[int]float64) {
	total := 0.0
	for _, v := range p {
		total += v
	}
	if total <= 0 {
		return
	}
	for k, v := range p {
		p[k] = v / total
	}
}

// mix returns (1-g)*a + g*b over the union support, normalized.
func mix(a, b map[int]float64, g float64) map[int]float64 {
	out := make(map[int]float64, len(a)+len(b))
	for k, v := range a {
		out[k] += (1 - g) * v
	}
	for k, v := range b {
		out[k] += g * v
	}
	normalize(out)
	return out
}
