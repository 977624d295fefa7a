package spec

import (
	"math"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// AcceptNone rejects every draft — the verifier of the NTP strategy,
// where drafting never happens and screening is vacuous.
type AcceptNone struct{}

// Name identifies the policy.
func (AcceptNone) Name() string { return "accept-none" }

// Accept rejects unconditionally.
func (AcceptNone) Accept(model.Dist, []int, VerifyParams) int { return -1 }

// Finalize keeps the run unchanged.
func (AcceptNone) Finalize(accepted []int) ([]int, int) { return accepted, 0 }

// TypicalAcceptance screens candidates with the paper's eq. 1: a
// candidate is accepted when its probability under the base model's
// posterior exceeds min(ε, δ·exp(−H)). Candidates are tried best-first
// and the first pass wins — Medusa's "longest accepted prefix among all
// candidates".
type TypicalAcceptance struct{}

// Name identifies the policy.
func (TypicalAcceptance) Name() string { return "typical" }

// Accept returns the first candidate passing the typical-acceptance
// threshold, or -1 when every candidate fails. The threshold is never
// above ε, so p > ε passes (for δ not NaN) and p = 0 fails (for ε, δ ≥
// 0) whatever the entropy; it is computed once, for a candidate between.
func (TypicalAcceptance) Accept(ver model.Dist, cands []int, p VerifyParams) int {
	threshold, known := 0.0, false
	for _, c := range cands {
		pc := ver.Prob(c)
		if pc > p.Epsilon && !math.IsNaN(p.Delta) {
			return c
		}
		if pc == 0 && p.Epsilon >= 0 && p.Delta >= 0 {
			continue
		}
		if !known {
			threshold, known = math.Min(p.Epsilon, p.Delta*math.Exp(-ver.Entropy())), true
		}
		if pc > threshold {
			return c
		}
	}
	return -1
}

// Finalize keeps the run unchanged.
func (TypicalAcceptance) Finalize(accepted []int) ([]int, int) { return accepted, 0 }

// GreedyExact accepts a candidate only when it is exactly the base
// model's argmax at the draft position — classic lossless speculative
// verification: a greedy decode through this policy emits the same
// token sequence conventional greedy decoding would, only in fewer
// forward passes.
type GreedyExact struct{}

// Name identifies the policy.
func (GreedyExact) Name() string { return "greedy-exact" }

// Accept returns the candidate matching the verification argmax, or -1.
func (GreedyExact) Accept(ver model.Dist, cands []int, _ VerifyParams) int {
	best := ver.Argmax()
	if best < 0 {
		return -1
	}
	for _, c := range cands {
		if c == best {
			return c
		}
	}
	return -1
}

// Finalize keeps the run unchanged.
func (GreedyExact) Finalize(accepted []int) ([]int, int) { return accepted, 0 }

// Integrity wraps an acceptance policy with the paper's §III-B
// integrity check: screening delegates to Inner, and Finalize truncates
// the accepted run at the last [FRAG] marker so every decoding step
// leaves the sequence on a complete syntactic fragment (or extends by
// the minimal lossless amount — the base token alone).
type Integrity struct {
	Inner Verifier
}

// Name identifies the policy as its inner policy plus the check.
func (v Integrity) Name() string { return v.Inner.Name() + "+frag" }

// Accept delegates screening to the wrapped policy.
func (v Integrity) Accept(ver model.Dist, cands []int, p VerifyParams) int {
	return v.Inner.Accept(ver, cands, p)
}

// Finalize truncates at the last [FRAG] marker.
func (v Integrity) Finalize(accepted []int) ([]int, int) {
	kept := IntegrityTruncate(accepted)
	return kept, len(accepted) - len(kept)
}

// IntegrityTruncate keeps the accepted run through its last [FRAG]
// marker; with no marker in the run only the base token survives. An
// empty run stays empty.
func IntegrityTruncate(accepted []int) []int {
	if len(accepted) == 0 {
		return accepted
	}
	last := -1
	for i, id := range accepted {
		if id == tokenizer.FragID {
			last = i
		}
	}
	if last == -1 {
		return accepted[:1]
	}
	return accepted[:last+1]
}
