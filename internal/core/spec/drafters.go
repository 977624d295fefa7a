package spec

import "repro/internal/tokenizer"

// NoDraft proposes nothing: the strategy decodes one token per forward
// pass (conventional NTP decoding).
type NoDraft struct{}

// Name identifies the drafter.
func (NoDraft) Name() string { return "no-draft" }

// NeedsHeads reports that no head candidates are consumed.
func (NoDraft) NeedsHeads() bool { return false }

// Draft proposes nothing.
func (NoDraft) Draft(DraftCtx, int) Draft { return Draft{} }

// MedusaHeads drafts from the model's trained decoding heads: draft
// position i proposes the top-k candidates of head i, exactly Medusa's
// candidate tree restricted to the longest accepted prefix.
type MedusaHeads struct{}

// Name identifies the drafter.
func (MedusaHeads) Name() string { return "medusa-heads" }

// NeedsHeads reports that head candidates are required.
func (MedusaHeads) NeedsHeads() bool { return true }

// Draft exposes the step's heads as the chain; a model with no trained
// heads (an NTP backbone asked to decode medusa-style) proposes nothing
// at all.
func (MedusaHeads) Draft(dc DraftCtx, _ int) Draft {
	return Draft{Chain: Chain{Heads: dc.Forward, TopK: dc.TopK}}
}

// Prompt-lookup shape: matches shorter than lookupMinMatch fire on
// purely structural patterns (a lone "input" keyword) and derail
// drafting into noise; spans longer than lookupSpan stop paying off
// because the verifier rejects the tail anyway.
const (
	lookupMinMatch   = 3
	lookupSpan       = 10
	maxLookupSuffix  = 8
	minLookupHistory = 2
)

// PromptLookup is a self-speculative drafter (prompt-lookup / n-gram
// suffix matching, per "Speculative Decoding: Exploiting Speculative
// Execution for Accelerating Seq2seq Generation"): the current suffix —
// including the just-sampled base token — is matched against the prompt
// plus everything generated so far, and the tokens that followed the
// most recent previous occurrence are proposed as the draft. RTL is
// extremely template-heavy (port lists, sensitivity lists, case arms),
// so lookup hits are frequent; no trained heads are needed, and the
// drafting cost is zero forward passes.
type PromptLookup struct{}

// Name identifies the drafter.
func (PromptLookup) Name() string { return "prompt-lookup" }

// NeedsHeads reports that no head candidates are consumed: an
// n-gram scan is free next to a forward pass, which is the whole appeal
// of self-speculative drafting.
func (PromptLookup) NeedsHeads() bool { return false }

// Draft matches the current suffix against the full sequence and
// proposes the continuation of its most recent previous occurrence as
// the chain.
func (PromptLookup) Draft(dc DraftCtx, _ int) Draft {
	return Draft{Chain: Chain{Run: lookupRun(dc.sequence(), lookupMinMatch, lookupSpan)}}
}

// sequence is Seq followed by Prefix, in a fresh slice.
func (dc DraftCtx) sequence() []int {
	seq := make([]int, 0, len(dc.Seq)+len(dc.Prefix))
	seq = append(seq, dc.Seq...)
	return append(seq, dc.Prefix...)
}

// lookupRun finds the longest suffix of seq (capped at maxLookupSuffix)
// that re-occurs earlier in seq, preferring the most recent occurrence,
// and returns up to maxSpan historical tokens that followed it.
func lookupRun(seq []int, minMatch, maxSpan int) []int {
	n := len(seq)
	if n < minMatch+minLookupHistory {
		return nil
	}
	maxK := maxLookupSuffix
	if maxK > n-1 {
		maxK = n - 1
	}
	for k := maxK; k >= minMatch; k-- {
		suffix := seq[n-k:]
		// j is the match end; j <= n-2 keeps at least one continuation
		// token of history, and scanning downward prefers recency.
		for j := n - 2; j >= k-1; j-- {
			match := true
			for x := 0; x < k; x++ {
				if seq[j-k+1+x] != suffix[x] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			end := j + 1 + maxSpan
			if end > n {
				end = n
			}
			run := make([]int, 0, end-j-1)
			for _, id := range seq[j+1 : end] {
				// Never re-propose sequence machinery: a historical
				// <bos> marks a boundary lookahead must not cross.
				if id == tokenizer.BosID {
					break
				}
				run = append(run, id)
			}
			if len(run) == 0 {
				return nil
			}
			return run
		}
	}
	return nil
}
