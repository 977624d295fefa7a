package spec

import (
	"slices"

	"repro/internal/tokenizer"
)

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

// lookupScan is the one suffix-match scan both lookup drafters draft
// from. It matches suffixes of seq (the current suffix includes the
// just-sampled base token) against seq's history: suffix lengths
// longest-first, from maxLookupSuffix down to minMatch, and within a
// length, match ends newest-first, so the first occurrence is the
// longest, most recent one. For each occurrence it calls yield with
// the up to maxSpan tokens that followed it, cut at the first
// historical <bos> (a boundary lookahead must not cross), and stops
// when yield returns false. A run aliases seq, so yield must not
// write to it.
func lookupScan(seq []int, minMatch, maxSpan int, yield func(run []int) bool) {
	n := len(seq)
	if n < minMatch+minLookupHistory {
		return
	}
	for k := min(maxLookupSuffix, n-1); k >= minMatch; k-- {
		suffix := seq[n-k:]
		// j is the match end; j <= n-2 keeps at least one continuation
		// token of history. Most ends differ from the suffix's last
		// token, so that test rejects them before the full compare.
		for j := n - 2; j >= k-1; j-- {
			if seq[j] != seq[n-1] || !slices.Equal(seq[j-k+1:j+1], suffix) {
				continue
			}
			end := min(j+1+maxSpan, n)
			if b := slices.Index(seq[j+1:end], tokenizer.BosID); b >= 0 {
				end = j + 1 + b
			}
			if !yield(seq[j+1 : end : end]) {
				return
			}
		}
	}
}

// lookupRun is the linear draft: the continuation of the scan's first
// occurrence, or nil when that continuation is empty.
func lookupRun(seq []int, minMatch, maxSpan int) (run []int) {
	lookupScan(seq, minMatch, maxSpan, func(r []int) bool {
		run = r
		return false
	})
	if len(run) == 0 {
		return nil
	}
	return run
}
