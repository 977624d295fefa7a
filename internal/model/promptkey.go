package model

import (
	"repro/internal/tokenizer"
)

// CanonicalPromptIDs renders a natural-language description into the
// exact token-id sequence the decoder conditions on and the prefix trie
// keys on: <bos> plus the BPE encoding of the Alpaca-style training
// template.
func CanonicalPromptIDs(tok *tokenizer.Tokenizer, desc string) []int {
	return append([]int{tokenizer.BosID}, tok.Encode(FormatPrompt(desc))...)
}

// SessionStats is the counter snapshot of the session cache.
type SessionStats struct {
	// Hits counts exact whole-prompt reuses; PartialHits counts reuses
	// of a strict prefix; Misses counts from-scratch session builds.
	Hits, PartialHits, Misses uint64
	// TokensSaved is the total number of prompt tokens whose session
	// preparation was skipped by reuse (full prompt length on an exact
	// hit, matched prefix length on a partial hit).
	TokensSaved uint64
	// Entries is the current number of cached sessions; Bytes is the
	// cache's estimated retained memory.
	Entries int
	Bytes   int64
}
