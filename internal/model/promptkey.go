package model

import (
	"repro/internal/tokenizer"
)

// This file is the single home of prompt-key canonicalization. Every
// layer that keys on a prompt — the decoder's own conditioning, the
// serving layer's result-cache and single-flight keys, and the prefix
// trie — derives its key through these helpers, so the key spaces can
// never drift apart.

// CanonicalPromptIDs renders a natural-language description into the
// exact token-id sequence the decoder conditions on: <bos> plus the
// BPE encoding of the Alpaca-style training template. Two descriptions
// that tokenize identically are the same prompt everywhere — same
// decode, same cache entry, same trie path.
func CanonicalPromptIDs(tok *tokenizer.Tokenizer, desc string) []int {
	return append([]int{tokenizer.BosID}, tok.Encode(FormatPrompt(desc))...)
}

// PromptKeyString packs a token-id sequence into a compact, collision-
// free string key (4 little-endian bytes per id; length is implicit in
// the fixed width). Unlike a hash it cannot conflate distinct prompts,
// which matters for the serving result cache — a collision there would
// return the wrong generation, not just rebuild a session. Handles any
// byte content losslessly: ids derived from prompts with embedded NUL,
// invalid UTF-8 or empty text all round-trip distinctly.
func PromptKeyString(ids []int) string {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
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
	// PinnedPages/PinnedBytes count the sessions currently held
	// resident by live decode leases and their retained bytes; Leases
	// is the lifetime Acquire count.
	PinnedPages int
	PinnedBytes int64
	Leases      uint64
}

// Lookups is the total number of cache probes.
func (s SessionStats) Lookups() uint64 { return s.Hits + s.PartialHits + s.Misses }

// HitRate is the fraction of lookups that reused any prefix (exact or
// partial), 0 when idle.
func (s SessionStats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits+s.PartialHits) / float64(l)
	}
	return 0
}
