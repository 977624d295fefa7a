package tokenizer

import "strings"

// This file exposes internals to the tests in package tokenizer_test,
// which build vgend's corpus and so cannot live in package tokenizer.

// TrainReference is the trainer Train replaced (see trainReference).
var TrainReference = trainReference

// Vocab returns a tokenizer's pieces and merge ranks.
func Vocab(t *Tokenizer) ([]string, map[[2]int]int) { return t.pieces, t.ranks }

// WordTable returns a tokenizer's word table, each word with its ids.
func WordTable(t *Tokenizer) map[string][]int {
	out := make(map[string][]int, len(t.words))
	for w, s := range t.words {
		out[w] = t.wordIDs[s.off : s.off+s.n]
	}
	return out
}

// MergeEncode encodes one word by merging, without the word table.
func MergeEncode(t *Tokenizer, word string) []int {
	return new(merger).encode(t.ranks, word, nil)
}

// Decode renders token ids back into text. Special tokens render as
// their bracketed names; use DecodeClean to drop them.
func (t *Tokenizer) Decode(ids []int) string {
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(t.Token(id))
	}
	return sb.String()
}
