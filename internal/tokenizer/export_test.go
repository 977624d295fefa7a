package tokenizer

// This file exposes internals to the tests in package tokenizer_test,
// which build vgend's corpus and so cannot live in package tokenizer.

// TrainReference is the trainer Train replaced (see trainReference).
var TrainReference = trainReference

// Vocab returns a tokenizer's pieces and merge ranks.
func Vocab(t *Tokenizer) ([]string, map[[2]int]int) { return t.pieces, t.ranks }
