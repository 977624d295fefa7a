package model

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tokenizer"
)

// TestPromptKeyTrickyPrompts drives CanonicalPromptIDs over the prompts
// that break naive keys: unicode (multi-byte runes, including ones
// whose lowercasing folds to ASCII), embedded NUL, empty input, and
// near-identical spellings. Every sequence starts with <bos>, and
// distinct texts get distinct ids: the encoding is lossless, which is
// what lets the result cache key on the text alone.
func TestPromptKeyTrickyPrompts(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	prompts := []struct {
		name, desc string
	}{
		{"empty", ""},
		{"plain", "Create a 4-bit adder."},
		{"plain-dup", "Create a 4-bit adder."},
		{"trailing-space", "Create a 4-bit adder. "},
		{"unicode", "Créate a 4-bit addér — schnell."},
		{"kelvin-sign", "Create a 4-bit adder in \u212Aelvin mode."},
		{"kelvin-ascii", "Create a 4-bit adder in Kelvin mode."},
		{"embedded-nul", "Create a 4-bit\x00adder."},
		{"nul-only", "\x00"},
		{"newlines", "Create a 4-bit adder.\nmodule adder (\n"},
		{"long", string(make([]byte, 300)) + "adder"},
	}
	// U+212A lowercases (and NFKC-normalises) to ASCII: a key that folded
	// or normalised the text would merge these two entries.
	if k, a := prompts[5].desc, prompts[6].desc; k == a || strings.ToLower(k) != strings.ToLower(a) {
		t.Fatalf("kelvin pair %q, %q no longer folds to one lowercase form", k, a)
	}
	ids := make([][]int, len(prompts))
	for i, p := range prompts {
		ids[i] = CanonicalPromptIDs(tk, p.desc)
		if len(ids[i]) == 0 || ids[i][0] != tokenizer.BosID {
			t.Fatalf("%s: canonical ids must start with <bos>, got %v", p.name, ids[i])
		}
	}
	for i, a := range prompts {
		for j, b := range prompts[:i] {
			if got, want := slices.Equal(ids[i], ids[j]), a.desc == b.desc; got != want {
				t.Errorf("%s vs %s: ids equal %v, texts equal %v", a.name, b.name, got, want)
			}
		}
	}
}
