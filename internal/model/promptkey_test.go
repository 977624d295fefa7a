package model

import (
	"slices"
	"testing"

	"repro/internal/tokenizer"
)

// TestPromptKeyTrickyPrompts drives the shared canonicalization helpers
// over the prompts that break naive string keys: unicode (multi-byte
// runes, including ones whose lowercasing folds to ASCII), embedded
// NUL, empty input, and near-identical spellings. Distinct token
// sequences must get distinct keys; identical tokenizations must
// collapse onto one key however they were spelled.
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
		{"kelvin-sign", "Create a 4-bit adder in Kelvin mode."},
		{"embedded-nul", "Create a 4-bit\x00adder."},
		{"nul-only", "\x00"},
		{"newlines", "Create a 4-bit adder.\nmodule adder (\n"},
		{"long", string(make([]byte, 300)) + "adder"},
	}
	type keyed struct {
		name string
		ids  []int
		key  string
	}
	var all []keyed
	for _, p := range prompts {
		ids := CanonicalPromptIDs(tk, p.desc)
		if len(ids) == 0 || ids[0] != tokenizer.BosID {
			t.Fatalf("%s: canonical ids must start with <bos>, got %v", p.name, ids)
		}
		all = append(all, keyed{name: p.name, ids: ids, key: PromptKeyString(ids)})
	}
	for i, a := range all {
		for j, b := range all {
			if i >= j {
				continue
			}
			idsEqual := slices.Equal(a.ids, b.ids)
			if (a.key == b.key) != idsEqual {
				t.Errorf("%s vs %s: key equality %v but token equality %v",
					a.name, b.name, a.key == b.key, idsEqual)
			}
		}
	}
	// The dup spelling must share everything with its original.
	if all[1].key != all[2].key {
		t.Error("identical prompts produced different keys")
	}
	// PromptKeyString must be reversible in width: 4 bytes per id.
	for _, k := range all {
		if len(k.key) != 4*len(k.ids) {
			t.Errorf("%s: key width %d, want %d", k.name, len(k.key), 4*len(k.ids))
		}
	}
}

// TestPromptKeyPrefixNotEqualWhole guards the classic concatenation
// pitfall: a prompt that is a strict token prefix of another must never
// share its key.
func TestPromptKeyPrefixNotEqualWhole(t *testing.T) {
	tk := tokenizer.Train(corpusText(), 400)
	full := CanonicalPromptIDs(tk, "Create an 8-bit counter with synchronous reset.")
	prefix := full[:len(full)-3]
	if PromptKeyString(full) == PromptKeyString(prefix) {
		t.Fatal("prefix and whole prompt share a string key")
	}
}
