//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// prediction scratch would be reallocated and the counts below would
// measure the detector, not the decoder.

package core

import (
	"testing"

	"repro/internal/model"
)

// maxAllocsPerCleanToken bounds heap allocations per clean token of a
// whole decode (session from a warm trie cache, so the loop is what is
// counted). Measured on this fixture (counter prompt, T = 0.5, seed 1):
// ntp 61.2 and ours 165.8 when prediction built a map per call and each
// step copied the clean history; 3.5 and 9.6 since the model is frozen
// and the no-repeat check hashes in place. The bound sits between the
// two, so either regression turns the gate red.
const maxAllocsPerCleanToken = 40

func TestGateAllocsDecode(t *testing.T) {
	for _, c := range []struct {
		scheme   model.Scheme
		strategy string
	}{{model.SchemeNTP, "ntp"}, {model.SchemeOurs, "ours"}} {
		m := trained(t, c.scheme)
		d := NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
		ids := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[1].Prompt)
		opts := Options{Strategy: c.strategy, Temperature: 0.5, Seed: 1}
		clean := len(d.GenerateFrom(ids, opts).CleanTokens)
		if clean == 0 {
			t.Fatalf("%s: empty decode", c.strategy)
		}
		perToken := testing.AllocsPerRun(10, func() { d.GenerateFrom(ids, opts) }) / float64(clean)
		t.Logf("%s: %.1f allocs per clean token over %d clean tokens", c.strategy, perToken, clean)
		if perToken > maxAllocsPerCleanToken {
			t.Errorf("%s: %.1f allocs per clean token, want <= %d", c.strategy, perToken, maxAllocsPerCleanToken)
		}
	}
}
