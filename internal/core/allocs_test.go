//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// prediction scratch would be reallocated and the counts below would
// measure the detector, not the decoder.

package core

import (
	"context"
	"testing"

	"repro/internal/model"
)

// TestGateAllocsDecode bounds heap allocations per clean token of a
// whole decode (session from a warm trie cache, so the loop is what is
// counted) for every registered strategy, on this fixture (counter
// prompt, T = 0.5, seed 1). Each bound is 1.25× the count measured when
// the drafter contract became one Draft per step, or lower where a
// later change measurably cut it: the head-drafting rows since heads
// are built on demand into the memo (before it: medusa 6.4, ours 9.2,
// medusa-tree 12.6, ours-tree 18.8, grammar-tree 97.2), and the grammar
// rows since each decode carries one syntax-oracle state across its
// steps (before it: grammar-tree 95.4, grammar-lookup-tree 71.1,
// measured then at 93.4 and 69.3). So a regression
// of a quarter in any one strategy turns the gate red. For scale: ntp
// 61.2 and ours 165.8 when prediction built a map per call and each
// step copied the clean history.
func TestGateAllocsDecode(t *testing.T) {
	models := map[model.Scheme]*model.Model{}
	for _, c := range []struct {
		scheme   model.Scheme
		strategy string
		measured float64
	}{
		{model.SchemeNTP, "ntp", 3.5},
		{model.SchemeMedusa, "medusa", 5.6},
		{model.SchemeOurs, "ours", 7.4},
		{model.SchemeNTP, "prompt-lookup", 4.8},
		{model.SchemeMedusa, "medusa-tree", 11.8},
		{model.SchemeNTP, "lookup-tree", 5.7},
		{model.SchemeOurs, "ours-tree", 17.0},
		{model.SchemeOurs, "grammar-tree", 48.5},
		{model.SchemeNTP, "grammar-lookup-tree", 30.1},
	} {
		m := models[c.scheme]
		if m == nil {
			m = trained(t, c.scheme)
			models[c.scheme] = m
		}
		d := NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
		ids := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[1].Prompt)
		opts := Options{Strategy: c.strategy, Temperature: 0.5, Seed: 1}
		res, err := runDecode(context.Background(), d, ids, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		clean := len(res.CleanTokens)
		if clean == 0 {
			t.Fatalf("%s: empty decode", c.strategy)
		}
		perToken := testing.AllocsPerRun(10, func() { runDecode(context.Background(), d, ids, opts, nil) }) / float64(clean)
		bound := 1.25 * c.measured
		t.Logf("%s: %.1f allocs per clean token over %d clean tokens (bound %.1f)", c.strategy, perToken, clean, bound)
		if perToken > bound {
			t.Errorf("%s: %.1f allocs per clean token, want <= %.1f", c.strategy, perToken, bound)
		}
	}
}
