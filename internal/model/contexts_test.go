package model_test

import (
	"testing"

	"repro/internal/model"
)

// TestContextKeysExact holds the context keys collision-free on vgend's
// corpus: for both backbones' Ours models, every level of every table
// (base, keyword, each head) froze exactly as many contexts as its
// observations held distinct exact contexts (seed and ids). Two
// contexts sharing a key would merge their counts and show as a
// shortfall.
func TestContextKeysExact(t *testing.T) {
	_, examples := vgendCorpus()
	for _, cfg := range []model.Config{model.CodeLlamaSim(), model.CodeT5pSim()} {
		tk := model.TrainTokenizer(cfg, examples)
		total, kw := 0, 0
		for _, l := range model.ContextCounts(tk, cfg, model.SchemeOurs, examples) {
			if l.Frozen != l.Exact {
				t.Errorf("%s %s level %d: %d contexts frozen, %d distinct observed", cfg.Name, l.Table, l.K, l.Frozen, l.Exact)
			}
			total += l.Exact
			if l.Table == "kw" {
				kw += l.Exact
			}
		}
		t.Logf("%s: %d contexts over every table and level, %d of them keyword-seeded", cfg.Name, total, kw)
	}
}
