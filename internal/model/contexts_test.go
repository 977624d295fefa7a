package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
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

// TestKwSupportNested holds the keyword expert's support exact: on the
// package's fixture (every scheme) and on vgend's corpus (both
// backbones' Ours models), every run above level 0 that a keyword's
// observations reach holds only ids of that keyword's level-0 run. The
// expert resolves a decode's support from the level-0 runs alone
// (Memo.support), so a run outside it would lose ids. A walk that stops
// before level 0 would still be exact, but none is expected, and it is
// logged.
func TestKwSupportNested(t *testing.T) {
	check := func(name string, tk *tokenizer.Tokenizer, cfg model.Config, scheme model.Scheme, examples []model.Example) {
		reached, outside, early := model.KwNesting(tk, cfg, scheme, examples)
		t.Logf("%s: %d keyword runs above level 0 reached, %d outside their level-0 run, %d walks stop early", name, reached, outside, early)
		if reached == 0 || outside != 0 {
			t.Errorf("%s: %d of %d keyword runs hold an id outside their keyword's level-0 run", name, outside, reached)
		}
	}
	tk, cfg, examples := model.Fixture()
	for _, scheme := range []model.Scheme{model.SchemeNTP, model.SchemeMedusa, model.SchemeOurs} {
		check("fixture "+scheme.String(), tk, cfg, scheme, examples)
	}
	_, examples = vgendCorpus()
	for _, cfg := range []model.Config{model.CodeLlamaSim(), model.CodeT5pSim()} {
		check(cfg.Name, model.TrainTokenizer(cfg, examples), cfg, model.SchemeOurs, examples)
	}
}
