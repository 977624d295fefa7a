package model

import "slices"

// This file exposes internals to the benchmarks in package model_test,
// which train on the dataset package and so cannot live in package
// model.

// View returns the filtered context view g's tables read for seq.
func (g *Gen) View(seq []int) []int { return slices.Clone(g.clippedView(new(scratch), seq)) }

// Predictor returns one op of predict over a view for a table kind:
// "base", "kw" (under the session's first keyword seed) or "head" (the
// heads in turn). Every op predicts into one reused buffer and
// accumulator and returns the support size.
func (g *Gen) Predictor(kind string) func(view []int) int {
	var dst []entry
	acc := new(accum)
	next := 0
	return func(view []int) int {
		t, seed := g.m.base, uint64(0)
		switch kind {
		case "kw":
			t, seed = g.m.kw, g.seeds[0]
		case "head":
			t = g.m.heads[next%len(g.m.heads)]
			next++
		}
		dst = t.predict(acc, dst[:0], view, seed)
		return len(dst)
	}
}
