package model

import (
	"fmt"
	"slices"

	"repro/internal/tokenizer"
)

// This file exposes internals to the benchmarks and tests in package
// model_test, which train on the dataset package and so cannot live in
// package model.

// View returns the filtered context view g's tables read for seq.
func (g *Gen) View(seq []int) []int { return slices.Clone(g.clippedView(new(scratch), seq)) }

// FindInduction is the session's induction match for seq: the match's
// end in the prompt and its length, or (-1, 0).
func (g *Gen) FindInduction(seq []int) (int, int) { return g.findInduction(seq) }

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

// KwMiss returns one op of the keyword expert's miss path over a view
// (its trailing [FRAG] markers stripped, as the base posterior strips
// them): each op forgets the runs its memo holds, so the view's run is
// built again from the decode's resolved keywords. It returns the run's
// length.
func (g *Gen) KwMiss() func(view []int) int {
	mm, sc := new(Memo), new(scratch)
	mm.bind(g)
	return func(view []int) int {
		for len(view) > 0 && view[len(view)-1] == tokenizer.FragID {
			view = view[:len(view)-1]
		}
		clear(mm.kwIdx)
		mm.kwChunk, mm.bytes = mm.kwChunk[:0], 0
		return len(g.kwFactors(sc, mm, view))
	}
}

// Fixture is the package's own training fixture: a tokenizer trained on
// its examples, its small config, and the examples.
func Fixture() (*tokenizer.Tokenizer, Config, []Example) {
	return tokenizer.Train(corpusText(), 400), smallCfg(), trainExamples
}

// KwNesting trains a model and replays its keyword observations,
// probing each keyword context at every level of the ladder that fits
// it, as the keyword expert's walk does. It reports how many distinct
// runs above level 0 the probes reach, how many of those hold an id
// their keyword's level-0 run does not, and how many probed contexts
// lose all but 1e-9 of their mass above level 0, which a walk would
// then never reach.
func KwNesting(tk *tokenizer.Tokenizer, cfg Config, scheme Scheme, examples []Example) (reached, outside, early int) {
	m := Train(tk, cfg, scheme, examples)
	t := m.kw
	h0 := t.hashes(nil).h[0]
	level0 := map[uint64]map[int32]bool{} // seed → its level-0 ids
	seen := map[*slot]bool{}
	for _, p := range newModel(tk, cfg, scheme).prepareAll(examples) {
		for s, ctx := range p.contexts() {
			if p.code[s] == tokenizer.FragID {
				continue
			}
			for len(ctx) > 0 && ctx[len(ctx)-1] == tokenizer.FragID {
				ctx = ctx[:len(ctx)-1]
			}
			hs := t.hashes(ctx)
			for _, seed := range p.seeds {
				ms := fmix(seed)
				part := t.parts[t.partOf(ms)]
				ids, ok := level0[seed]
				if !ok {
					ids = map[int32]bool{}
					if r := part[0].find(fmix(h0 ^ ms)); r != nil {
						for _, e := range part[0].slab[r.start : r.start+r.n] {
							ids[e.id] = true
						}
					}
					level0[seed] = ids
				}
				weight := 1.0
				for i := hs.n - 1; i > 0; i-- {
					r := part[i].find(fmix(hs.h[i] ^ ms))
					if r == nil {
						continue
					}
					if !seen[r] {
						seen[r] = true
						reached++
						for _, e := range part[i].slab[r.start : r.start+r.n] {
							if !ids[e.id] {
								outside++
								break
							}
						}
					}
					weight *= 1 - r.total/(r.total+wbScale*float64(r.n))
				}
				if weight < 1e-9 {
					early++
				}
			}
		}
	}
	return reached, outside, early
}

// LevelContexts is one level of one table: the contexts it froze and
// the distinct exact contexts its observations held.
type LevelContexts struct {
	Table         string // "base", "kw" or "head <i>" (1-based)
	K             int    // the level's context length
	Frozen, Exact int
}

// ContextCounts trains a model and reports, for every level of every
// table, its frozen context count over every part beside the number of
// distinct exact contexts observed there: the table's seed and the
// context's last K ids themselves, no hash. The observations are those
// the base, keyword and head replays make, replayed from a second
// preparation of the examples (the base's pollution lands on contexts
// its own observations already hold).
func ContextCounts(tk *tokenizer.Tokenizer, cfg Config, scheme Scheme, examples []Example) []LevelContexts {
	m := Train(tk, cfg, scheme, examples)
	prep := newModel(tk, cfg, scheme).prepareAll(examples)
	exact := map[*ngramTable]*exactContexts{}
	see := func(t *ngramTable, ctx []int, seed uint64) {
		e := exact[t]
		if e == nil {
			e = &exactContexts{seeds: map[uint64]int32{}, child: map[uint64]int32{}}
			exact[t] = e
		}
		e.see(ctx[max(0, len(ctx)-t.levels[len(t.levels)-1]):], seed)
	}
	for j := range prep {
		p := &prep[j]
		for s, ctx := range p.contexts() {
			see(m.base, ctx, 0)
			for i, t := range m.heads {
				if p.heads[i+1] && int(p.depth[s]) > i {
					see(t, ctx, 0)
				}
			}
			if p.code[s] == tokenizer.FragID {
				continue
			}
			for len(ctx) > 0 && ctx[len(ctx)-1] == tokenizer.FragID {
				ctx = ctx[:len(ctx)-1]
			}
			for _, seed := range p.seeds {
				see(m.kw, ctx, seed)
			}
		}
	}
	var out []LevelContexts
	report := func(name string, t *ngramTable) {
		for i, k := range t.levels {
			out = append(out, LevelContexts{name, k, t.contexts(i), exact[t].distinct[k]})
		}
	}
	report("base", m.base)
	report("kw", m.kw)
	for i, t := range m.heads {
		report(fmt.Sprintf("head %d", i+1), t)
	}
	return out
}

// exactContexts interns one table's contexts as a trie: a node is a
// seed and a run of a context's newest ids, and its child by id extends
// the run by the next older id. Nodes are numbered from 1 as they are
// made, and distinct[d] counts the nodes of depth d: the distinct
// contexts of d ids.
type exactContexts struct {
	seeds    map[uint64]int32 // seed → its root
	child    map[uint64]int32 // node<<32 | id → child
	nodes    int32
	distinct [maxReach + 1]int
}

// see interns every suffix of ctx under seed.
func (e *exactContexts) see(ctx []int, seed uint64) {
	node, ok := e.seeds[seed]
	if !ok {
		e.nodes++
		node, e.seeds[seed] = e.nodes, e.nodes
		e.distinct[0]++
	}
	for d := 1; d <= len(ctx); d++ {
		key := uint64(node)<<32 | uint64(uint32(ctx[len(ctx)-d]))
		next, ok := e.child[key]
		if !ok {
			e.nodes++
			next, e.child[key] = e.nodes, e.nodes
			e.distinct[d]++
		}
		node = next
	}
}

// Len reports the current number of cached sessions.
func (c *TrieCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the cache's estimated retained memory.
func (c *TrieCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Walk visits every session-bearing node as (prefix token ids, session):
// the concurrency soak re-derives each node's prefix and checks the
// stored session against a fresh build. The
// callback runs under the cache lock; it must not call back in.
func (c *TrieCache) Walk(fn func(prefix []int, g *Gen)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rec func(n *trieNode, prefix []int)
	rec = func(n *trieNode, prefix []int) {
		prefix = append(prefix, n.span...)
		if n.gen != nil {
			fn(append([]int(nil), prefix...), n.gen)
		}
		for _, child := range n.children {
			rec(child, prefix)
		}
	}
	rec(c.root, nil)
}

// size returns the total number of distinct contexts across levels.
func (t *ngramTable) size() int {
	n := 0
	for i := range t.levels {
		n += t.contexts(i)
	}
	return n
}
