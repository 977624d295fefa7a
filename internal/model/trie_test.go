package model

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tokenizer"
)

// stemPrompts builds token prompts sharing a long instruction stem with
// short divergent tails — the affinity-routed traffic shape the trie
// exists for.
func stemPrompts(tk *tokenizer.Tokenizer, variants int) [][]int {
	stem := "Please act as a professional Verilog designer. Create a module named stem_unit with clock clk and reset rst"
	var out [][]int
	for i := 0; i < variants; i++ {
		out = append(out, CanonicalPromptIDs(tk, fmt.Sprintf("%s and a %d-bit output q%d.", stem, 2+i, i)))
	}
	return out
}

func trieFixture(t *testing.T) (*Model, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.Train(corpusText(), 400)
	return Train(tk, smallCfg(), SchemeOurs, trainExamples), tk
}

func TestTrieExactHitSharesSession(t *testing.T) {
	m, tk := trieFixture(t)
	c := NewTrieCache(0)
	ids := CanonicalPromptIDs(tk, trainExamples[0].Prompt)
	a := c.Gen(m, ids)
	b := c.Gen(m, ids)
	if a != b {
		t.Fatal("repeat lookup did not share the session")
	}
	st := c.SessionStats()
	if st.Hits != 1 || st.Misses != 1 || st.PartialHits != 0 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
	if st.TokensSaved != uint64(len(ids)) {
		t.Fatalf("tokens saved %d, want %d (the whole prompt)", st.TokensSaved, len(ids))
	}
	genEquiv(t, a, m.NewGen(ids), "exact hit")
}

// TestTriePartialHitExtends: a prompt extending a cached one must fork
// from it (partial hit), report the cached prefix as its depth, and
// still equal a fresh build.
func TestTriePartialHitExtends(t *testing.T) {
	m, tk := trieFixture(t)
	c := NewTrieCache(0)
	prompts := stemPrompts(tk, 2)
	short := prompts[0][:20]
	if _, depth := c.GenDepth(m, short); depth != 0 {
		t.Fatalf("cold lookup depth %d, want 0", depth)
	}
	full := prompts[0]
	g, depth := c.GenDepth(m, full)
	if depth != 20 {
		t.Fatalf("extension depth %d, want 20 (the cached prefix)", depth)
	}
	st := c.SessionStats()
	if st.PartialHits != 1 {
		t.Fatalf("partial hits %d, want 1 (stats %+v)", st.PartialHits, st)
	}
	if st.TokensSaved != 20 {
		t.Fatalf("tokens saved %d, want 20 (the cached prefix)", st.TokensSaved)
	}
	genEquiv(t, g, m.NewGen(full), "partial hit")
}

// TestTrieSharedStemMaterialized: after two sibling prompts split an
// edge, a third sibling must partial-hit the materialized stem session,
// not fall back to a from-scratch build.
func TestTrieSharedStemMaterialized(t *testing.T) {
	m, tk := trieFixture(t)
	c := NewTrieCache(0)
	prompts := stemPrompts(tk, 3)
	c.Gen(m, prompts[0])
	c.Gen(m, prompts[1]) // splits prompts[0]'s edge, materializes the stem
	g := c.Gen(m, prompts[2])
	st := c.SessionStats()
	if st.PartialHits < 1 {
		t.Fatalf("third sibling did not partial-hit the stem (stats %+v)", st)
	}
	if st.TokensSaved == 0 {
		t.Fatal("no tokens saved across siblings")
	}
	genEquiv(t, g, m.NewGen(prompts[2]), "stem fork")
}

// TestTrieEvictsByBudget: a tiny byte budget must bound the population
// by staleness without ever corrupting lookups.
func TestTrieEvictsByBudget(t *testing.T) {
	m, tk := trieFixture(t)
	prompts := stemPrompts(tk, 8)
	var budget int64
	for _, ids := range prompts[:2] {
		budget += m.NewGen(ids).MemBytes()
	}
	c := NewTrieCache(budget * 2)
	for _, ids := range prompts {
		c.Gen(m, ids)
	}
	if c.Len() >= len(prompts)+1 {
		t.Fatalf("no eviction: %d sessions cached", c.Len())
	}
	if c.Bytes() > 2*budget+m.NewGen(prompts[0]).MemBytes()+256 {
		t.Fatalf("bytes %d far over budget %d", c.Bytes(), 2*budget)
	}
	// Evicted or not, every prompt still resolves to a correct session.
	for i, ids := range prompts {
		genEquiv(t, c.Gen(m, ids), m.NewGen(ids), fmt.Sprintf("post-eviction prompt %d", i))
	}
}

func TestTrieForeignModelBypasses(t *testing.T) {
	m, tk := trieFixture(t)
	other := Train(tk, smallCfg(), SchemeNTP, trainExamples)
	c := NewTrieCache(0)
	ids := CanonicalPromptIDs(tk, trainExamples[0].Prompt)
	c.Gen(m, ids)
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
	if _, depth := c.GenDepth(other, ids); depth != 0 {
		t.Fatalf("foreign model reported cached depth %d, want 0", depth)
	}
	if c.Len() != 1 {
		t.Fatal("foreign model's session entered the trie")
	}
}

// TestTrieConcurrentSoak hammers the trie from many goroutines with
// overlapping prefixes (run under -race in CI). Two invariants: a
// session's observable state never changes after it was shared
// (fingerprints taken at hand-off still hold at the end), and every
// session the trie retains — including materialized stem sessions the
// workload never requested directly — equals a fresh build of its
// reconstructed prefix.
func TestTrieConcurrentSoak(t *testing.T) {
	soakTrie(t, NewTrieCache(0), true)
}

// TestTrieConcurrentSoakUnderEviction repeats the soak with a byte
// budget far too small for the workload, so concurrent lookups race
// against evictions that prune and re-form the paths they matched —
// the interleaving where a stale lookup depth can exceed a later split
// depth (stem materialization must rebuild from scratch, not slice
// negatively).
func TestTrieConcurrentSoakUnderEviction(t *testing.T) {
	soakTrie(t, NewTrieCache(1<<12), false)
}

func soakTrie(t *testing.T, c *TrieCache, expectReuse bool) {
	t.Helper()
	m, tk := trieFixture(t)
	prompts := stemPrompts(tk, 6)
	// Overlap harder: every prefix boundary of every prompt is its own
	// request, so goroutines constantly extend each other's entries.
	var work [][]int
	for _, ids := range prompts {
		for _, cut := range []int{8, 16, len(ids)} {
			if cut <= len(ids) {
				work = append(work, ids[:cut])
			}
		}
	}

	const goroutines = 16
	const rounds = 40
	type obs struct {
		g     *Gen
		print uint64
		ids   []int
	}
	observed := make([][]obs, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ids := work[(w*rounds+r*7)%len(work)]
				g := c.Gen(m, ids)
				observed[w] = append(observed[w], obs{g: g, print: genFingerprint(g), ids: ids})
			}
		}(w)
	}
	wg.Wait()

	for w, seen := range observed {
		for i, o := range seen {
			if genFingerprint(o.g) != o.print {
				t.Fatalf("goroutine %d obs %d: session mutated after sharing", w, i)
			}
			if o.g.PromptLen() != len(o.ids) {
				t.Fatalf("goroutine %d obs %d: wrong session (len %d, want %d)", w, i, o.g.PromptLen(), len(o.ids))
			}
		}
	}

	// Walk the trie: every retained session must match a fresh build of
	// the prefix its node path spells (the "checksum of prompt ids per
	// node" check — the path IS the prompt).
	nodes := 0
	c.Walk(func(prefix []int, g *Gen) {
		nodes++
		if genFingerprint(g) != genFingerprint(m.NewGen(prefix)) {
			t.Errorf("node at depth %d holds a session diverging from a fresh build", len(prefix))
		}
	})
	st := c.SessionStats()
	if n := st.Hits + st.PartialHits + st.Misses; n != goroutines*rounds {
		t.Fatalf("lookups %d, want %d", n, goroutines*rounds)
	}
	if !expectReuse {
		return // a starved budget may legitimately evict everything
	}
	if nodes == 0 {
		t.Fatal("soak left an empty trie")
	}
	if st.PartialHits == 0 || st.Hits == 0 {
		t.Fatalf("soak exercised no reuse: %+v", st)
	}
}
