package model

import (
	"slices"
	"strings"

	"repro/internal/tokenizer"
)

// forkState is the resumable tail of session preparation: everything a
// copy-on-extend Fork needs to continue preparing a longer prompt from
// where this session stopped, without re-walking the shared prefix.
//
// The state is immutable once the owning Gen is published (Fork reads
// it, never writes it), which is what lets the prefix trie hand one
// session to many concurrent decoders and forkers.
type forkState struct {
	// cleanText is the special-token-free decoding of the whole prompt
	// so far. Keyword extraction re-scans it on every fork: word and
	// rune boundaries are not compositional across appends (an extension
	// can lengthen the final word, or complete a multi-byte rune whose
	// lowercasing folds into ASCII), so an incremental keyword list
	// cannot be proven identical to a from-scratch scan — a byte scan
	// of stored text can. DecodeClean, by contrast, IS concatenative
	// per token, so the text itself extends in O(suffix).
	cleanText string
	// lineStart is the prompt index where the final, not-yet-terminated
	// line begins; pendingLine is that line's accumulated text. Code-line
	// marks before lineStart are final; the tail line must be re-judged
	// on extension because more text may join it.
	lineStart   int
	pendingLine string
}

// emptyGen is the zero-length-prompt session every prepared session
// descends from: NewGen is literally a Fork of it, so "fresh build" and
// "fork chain" cannot diverge — they are the same code path.
func (m *Model) emptyGen() *Gen {
	return &Gen{m: m, codePos: []bool{}}
}

// idSet is a set of token ids as a bitset.
type idSet []uint64

func (s idSet) has(id int) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

func (s *idSet) add(id int) {
	w := uint(id) >> 6
	for w >= uint(len(*s)) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// Fork returns the prepared session for the prompt that extends g's
// prompt by extra — copy-on-extend: g itself is never mutated (it may
// be shared by concurrent decoders and other forks), and only the
// uncached suffix is walked for the per-token work (copy-boost token
// set, code-line marking, clean-text append). The result is identical,
// field for field, to m.NewGen(fullPrompt): NewGen is itself a Fork
// from the empty session, and the differential/fuzz harnesses pin the
// equivalence (byte-identical decodes) on top of that.
func (g *Gen) Fork(extra []int) *Gen {
	if len(extra) == 0 {
		return g // zero extension: the shared immutable session IS the result
	}
	m := g.m
	n := g.promptLen + len(extra)
	ng := &Gen{m: m, promptLen: n, promptToks: slices.Clone(g.promptToks)}

	// Clean text and copy-boost set advance over the suffix only. Ids
	// outside the vocabulary are never boosted: no table predicts them.
	var sb strings.Builder
	sb.Grow(len(g.fork.cleanText) + 4*len(extra))
	sb.WriteString(g.fork.cleanText)
	for _, id := range extra {
		if tokenizer.IsSpecial(id) {
			continue
		}
		text := m.tok.Token(id)
		sb.WriteString(text)
		if isContentToken(text) && uint(id) < uint(m.tok.VocabSize()) {
			ng.promptToks.add(id)
		}
	}
	cleanText := sb.String()

	// Keyword seeds: full re-scan of the stored text (see forkState) —
	// a cheap byte scan, and the only way the seed list provably equals
	// a from-scratch NewGen's. The IDF filter reads immutable trained
	// counts, so filtering commutes with forking.
	for _, w := range Keywords(cleanText) {
		if m.trained >= 50 && float64(m.kwDF[w]) > 0.15*float64(m.trained) {
			continue
		}
		ng.seeds = append(ng.seeds, kwSeed(w))
	}

	// Code-line marks: resume the line scan. Marks up to the parent's
	// last line break are final and copied; the parent's tail line is
	// re-judged with whatever the extension appends to it (it may gain
	// or lose code-ness), which is why the provisional tail marks from
	// the parent's own final flush are NOT copied.
	ng.codePos = make([]bool, n)
	copy(ng.codePos, g.codePos[:g.fork.lineStart])
	lineStart := g.fork.lineStart
	var line strings.Builder
	line.WriteString(g.fork.pendingLine)
	flush := func(end int) {
		if codeyLine(line.String()) {
			for i := lineStart; i < end; i++ {
				ng.codePos[i] = true
			}
		}
		line.Reset()
		lineStart = end
	}
	for i := g.promptLen; i < n; i++ {
		id := extra[i-g.promptLen]
		text := ""
		if !tokenizer.IsSpecial(id) {
			text = m.tok.Token(id)
		}
		line.WriteString(text)
		if strings.Contains(text, "\n") {
			flush(i + 1)
		}
	}
	// Save the resumable state BEFORE the final flush: that flush is
	// provisional (the line it judges may keep growing in a deeper fork).
	ng.fork = forkState{cleanText: cleanText, lineStart: lineStart, pendingLine: line.String()}
	flush(n)
	return ng
}

// codeyLine reports whether a prompt line looks like verbatim Verilog
// (a lowercase header keyword starting a short line that carries header
// punctuation). Natural-language spec lines — which capitalize
// "Inputs:" and never start with lowercase header syntax — stay
// unflagged, so prompt echoing cannot parrot prose.
func codeyLine(s string) bool {
	t := strings.TrimSpace(s)
	// Verbatim code lines are short and start with header syntax;
	// prose spec sentences (which may mention "module" and contain
	// parentheses) are long or start with capitalized words.
	starts := strings.HasPrefix(t, "module ") || strings.HasPrefix(t, "input ") ||
		strings.HasPrefix(t, "output ") || strings.HasPrefix(t, "assign ") ||
		strings.HasPrefix(t, "endmodule") || strings.HasPrefix(t, "wire ") ||
		strings.HasPrefix(t, "reg ")
	return len(t) < 120 && starts &&
		(strings.Contains(t, "(") || strings.Contains(t, ";") || t == "endmodule")
}

// MemBytes approximates the session's retained memory for the trie
// cache's byte-budget accounting: slice and map payloads plus the
// stored clean text. An estimate is enough — eviction needs relative
// weight, not malloc truth.
func (g *Gen) MemBytes() int64 {
	b := int64(96) // struct, headers, trie bookkeeping
	b += int64(len(g.seeds)) * 8
	b += int64(len(g.promptToks)) * 8
	b += int64(len(g.codePos))
	b += int64(len(g.fork.cleanText)) + int64(len(g.fork.pendingLine)) + 48
	return b
}
