package model

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/tokenizer"
)

// genEquiv asserts two sessions are indistinguishable — every field a
// decode can observe, plus the resumable fork state (so deeper forks of
// the two would stay equivalent too).
func genEquiv(t *testing.T, got, want *Gen, id string) {
	t.Helper()
	if got.promptLen != want.promptLen {
		t.Fatalf("%s: promptLen %d, want %d", id, got.promptLen, want.promptLen)
	}
	if len(got.seeds) != len(want.seeds) {
		t.Fatalf("%s: %d seeds, want %d", id, len(got.seeds), len(want.seeds))
	}
	for i := range want.seeds {
		if got.seeds[i] != want.seeds[i] {
			t.Fatalf("%s: seed %d is %d, want %d", id, i, got.seeds[i], want.seeds[i])
		}
	}
	if !slices.Equal(got.promptToks, want.promptToks) {
		t.Fatalf("%s: prompt toks %x, want %x", id, got.promptToks, want.promptToks)
	}
	if len(got.codePos) != len(want.codePos) {
		t.Fatalf("%s: codePos len %d, want %d", id, len(got.codePos), len(want.codePos))
	}
	for i := range want.codePos {
		if got.codePos[i] != want.codePos[i] {
			t.Fatalf("%s: codePos[%d] = %v, want %v", id, i, got.codePos[i], want.codePos[i])
		}
	}
	if got.fork.cleanText != want.fork.cleanText {
		t.Fatalf("%s: cleanText diverged\n got %q\nwant %q", id, got.fork.cleanText, want.fork.cleanText)
	}
	if got.fork.lineStart != want.fork.lineStart || got.fork.pendingLine != want.fork.pendingLine {
		t.Fatalf("%s: line state (%d,%q), want (%d,%q)", id,
			got.fork.lineStart, got.fork.pendingLine, want.fork.lineStart, want.fork.pendingLine)
	}
}

// genFingerprint checksums a session's observable state — the soak test
// uses it to prove sessions are never mutated after sharing.
func genFingerprint(g *Gen) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "len=%d;", g.promptLen)
	for _, s := range g.seeds {
		fmt.Fprintf(h, "s%d;", s)
	}
	for _, w := range g.promptToks {
		fmt.Fprintf(h, "t%x;", w)
	}
	for _, b := range g.codePos {
		fmt.Fprintf(h, "%v;", b)
	}
	fmt.Fprintf(h, "txt=%q;ls=%d;pl=%q", g.fork.cleanText, g.fork.lineStart, g.fork.pendingLine)
	return h.Sum64()
}

// forkFixture trains a model whose prompts include verbatim code lines
// (the hard case for resumable code-line marking).
func forkFixture(t *testing.T) (*Model, [][]int) {
	t.Helper()
	tk := tokenizer.Train(corpusText(), 400)
	m := Train(tk, smallCfg(), SchemeOurs, trainExamples)
	texts := []string{
		trainExamples[0].Prompt,
		trainExamples[1].Prompt,
		// A VGen-style prompt with a verbatim module header: the code
		// lines must be marked identically however the prompt is split.
		"Complete the module below.\nmodule addsub (\n    input [7:0] a,\n    input [7:0] b,\n    output [7:0] y\n);\n",
		// Edge content: unicode, digits-only keywords, trailing newline.
		"Design an 8-bit Gray-code counter — überschnell, with wrap at 255.\n",
	}
	var prompts [][]int
	for _, txt := range texts {
		prompts = append(prompts, CanonicalPromptIDs(tk, txt))
	}
	return m, prompts
}

// TestForkMatchesFreshAtEverySplit is the core copy-on-extend property:
// NewGen(prefix).Fork(suffix) must equal NewGen(full) at every split
// point of every fixture prompt.
func TestForkMatchesFreshAtEverySplit(t *testing.T) {
	m, prompts := forkFixture(t)
	for pi, ids := range prompts {
		want := m.NewGen(ids)
		for cut := 0; cut <= len(ids); cut++ {
			base := m.NewGen(ids[:cut])
			got := base.Fork(ids[cut:])
			genEquiv(t, got, want, fmt.Sprintf("prompt %d cut %d", pi, cut))
		}
	}
}

// TestForkChain splits a prompt into many pieces and forks through all
// of them; the terminal session must equal a fresh build, and every
// intermediate parent must be left untouched.
func TestForkChain(t *testing.T) {
	m, prompts := forkFixture(t)
	ids := prompts[2]
	want := m.NewGen(ids)
	for _, step := range []int{1, 2, 3, 7} {
		g := m.NewGen(nil)
		var parents []*Gen
		var prints []uint64
		for pos := 0; pos < len(ids); pos += step {
			end := pos + step
			if end > len(ids) {
				end = len(ids)
			}
			parents = append(parents, g)
			prints = append(prints, genFingerprint(g))
			g = g.Fork(ids[pos:end])
		}
		genEquiv(t, g, want, fmt.Sprintf("chain step %d", step))
		for i, p := range parents {
			if genFingerprint(p) != prints[i] {
				t.Fatalf("step %d: parent %d mutated by fork", step, i)
			}
		}
	}
}

// TestForkZeroExtensionShares pins the copy-on-extend contract for the
// degenerate extension: no copy, the shared immutable session itself.
func TestForkZeroExtensionShares(t *testing.T) {
	m, prompts := forkFixture(t)
	g := m.NewGen(prompts[0])
	if g.Fork(nil) != g {
		t.Fatal("zero-length fork did not share the session")
	}
}

// TestForkMemBytesGrows sanity-checks the byte estimator the trie's
// eviction budget runs on.
func TestForkMemBytesGrows(t *testing.T) {
	m, prompts := forkFixture(t)
	small := m.NewGen(prompts[0][:4])
	big := small.Fork(prompts[0][4:])
	if small.MemBytes() <= 0 || big.MemBytes() <= small.MemBytes() {
		t.Fatalf("MemBytes small=%d big=%d, want 0 < small < big", small.MemBytes(), big.MemBytes())
	}
}
