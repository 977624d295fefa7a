package spec

import (
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

func dist(pairs map[int]float64) model.Dist { return model.NewDist(pairs) }

func TestIntegrityTruncate(t *testing.T) {
	F := tokenizer.FragID
	cases := []struct {
		name     string
		in, want []int
	}{
		{"empty run", []int{}, []int{}},
		{"lone base token, no FRAG", []int{42}, []int{42}},
		{"no FRAG keeps base only", []int{42, 43, 44}, []int{42}},
		{"FRAG first", []int{F, 42, 43}, []int{F}},
		{"keep through last FRAG", []int{42, F, 43, F, 44}, []int{42, F, 43, F}},
		{"run ending exactly on FRAG", []int{42, 43, F}, []int{42, 43, F}},
	}
	for _, c := range cases {
		got := IntegrityTruncate(append([]int(nil), c.in...))
		if len(got) != len(c.want) {
			t.Errorf("%s: truncate(%v) = %v, want %v", c.name, c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: truncate(%v) = %v, want %v", c.name, c.in, got, c.want)
				break
			}
		}
	}
}

func TestIntegrityFinalizeAccounting(t *testing.T) {
	F := tokenizer.FragID
	v := Integrity{Inner: TypicalAcceptance{}}
	kept, truncated := v.Finalize([]int{42, F, 43, 44})
	if len(kept) != 2 || truncated != 2 {
		t.Fatalf("kept=%v truncated=%d, want 2 kept / 2 truncated", kept, truncated)
	}
	// Empty accepted run (every draft rejected AND no base token — the
	// degenerate floor): nothing kept, nothing counted.
	kept, truncated = v.Finalize(nil)
	if len(kept) != 0 || truncated != 0 {
		t.Fatalf("empty run: kept=%v truncated=%d", kept, truncated)
	}
	// Run ending exactly on [FRAG] loses nothing.
	kept, truncated = v.Finalize([]int{42, 43, F})
	if len(kept) != 3 || truncated != 0 {
		t.Fatalf("FRAG-terminal run: kept=%v truncated=%d", kept, truncated)
	}
	if v.Name() != "typical+frag" {
		t.Fatalf("Integrity name = %q", v.Name())
	}
}

func TestTypicalAcceptanceEdges(t *testing.T) {
	v := TypicalAcceptance{}
	p := VerifyParams{Epsilon: 0.3, Delta: 1.2}

	// Near-deterministic posterior: entropy ~ 0, threshold = ε = 0.3;
	// the dominant token passes, the rare one fails.
	sharp := dist(map[int]float64{7: 0.95, 8: 0.05})
	if got := v.Accept(sharp, []int{7}, p); got != 7 {
		t.Fatalf("dominant candidate rejected: %d", got)
	}
	if got := v.Accept(sharp, []int{8}, p); got != -1 {
		t.Fatalf("rare candidate accepted: %d", got)
	}
	// Best-first: the first passing candidate wins even if a later one
	// is more probable.
	if got := v.Accept(sharp, []int{8, 7}, p); got != 7 {
		t.Fatalf("want first passing candidate 7, got %d", got)
	}
	// All candidates rejected → -1 (ends the step's drafting).
	if got := v.Accept(sharp, []int{8, 9, 10}, p); got != -1 {
		t.Fatalf("all-rejected drafts: got %d, want -1", got)
	}
	// No candidates at all → -1.
	if got := v.Accept(sharp, nil, p); got != -1 {
		t.Fatalf("empty candidates: got %d, want -1", got)
	}
	// High entropy engages the δ·exp(−H) branch. A uniform posterior
	// has p = exp(−H) exactly, so with δ > 1 every candidate fails (the
	// calibration note on Options.Delta: δ=1.2 refuses to rubber-stamp
	// flat contexts)…
	u := map[int]float64{}
	for i := 0; i < 64; i++ {
		u[i] = 1.0 / 64
	}
	if got := v.Accept(dist(u), []int{5}, p); got != -1 {
		t.Fatalf("uniform posterior rubber-stamped candidate %d under δ>1", got)
	}
	// …while δ < 1 lowers the entropy threshold below uniform mass and
	// accepts.
	if got := v.Accept(dist(u), []int{5}, VerifyParams{Epsilon: 0.9, Delta: 0.5}); got != 5 {
		t.Fatalf("high-entropy candidate rejected under δ<1: %d", got)
	}
}

func TestGreedyExact(t *testing.T) {
	v := GreedyExact{}
	p := VerifyParams{Epsilon: 0.3, Delta: 1.2}
	d := dist(map[int]float64{3: 0.5, 4: 0.3, 5: 0.2})
	if got := v.Accept(d, []int{3}, p); got != 3 {
		t.Fatalf("argmax candidate rejected: %d", got)
	}
	if got := v.Accept(d, []int{4, 5}, p); got != -1 {
		t.Fatalf("non-argmax accepted: %d", got)
	}
	if got := v.Accept(d, []int{5, 3}, p); got != 3 {
		t.Fatalf("argmax among candidates not found: %d", got)
	}
	// Empty posterior (cold context) rejects everything.
	if got := v.Accept(dist(map[int]float64{}), []int{3}, p); got != -1 {
		t.Fatalf("empty posterior accepted: %d", got)
	}
	kept, truncated := v.Finalize([]int{1, 2, 3})
	if len(kept) != 3 || truncated != 0 {
		t.Fatalf("GreedyExact.Finalize mutated the run: %v/%d", kept, truncated)
	}
}

func TestPromptLookupRun(t *testing.T) {
	// seq: a b c d | a b c — suffix (a b c) re-occurs at the start, so
	// the draft is the continuation (d) plus whatever follows.
	seq := []int{10, 11, 12, 13, 10, 11, 12}
	run := lookupRun(seq, 3, 10)
	if len(run) != 4 || run[0] != 13 {
		t.Fatalf("run = %v, want continuation starting at 13", run)
	}
	// MaxSpan caps the proposal.
	run = lookupRun(seq, 3, 2)
	if len(run) != 2 || run[0] != 13 || run[1] != 10 {
		t.Fatalf("capped run = %v, want [13 10]", run)
	}
	// No re-occurrence → no draft.
	if run := lookupRun([]int{1, 2, 3, 4, 5, 6}, 3, 10); run != nil {
		t.Fatalf("unmatched sequence drafted %v", run)
	}
	// Too short for the minimum match → no draft.
	if run := lookupRun([]int{1, 2, 1, 2}, 3, 10); run != nil {
		t.Fatalf("short sequence drafted %v", run)
	}
	// Most recent occurrence is preferred: with the pattern at both the
	// start and the middle, the draft copies what followed the LATER one.
	seq = []int{10, 11, 12, 77, 5, 10, 11, 12, 88, 6, 10, 11, 12}
	run = lookupRun(seq, 3, 1)
	if len(run) != 1 || run[0] != 88 {
		t.Fatalf("run = %v, want the most recent continuation [88]", run)
	}
	// A historical <bos> ends the proposal.
	seq = []int{10, 11, 12, tokenizer.BosID, 9, 9, 9, 9, 10, 11, 12}
	if run := lookupRun(seq, 3, 10); run != nil {
		t.Fatalf("draft crossed <bos>: %v", run)
	}
}

func TestPromptLookupDraftUsesPrefix(t *testing.T) {
	// The just-sampled base token participates in the suffix: Seq ends
	// with (a b), Prefix holds (c); suffix (a b c) matches history.
	dc := DraftCtx{
		Seq:    []int{10, 11, 12, 13, 10, 11},
		Prefix: []int{12},
	}
	d := PromptLookup{}.Draft(dc, DefaultTreeBudget)
	if d.Tree != nil || d.Chain.Empty() {
		t.Fatalf("draft = %+v, want a chain and no tree despite the budget", d)
	}
	if cands := d.Chain.Candidates(0); len(cands) != 1 || cands[0] != 13 {
		t.Fatalf("candidates(0) = %v, want [13]", cands)
	}
	// Positions past the run are empty.
	for i := 0; ; i++ {
		if len(d.Chain.Candidates(i)) == 0 {
			break
		}
		if i > 16 {
			t.Fatal("candidate run unbounded")
		}
	}
}

func TestNamedRegistry(t *testing.T) {
	for _, name := range []string{"ntp", "NTP", "medusa", "Ours", "prompt-lookup", "PromptLookup", "promptlookup"} {
		if _, ok := Named(name); !ok {
			t.Errorf("Named(%q) not found", name)
		}
	}
	// A strategy answers to its canonical and display names only.
	for _, name := range []string{"warp", "", "pl", "mt", "lt", "tree", "gt", "grammar", "glt"} {
		if _, ok := Named(name); ok {
			t.Errorf("Named accepted %q", name)
		}
	}
	s, _ := Named("ours")
	if s.Name != "Ours" || !s.Drafter.NeedsHeads() {
		t.Fatalf("ours resolved to %+v", s)
	}
	if _, isWrapped := s.Verifier.(Integrity); !isWrapped {
		t.Fatal("ours verifier not integrity-wrapped")
	}
	// The "without integrity" ablation is medusa's row: ours' drafter
	// and its verifier with the wrapper taken off.
	medusa, _ := Named("medusa")
	if medusa.Drafter != s.Drafter || medusa.Verifier != s.Verifier.(Integrity).Inner {
		t.Fatalf("medusa %+v is not ours %+v without its integrity check", medusa, s)
	}
	if len(Names()) != 9 {
		t.Fatalf("Names() = %v", Names())
	}
	pl, _ := Named("prompt-lookup")
	// Not needing heads is also what makes its drafting free in the
	// cost model (core.TestStepCostModel).
	if pl.Drafter.NeedsHeads() {
		t.Fatal("prompt-lookup should not need heads")
	}
}

func TestNoDraftAndAcceptNone(t *testing.T) {
	if d := (NoDraft{}).Draft(DraftCtx{}, DefaultTreeBudget); d.Tree != nil || !d.Chain.Empty() {
		t.Fatalf("NoDraft proposed %+v", d)
	}
	if got := (AcceptNone{}).Accept(dist(map[int]float64{1: 1}), []int{1}, VerifyParams{}); got != -1 {
		t.Fatalf("AcceptNone accepted %d", got)
	}
	// A heads drafter on a headless model proposes nothing (the NTP
	// backbone fast path).
	if d := (MedusaHeads{}).Draft(DraftCtx{TopK: 3}, 0); d.Tree != nil || !d.Chain.Empty() {
		t.Fatalf("MedusaHeads drafted without heads: %+v", d)
	}
}

func TestMedusaHeadsChain(t *testing.T) {
	fw := model.NewForward(model.Dist{},
		dist(map[int]float64{1: 0.6, 2: 0.4}),
		dist(map[int]float64{3: 1.0}),
	)
	chain := (MedusaHeads{}).Draft(DraftCtx{Forward: fw, TopK: 2}, 0).Chain
	if got := chain.Candidates(0); len(got) != 2 || got[0] != 1 {
		t.Fatalf("head 0 candidates = %v", got)
	}
	if got := chain.Candidates(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("head 1 candidates = %v", got)
	}
	if got := chain.Candidates(2); got != nil {
		t.Fatalf("past-last head proposed %v", got)
	}
}
