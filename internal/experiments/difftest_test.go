package experiments

import "testing"

// TestDifferentialCacheModes is the cache-admissibility gate CI runs
// next to the golden determinism job: across the full strategy matrix,
// decoding with the token-prefix trie cache and through the step-wise
// API under randomized preemption (park / drop pages / resume at step
// boundaries) must both be byte-identical to decoding with no session
// cache at all, per (prompt, strategy, seed) — and the run must
// actually have forked mid-prompt sessions and injected preemptions,
// or it proved nothing.
func TestDifferentialCacheModes(t *testing.T) {
	r := NewRunner(quickSetup())
	report, err := r.RunDiffTest(DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 families × 3 variants + 3 stressors = 9 prompts; each decoded
	// greedily plus once per seed, per strategy-matrix entry.
	wantCases := len(StrategyMatrix) * 9 * 2
	if report.Cases != wantCases {
		t.Fatalf("compared %d cases, want %d", report.Cases, wantCases)
	}
	if report.PartialHits == 0 {
		t.Fatal("differential run exercised no mid-prompt forks")
	}
	if report.Preemptions == 0 || report.Drops == 0 {
		t.Fatalf("differential run exercised no preemption (%d parks, %d drops)", report.Preemptions, report.Drops)
	}
	t.Logf("differential run clean: %d cases byte-identical across {off, trie, preempt}, %d mid-prompt forks, %d preemptions (%d page drops)",
		report.Cases, report.PartialHits, report.Preemptions, report.Drops)
}

// TestDifferentialAdaptModes is the controller half of the
// admissibility story: with every request fully pinned (explicit
// strategy, tree budget and seed), engines running the speculation
// controller off, in shadow, and applied must produce byte-identical
// results across the strategy matrix — the controller may only choose
// WHICH lossless configuration runs, never change the output of a
// given one. The run must also prove the controller was live: one
// recorded decision per submission in shadow and on modes, every
// shadow decision left unapplied, and zero reroutes of pinned
// requests.
func TestDifferentialAdaptModes(t *testing.T) {
	r := NewRunner(quickSetup())
	report, err := r.RunAdaptDiff(DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 families × 3 variants + 1 extension stressor = 7 prompts; each
	// decoded greedily plus once per seed, per strategy-matrix entry.
	wantCases := len(StrategyMatrix) * 7 * 2
	if report.Cases != wantCases {
		t.Fatalf("compared %d cases, want %d", report.Cases, wantCases)
	}
	// Shadow and on each decided once per submission.
	if want := uint64(2 * wantCases); report.Decisions != want {
		t.Fatalf("controllers recorded %d decisions, want %d", report.Decisions, want)
	}
	if want := uint64(wantCases); report.Shadowed != want {
		t.Fatalf("shadowed %d decisions, want %d (every shadow decision)", report.Shadowed, want)
	}
	if report.Reroutes != 0 {
		t.Fatalf("applied controller rerouted %d pinned requests, want 0", report.Reroutes)
	}
	t.Logf("adapt differential clean: %d cases byte-identical across {off, shadow, on}, %d decisions recorded, 0 reroutes",
		report.Cases, report.Decisions)
}

// TestPrefixBenchTrieRecomputesFewer pins the performance half of the
// acceptance criteria: on the shared-stem workload the trie cache must
// recompute strictly fewer prompt tokens than a cache that could only
// reuse exact repeats — the workload is submitted twice, so that bound
// is half the prompt tokens — because only forking the stems that
// dominate the workload gets below it.
func TestPrefixBenchTrieRecomputesFewer(t *testing.T) {
	r := NewRunner(quickSetup())
	rows := r.RunPrefixBench(PrefixBenchConfig{Repeats: 2})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (off, trie)", len(rows))
	}
	byMode := map[string]PrefixBenchRow{}
	for _, row := range rows {
		byMode[row.Mode] = row
		t.Logf("%-6s requests=%d prompt_tokens=%d recomputed=%d saved=%d hits=%d partial=%d hit_rate=%.2f",
			row.Mode, row.Requests, row.PromptTokens, row.TokensRecomputed,
			row.TokensSaved, row.Hits, row.PartialHits, row.HitRate)
	}
	off, trie := byMode["off"], byMode["trie"]
	if off.TokensSaved != 0 || off.TokensRecomputed != off.PromptTokens {
		t.Fatalf("cache-off saved tokens: %+v", off)
	}
	if exactOnly := off.PromptTokens / 2; trie.TokensRecomputed >= exactOnly {
		t.Fatalf("trie recomputed %d tokens, want fewer than the %d an exact-repeat cache would",
			trie.TokensRecomputed, exactOnly)
	}
	if trie.PartialHits == 0 {
		t.Fatal("trie saw no partial hits on a shared-stem workload")
	}
}
