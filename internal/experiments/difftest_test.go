package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// TestDifferentialCacheModes is the cache-admissibility gate CI runs
// next to the golden determinism job: across the full strategy matrix,
// decoding with the token-prefix trie cache and through the step-wise
// API under randomized preemption (park / drop pages / resume at step
// boundaries) must both be byte-identical to decoding with no session
// cache at all, per (prompt, strategy, seed) — and the run must
// actually have forked mid-prompt sessions and injected preemptions,
// or it proved nothing.
func TestDifferentialCacheModes(t *testing.T) {
	report, err := testRunner().RunDiffTest()
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
	report, err := testRunner().RunAdaptDiff()
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

// TestTreeLosslessGate runs the differential losslessness proof CI
// pins next to the cache-mode gate: greedy lookup-tree byte streams
// equal linear prompt-lookup's (and NTP's) on every model, in no more
// steps than linear, with drafting demonstrably engaged.
func TestTreeLosslessGate(t *testing.T) {
	report, err := testRunner().RunTreeLossless()
	if err != nil {
		t.Fatal(err)
	}
	if report.Cases == 0 {
		t.Fatal("no cases compared")
	}
	t.Logf("lossless: %d cases byte-identical; steps ntp=%d linear=%d tree=%d",
		report.Cases, report.StepsNTP, report.StepsLinear, report.StepsTree)
}

// TestPrefixBenchTrieRecomputesFewer pins what the token-prefix trie
// exists to change: on a shared-stem workload (4 stems × 4 variants)
// the trie must recompute strictly fewer prompt tokens of session
// preparation than a cache that could only reuse exact repeats — the
// workload is submitted twice with fresh seeds, so that bound is half
// the prompt tokens — because only forking the stems that dominate the
// workload gets below it. Decodes are sampled so they cost real work
// and bounded at 32 tokens so the work stays on session preparation;
// the result LRU is off so every request looks up its session.
func TestPrefixBenchTrieRecomputesFewer(t *testing.T) {
	m, _ := testRunner().ServingFixture()
	var reqs []serve.Request
	var promptTokens uint64
	for round := 0; round < 2; round++ {
		for i, p := range SharedStemPrompts(4, 4) {
			promptTokens += uint64(len(model.CanonicalPromptIDs(m.Tokenizer(), p)))
			reqs = append(reqs, serve.Request{Prompt: p, Options: core.Options{
				Temperature: 0.6, MaxNewTokens: 32, Seed: int64(round*1000 + i),
			}})
		}
	}
	byMode := map[string]serve.Metrics{}
	for _, mode := range []string{serve.PrefixCacheOff, serve.PrefixCacheTrie} {
		eng := serve.NewEngine(m, serve.Config{Workers: 2, CacheSize: -1, PrefixCacheMode: mode})
		for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
			if resp.Err != nil {
				t.Fatalf("%s request %d: %v", mode, i, resp.Err)
			}
		}
		mt := eng.Metrics()
		eng.Close()
		byMode[mode] = mt
		t.Logf("%-4s requests=%d prompt_tokens=%d recomputed=%d saved=%d hits=%d partial=%d hit_rate=%.2f",
			mode, len(reqs), promptTokens, promptTokens-mt.PrefixCacheTokensSaved,
			mt.PrefixCacheTokensSaved, mt.PrefixCacheHits, mt.PrefixCachePartialHits, mt.PrefixCacheHitRate)
	}
	off, trie := byMode[serve.PrefixCacheOff], byMode[serve.PrefixCacheTrie]
	if off.PrefixCacheTokensSaved != 0 {
		t.Fatalf("cache-off saved %d tokens", off.PrefixCacheTokensSaved)
	}
	if recomputed, exactOnly := promptTokens-trie.PrefixCacheTokensSaved, promptTokens/2; recomputed >= exactOnly {
		t.Fatalf("trie recomputed %d tokens, want fewer than the %d an exact-repeat cache would",
			recomputed, exactOnly)
	}
	if trie.PrefixCachePartialHits == 0 {
		t.Fatal("trie saw no partial hits on a shared-stem workload")
	}
}
