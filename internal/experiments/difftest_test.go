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
// decoding with the token-prefix trie cache, and decoding with every
// decode of a matrix entry alive at once and stepped in a reshuffled
// round-robin order, must both be byte-identical to decoding with no
// session cache at all, per (prompt, strategy, seed) — and the run must
// actually have forked mid-prompt sessions and interleaved steps, or it
// proved nothing.
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
	if report.Interleaved == 0 {
		t.Fatal("differential run interleaved no steps")
	}
	t.Logf("differential run clean: %d cases byte-identical across {off, trie, interleave}, %d mid-prompt forks, %d interleaved steps",
		report.Cases, report.PartialHits, report.Interleaved)
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
	eng := serve.NewEngine(m, serve.Config{Workers: 2, CacheSize: -1})
	for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}
	mt := eng.Metrics()
	eng.Close()
	recomputed, exactOnly := promptTokens-mt.PrefixCacheTokensSaved, promptTokens/2
	t.Logf("requests=%d prompt_tokens=%d recomputed=%d saved=%d hits=%d partial=%d hit_rate=%.2f",
		len(reqs), promptTokens, recomputed, mt.PrefixCacheTokensSaved,
		mt.PrefixCacheHits, mt.PrefixCachePartialHits, mt.PrefixCacheHitRate)
	if recomputed >= exactOnly {
		t.Fatalf("trie recomputed %d tokens, want fewer than the %d an exact-repeat cache would",
			recomputed, exactOnly)
	}
	if mt.PrefixCachePartialHits == 0 {
		t.Fatal("trie saw no partial hits on a shared-stem workload")
	}
}
