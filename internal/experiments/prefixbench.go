// PrefixBench measures what the token-prefix trie cache exists to
// change: how many prompt tokens of session preparation each
// prefix-cache mode recomputes on a shared-stem workload — the traffic
// shape the fleet's affinity router deliberately concentrates onto one
// replica. The trie reuses exact repeats and additionally forks the
// shared stems, so its tokens-recomputed column drops well below what
// exact-repeat reuse alone could reach (pinned by
// TestPrefixBenchTrieRecomputesFewer).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// SharedStemPrompts builds a workload of prompt families: each family
// shares one long instruction stem (the "Please act as a professional
// Verilog designer..." boilerplate plus a module description) and
// diverges only in a short trailing requirement. This is the
// n-variants-per-task shape of benchmark sweeps and retry traffic.
func SharedStemPrompts(families, variants int) []string {
	stems := []string{
		"Please act as a professional Verilog designer. Create a synchronous FIFO named fifo_unit with clock clk, reset rst, write enable wen and read enable ren",
		"Please act as a professional Verilog designer. Create a module named alu_unit that takes two 8-bit operands a and b and an opcode op",
		"Please act as a professional Verilog designer. Create a finite state machine named fsm_unit with clock clk and an asynchronous active-low reset rst_n",
		"Please act as a professional Verilog designer. Create a parameterizable shift register named shift_unit with clock clk and serial input sin",
		"Please act as a professional Verilog designer. Create a priority encoder named enc_unit over an 8-bit one-hot input req",
		"Please act as a professional Verilog designer. Create an up-down counter named cnt_unit with clock clk, reset rst and direction input dir",
	}
	tails := []string{
		"and a %d-bit data path.",
		"with a depth of %d entries.",
		"raising a flag after %d cycles.",
		"with an output width of %d bits.",
	}
	var out []string
	for f := 0; f < families; f++ {
		stem := stems[f%len(stems)]
		for v := 0; v < variants; v++ {
			out = append(out, fmt.Sprintf("%s %s", stem, fmt.Sprintf(tails[v%len(tails)], 2+v)))
		}
	}
	return out
}

// PrefixBenchConfig sizes the shared-stem workload.
type PrefixBenchConfig struct {
	// Families is the number of distinct stems; Variants the prompts
	// per stem (defaults 4 × 4).
	Families, Variants int
	// Repeats re-submits the whole workload with fresh seeds, modelling
	// retry/n-sample traffic (default 2; the first pass is always cold).
	Repeats int
	// MaxNewTokens bounds each decode (default 32 — session preparation
	// is what is being measured, not generation length).
	MaxNewTokens int
	// Workers sizes each engine (default 2).
	Workers int
}

func (c PrefixBenchConfig) withDefaults() PrefixBenchConfig {
	if c.Families <= 0 {
		c.Families = 4
	}
	if c.Variants <= 0 {
		c.Variants = 4
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.MaxNewTokens <= 0 {
		c.MaxNewTokens = 32
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// PrefixBenchRow is one cache mode's measured outcome.
type PrefixBenchRow struct {
	Mode     string
	Requests int
	// PromptTokens is the total session-preparation work submitted
	// (canonical prompt tokens across all decoded requests); TokensSaved
	// is how much of it the cache skipped; TokensRecomputed is what was
	// actually paid. Off recomputes everything; the trie saves exact
	// repeats and the shared stems.
	PromptTokens     uint64
	TokensSaved      uint64
	TokensRecomputed uint64
	// Hits/PartialHits/Misses/HitRate are the session-cache counters
	// (serve metrics prefix_cache_*).
	Hits, PartialHits, Misses uint64
	HitRate                   float64
}

// PrefixBench drives the shared-stem workload through one engine per
// prefix-cache mode. The workload and seed schedule are identical
// across modes — decodes are deterministic per seed, so rows differ
// only in session reuse (the differential harness pins the outputs as
// byte-identical; this bench quantifies the recompute gap).
func PrefixBench(m *model.Model, cfg PrefixBenchConfig) []PrefixBenchRow {
	cfg = cfg.withDefaults()
	prompts := SharedStemPrompts(cfg.Families, cfg.Variants)
	tk := m.Tokenizer()
	var promptTokens uint64
	for r := 0; r < cfg.Repeats; r++ {
		for _, p := range prompts {
			promptTokens += uint64(len(model.CanonicalPromptIDs(tk, p)))
		}
	}

	var rows []PrefixBenchRow
	for _, mode := range []string{serve.PrefixCacheOff, serve.PrefixCacheTrie} {
		eng := serve.NewEngine(m, serve.Config{
			Workers:         cfg.Workers,
			CacheSize:       -1, // every request must decode (and look up its session)
			PrefixCacheMode: mode,
		})
		reqs := make([]serve.Request, 0, cfg.Repeats*len(prompts))
		for r := 0; r < cfg.Repeats; r++ {
			for i, p := range prompts {
				reqs = append(reqs, serve.Request{
					Prompt:  p,
					Options: benchPrefixOptions(int64(r*1000+i), cfg.MaxNewTokens),
				})
			}
		}
		resps := eng.GenerateBatch(context.Background(), reqs)
		mt := eng.Metrics()
		eng.Close()
		for i, resp := range resps {
			if resp.Err != nil {
				panic(fmt.Sprintf("prefix bench request %d: %v", i, resp.Err))
			}
		}
		rows = append(rows, PrefixBenchRow{
			Mode:             mode,
			Requests:         len(reqs),
			PromptTokens:     promptTokens,
			TokensSaved:      mt.PrefixCacheTokensSaved,
			TokensRecomputed: promptTokens - mt.PrefixCacheTokensSaved,
			Hits:             mt.PrefixCacheHits,
			PartialHits:      mt.PrefixCachePartialHits,
			Misses:           mt.PrefixCacheMisses,
			HitRate:          mt.PrefixCacheHitRate,
		})
	}
	return rows
}

// benchPrefixOptions is the PrefixBench decode option set: sampled so
// decodes cost real work, tightly bounded so the measurement stays on
// session preparation.
func benchPrefixOptions(seed int64, maxNew int) core.Options {
	return core.Options{Temperature: 0.6, MaxNewTokens: maxNew, Seed: seed}
}

// RunPrefixBench trains one model on the full corpus and runs the
// shared-stem workload across both prefix-cache modes.
func (r *Runner) RunPrefixBench(cfg PrefixBenchConfig) []PrefixBenchRow {
	mcfg := r.setup.Models[0]
	m := model.Train(r.toks[mcfg.Name], mcfg, model.SchemeOurs, r.examples)
	return PrefixBench(m, cfg)
}
