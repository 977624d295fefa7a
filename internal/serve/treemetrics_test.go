package serve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/core/spec"
)

// TestTreeBudgetCanonicalKeys pins the cache-key canonicalization of
// the node budget: a request spelling the decoder default explicitly
// and one leaving the budget unset decode identically, so they must
// share one LRU entry — and linear strategies, which ignore the field,
// must not fragment the cache over stray budget values.
func TestTreeBudgetCanonicalKeys(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: 64})
	defer eng.Close()
	ctx := context.Background()

	first, err := eng.Generate(ctx, Request{Prompt: prompts[0],
		Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 24}})
	if err != nil || first.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, first.Err)
	}
	explicit, err := eng.Generate(ctx, Request{Prompt: prompts[0],
		Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 24, TreeBudget: spec.DefaultTreeBudget}})
	if err != nil || explicit.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, explicit.Err)
	}
	if !explicit.Cached {
		t.Fatal("explicit default budget missed the cache entry of the unset-budget request")
	}

	lin, err := eng.Generate(ctx, Request{Prompt: prompts[0],
		Options: core.Options{Strategy: "ours", MaxNewTokens: 24}})
	if err != nil || lin.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, lin.Err)
	}
	stray, err := eng.Generate(ctx, Request{Prompt: prompts[0],
		Options: core.Options{Strategy: "ours", MaxNewTokens: 24, TreeBudget: 7}})
	if err != nil || stray.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, stray.Err)
	}
	if !stray.Cached {
		t.Fatal("linear strategy fragmented the cache over an ignored tree budget")
	}
}

// TestAcceptDepthHistogramMetrics pins the new observability surface
// of tree drafting: the acceptance-depth histogram partitions exactly
// the decoding steps, the node-budget accounting flows from decode
// results into the snapshot (globally and per strategy), and linear
// strategies report no tree work.
func TestAcceptDepthHistogramMetrics(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1})
	defer eng.Close()

	var reqs []Request
	for i, p := range prompts[:6] {
		reqs = append(reqs,
			Request{Prompt: p, Options: core.Options{Strategy: "ours", MaxNewTokens: 32, Seed: int64(i)}},
			Request{Prompt: p, Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 32, Seed: int64(i)}},
		)
	}
	for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}

	mt := eng.Metrics()
	if len(mt.AcceptDepthHist) != AcceptDepthBuckets {
		t.Fatalf("histogram has %d buckets, want %d", len(mt.AcceptDepthHist), AcceptDepthBuckets)
	}
	var histSum uint64
	for _, v := range mt.AcceptDepthHist {
		histSum += v
	}
	if histSum != mt.Steps {
		t.Fatalf("histogram mass %d, want one entry per step (%d)", histSum, mt.Steps)
	}
	if mt.AcceptDepthHist[0] == histSum {
		t.Fatal("every step emitted one token — speculative fixture decoded nothing speculatively")
	}
	if mt.TreeNodes == 0 || mt.TreeBudget == 0 {
		t.Fatalf("tree accounting empty: nodes=%d budget=%d", mt.TreeNodes, mt.TreeBudget)
	}
	if u := mt.TreeBudgetUtilization; u <= 0 || u > 1 {
		t.Fatalf("utilization %f outside (0, 1]", u)
	}

	ours, tree := mt.PerStrategy["Ours"], mt.PerStrategy["OursTree"]
	if tree.TreeNodes == 0 || tree.TreeBudget == 0 || tree.TreeBudgetUtilization <= 0 {
		t.Fatalf("OursTree strategy tree accounting empty: %+v", tree)
	}
	if ours.TreeNodes != 0 || ours.TreeBudget != 0 || ours.TreeBudgetUtilization != 0 {
		t.Fatalf("linear Ours reported tree work: %+v", ours)
	}
	if tree.TreeNodes != mt.TreeNodes || tree.TreeBudget != mt.TreeBudget {
		t.Fatalf("per-strategy tree totals (%d/%d) disagree with globals (%d/%d)",
			tree.TreeNodes, tree.TreeBudget, mt.TreeNodes, mt.TreeBudget)
	}
}

// TestGrammarMetricsFlow pins the grammar observability surface: the
// oracle's pruned-node and construct-token counters flow from decode
// results into the snapshot (globally and per strategy) and into the
// Prometheus exposition, while non-grammar strategies report zeros.
func TestGrammarMetricsFlow(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1})
	defer eng.Close()

	var reqs []Request
	for i, p := range prompts[:4] {
		reqs = append(reqs,
			Request{Prompt: p, Options: core.Options{Strategy: "grammar-tree", MaxNewTokens: 32, Seed: int64(i)}},
			Request{Prompt: p, Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 32, Seed: int64(i)}},
		)
	}
	for i, resp := range eng.GenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}

	mt := eng.Metrics()
	g, ours := mt.PerStrategy["GrammarTree"], mt.PerStrategy["OursTree"]
	if g.Completed == 0 {
		t.Fatal("no grammar-tree decodes recorded")
	}
	if ours.GrammarPrunedNodes != 0 || ours.GrammarDraftTokens != 0 {
		t.Fatalf("ours-tree reported grammar work: %+v", ours)
	}
	if g.GrammarPrunedNodes != mt.GrammarPrunedNodes || g.GrammarDraftTokens != mt.GrammarDraftTokens {
		t.Fatalf("per-strategy grammar totals (%d/%d) disagree with globals (%d/%d)",
			g.GrammarPrunedNodes, g.GrammarDraftTokens, mt.GrammarPrunedNodes, mt.GrammarDraftTokens)
	}

	var sb strings.Builder
	eng.WritePrometheusTo(&sb, 1)
	body := sb.String()
	for _, want := range []string{
		"vgend_grammar_pruned_nodes_total ",
		"vgend_grammar_draft_tokens_total ",
		`vgend_strategy_grammar_pruned_nodes_total{strategy="GrammarTree"} `,
		`vgend_strategy_grammar_draft_tokens_total{strategy="GrammarTree"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTreeMetricsPrometheusExposition pins the text exposition of the
// new families: the depth histogram with its open-ended last bucket,
// the node counters and the per-strategy utilization gauge.
func TestTreeMetricsPrometheusExposition(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()
	resp, err := eng.Generate(context.Background(), Request{
		Prompt:  prompts[0],
		Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 24},
	})
	if err != nil || resp.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, resp.Err)
	}

	var sb strings.Builder
	eng.WritePrometheusTo(&sb, 1)
	body := sb.String()
	for _, want := range []string{
		`vgend_accept_depth_total{depth="1"} `,
		`vgend_accept_depth_total{depth="16+"} `,
		"# TYPE vgend_accept_depth_total counter",
		"vgend_tree_nodes_total ",
		"vgend_tree_budget_total ",
		"vgend_tree_budget_utilization ",
		`vgend_strategy_tree_nodes_total{strategy="OursTree"} `,
		`vgend_strategy_tree_budget_utilization{strategy="OursTree"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestEngineTreeBudget pins the per-request budget: an explicit
// TreeBudget reaches the decoder untouched.
func TestEngineTreeBudget(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()

	explicit, err := eng.Generate(context.Background(), Request{
		Prompt:  prompts[0],
		Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 24, TreeBudget: 9},
	})
	if err != nil || explicit.Err != nil {
		t.Fatalf("decode failed: %v / %v", err, explicit.Err)
	}
	if want := explicit.Result.Steps * 9; explicit.Result.TreeBudget != want {
		t.Fatalf("explicit tree budget %d over %d steps, want %d",
			explicit.Result.TreeBudget, explicit.Result.Steps, want)
	}
}

// TestStrategyAcceptDepthHistAgrees: the per-strategy accept-depth
// histograms must partition the global one — same buckets, summing to
// the same mass.
func TestStrategyAcceptDepthHistAgrees(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1, NoDedup: true})
	defer eng.Close()
	ctx := context.Background()
	for i, p := range prompts[:6] {
		strat := "ours"
		if i%2 == 1 {
			strat = "ours-tree"
		}
		if _, err := eng.Generate(ctx, Request{Prompt: p, Options: core.Options{Strategy: strat, MaxNewTokens: 32, Seed: int64(i)}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mm := eng.Metrics()
	if len(mm.PerStrategy) < 2 {
		t.Fatalf("expected two strategies, got %v", len(mm.PerStrategy))
	}
	sum := make([]uint64, len(mm.AcceptDepthHist))
	for name, sm := range mm.PerStrategy {
		if len(sm.AcceptDepthHist) != len(mm.AcceptDepthHist) {
			t.Fatalf("strategy %s hist has %d buckets, global %d", name, len(sm.AcceptDepthHist), len(mm.AcceptDepthHist))
		}
		var mass uint64
		for i, v := range sm.AcceptDepthHist {
			sum[i] += v
			mass += v
		}
		if mass == 0 {
			t.Fatalf("strategy %s recorded an empty accept-depth histogram", name)
		}
	}
	for i := range sum {
		if sum[i] != mm.AcceptDepthHist[i] {
			t.Fatalf("bucket %d: per-strategy sum %d != global %d", i, sum[i], mm.AcceptDepthHist[i])
		}
	}
}
