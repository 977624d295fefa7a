package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestFleetAggregatesTreeMetrics pins the fleet roll-up of the
// tree-drafting observability: the acceptance-depth histogram and the
// node-budget counters sum element-for-element across replicas, the
// utilization recomputes over the sums, and the new families appear in
// the fleet's Prometheus exposition.
func TestFleetAggregatesTreeMetrics(t *testing.T) {
	_, prompts := fixture(t)
	// Round-robin spreads the decodes so more than one replica holds
	// histogram mass — otherwise the sum check proves nothing.
	f := newFleet(t, 2, &roundRobinRouter{}, serve.Config{Workers: 1, CacheSize: -1})
	for i := 0; i < 6; i++ {
		req := serve.Request{
			Prompt:  prompts[i],
			Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 24, Seed: int64(i)},
		}
		if resp, err := f.Generate(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, resp.Err)
		}
	}

	fm := f.Metrics()
	if len(fm.Fleet.AcceptDepthHist) != serve.AcceptDepthBuckets {
		t.Fatalf("fleet histogram has %d buckets, want %d", len(fm.Fleet.AcceptDepthHist), serve.AcceptDepthBuckets)
	}
	var nodes, budget uint64
	sum := make([]uint64, serve.AcceptDepthBuckets)
	replicasWithMass := 0
	for _, r := range fm.PerReplica {
		var mass uint64
		for i, v := range r.Engine.AcceptDepthHist {
			sum[i] += v
			mass += v
		}
		if mass > 0 {
			replicasWithMass++
		}
		nodes += r.Engine.TreeNodes
		budget += r.Engine.TreeBudget
	}
	if replicasWithMass < 2 {
		t.Fatalf("only %d replicas decoded; aggregation untested", replicasWithMass)
	}
	for i := range sum {
		if fm.Fleet.AcceptDepthHist[i] != sum[i] {
			t.Fatalf("fleet bucket %d = %d, per-replica sum %d", i, fm.Fleet.AcceptDepthHist[i], sum[i])
		}
	}
	if fm.Fleet.TreeNodes != nodes || fm.Fleet.TreeBudget != budget {
		t.Fatalf("fleet tree totals %d/%d, per-replica sums %d/%d",
			fm.Fleet.TreeNodes, fm.Fleet.TreeBudget, nodes, budget)
	}
	if budget == 0 {
		t.Fatal("no tree budget accounted across the fleet")
	}
	if want := float64(nodes) / float64(budget); fm.Fleet.TreeBudgetUtilization != want {
		t.Fatalf("fleet utilization %f, want %f (recomputed over sums)", fm.Fleet.TreeBudgetUtilization, want)
	}
	if st := fm.Fleet.PerStrategy["OursTree"]; st.TreeNodes != nodes || st.TreeBudget != budget {
		t.Fatalf("per-strategy aggregate %d/%d, want %d/%d", st.TreeNodes, st.TreeBudget, nodes, budget)
	}

	var sb strings.Builder
	f.WritePrometheusTo(&sb, 1)
	body := sb.String()
	for _, want := range []string{
		`vgend_accept_depth_total{depth="1"} `,
		"vgend_tree_nodes_total ",
		"vgend_tree_budget_utilization ",
		`vgend_strategy_tree_nodes_total{strategy="OursTree"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
}
