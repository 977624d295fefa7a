package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestFleetAggregatesAdaptMetrics pins the fleet roll-up of the
// speculation-controller observability: decision counters sum across
// replicas, the per-strategy accept-depth histograms sum element-wise,
// and the per-replica adapt families appear in the fleet exposition.
func TestFleetAggregatesAdaptMetrics(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, &roundRobinRouter{}, nil, serve.Config{
		Workers: 1, MaxBatch: 2, CacheSize: -1, NoDedup: true, Adapt: serve.AdaptShadow,
	})
	for i := 0; i < 6; i++ {
		req := serve.Request{Prompt: prompts[i], Options: testOptions(int64(i))}
		if resp, err := f.Generate(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, resp.Err)
		}
	}

	fm := f.Metrics()
	if fm.Fleet.Adapt != serve.AdaptShadow {
		t.Fatalf("uniform fleet adapt mode = %q, want %q", fm.Fleet.Adapt, serve.AdaptShadow)
	}
	var decisions, shadowed uint64
	replicasWithDecisions := 0
	for _, r := range fm.PerReplica {
		if r.Engine.AdaptDecisions > 0 {
			replicasWithDecisions++
		}
		decisions += r.Engine.AdaptDecisions
		shadowed += r.Engine.AdaptShadowed
	}
	if replicasWithDecisions < 2 {
		t.Fatalf("only %d replicas decided; aggregation untested", replicasWithDecisions)
	}
	if fm.Fleet.AdaptDecisions != decisions || decisions != 6 {
		t.Fatalf("fleet decisions %d, per-replica sum %d, want 6", fm.Fleet.AdaptDecisions, decisions)
	}
	if fm.Fleet.AdaptShadowed != shadowed || shadowed != decisions {
		t.Fatalf("fleet shadowed %d, want every decision (%d) shadowed", fm.Fleet.AdaptShadowed, decisions)
	}

	// Per-strategy accept-depth histogram: fleet buckets are the
	// element-wise per-replica sums.
	for name, agg := range fm.Fleet.PerStrategy {
		if len(agg.AcceptDepthHist) == 0 {
			t.Fatalf("strategy %s: fleet lost the accept-depth histogram", name)
		}
		sum := make([]uint64, len(agg.AcceptDepthHist))
		for _, r := range fm.PerReplica {
			for i, v := range r.Engine.PerStrategy[name].AcceptDepthHist {
				sum[i] += v
			}
		}
		for i := range sum {
			if sum[i] != agg.AcceptDepthHist[i] {
				t.Fatalf("strategy %s bucket %d: fleet %d, per-replica sum %d", name, i, agg.AcceptDepthHist[i], sum[i])
			}
		}
	}

	var sb strings.Builder
	f.WritePrometheusTo(&sb, 1)
	body := sb.String()
	for _, want := range []string{
		`vgend_adapt_info{mode="shadow"} 1`,
		"vgend_adapt_decisions_total 6",
		`vgend_replica_adapt_level{replica="r0:`,
		`vgend_replica_adapt_decisions_total{replica="r1:`,
		`vgend_strategy_accept_depth_total{strategy="Ours",depth="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
}

// TestAggregateMixedAdapt pins the identity rule and the
// hottest-replica gauges on synthetic snapshots.
func TestAggregateMixedAdapt(t *testing.T) {
	a := serve.Aggregate([]serve.Metrics{
		{Adapt: serve.AdaptOn, AdaptLevel: 1, AdaptOccupancy: 0.9, AdaptDecisions: 10, AdaptReroutes: 4, AdaptLevelChanges: 2},
		{Adapt: serve.AdaptOff, AdaptLevel: 0, AdaptOccupancy: 0.2},
		{Adapt: serve.AdaptOn, AdaptLevel: 0, AdaptOccupancy: 0.5, AdaptDecisions: 5, AdaptReroutes: 1},
	})
	if a.Adapt != "mixed" {
		t.Fatalf("heterogeneous fleet adapt = %q, want mixed", a.Adapt)
	}
	if a.AdaptLevel != 1 || a.AdaptLevelName != "linear" {
		t.Fatalf("fleet level %d/%q, want hottest replica's 1/linear", a.AdaptLevel, a.AdaptLevelName)
	}
	if a.AdaptOccupancy != 0.9 {
		t.Fatalf("fleet adapt occupancy %f, want max 0.9", a.AdaptOccupancy)
	}
	if a.AdaptDecisions != 15 || a.AdaptReroutes != 5 || a.AdaptLevelChanges != 2 {
		t.Fatalf("adapt sums wrong: %+v", a)
	}
}
