package experiments

import (
	"math"
	"testing"
)

// TestLoadSweepControllerDominates is the adapt-gate: across the swept
// load points the self-tuning controller must sit on the
// throughput/latency frontier the static (strategy, budget) grid
// spans. Concretely, at EVERY load point the adaptive row must be
// within tolerance of the best static configuration on both measured
// throughput and short-request p95, and at the low-load and high-load
// extremes it must strictly beat at least one static pair on both
// axes — one engine, no hand tuning, no configuration it is allowed
// to lose to. The simulation and the controller are deterministic, so
// a regression in either the control law or the decode strategies
// moves these rows reproducibly.
func TestLoadSweepControllerDominates(t *testing.T) {
	rows, profiles, err := LoadSweep(testRunner().ServingFixture())
	if err != nil {
		t.Fatal(err)
	}

	// Profile sanity: the grid must preserve the contrasts the sweep
	// exists to measure — trees propose nodes and monopolize slots,
	// linear Ours accepts multiple tokens per slot-cheap step, NTP is
	// the one-token-one-slot baseline.
	byName := map[string]*SweepProfile{}
	for _, p := range profiles {
		byName[p.Name()] = p
	}
	tree, ours, ntp := byName["OursTree:96"], byName["Ours"], byName["NTP"]
	if tree == nil || ours == nil || ntp == nil {
		t.Fatalf("profile grid incomplete: %v", profiles)
	}
	if tree.NodesPerStep <= 1 || tree.SlotsPerStep <= ours.SlotsPerStep {
		t.Fatalf("tree profile lost its width: %+v", tree)
	}
	if ours.TokPerStep <= 1.5 {
		t.Fatalf("Ours profile lost multi-token acceptance: %+v", ours)
	}
	if ntp.TokPerStep > 1 || ntp.SlotsPerStep != 1 {
		t.Fatalf("NTP profile is not the one-slot baseline: %+v", ntp)
	}

	// Group rows per load point, keeping sweep order.
	var fracs []float64
	static := map[float64][]LoadSweepRow{}
	adaptive := map[float64]LoadSweepRow{}
	for _, row := range rows {
		if _, seen := static[row.LoadFrac]; !seen && !row.Adaptive {
			fracs = append(fracs, row.LoadFrac)
		}
		if row.Adaptive {
			adaptive[row.LoadFrac] = row
		} else {
			static[row.LoadFrac] = append(static[row.LoadFrac], row)
		}
	}
	if len(fracs) < 3 {
		t.Fatalf("sweep covered %d load points, want >= 3", len(fracs))
	}

	const (
		thrTol = 0.93 // adaptive throughput >= 93% of best static
		p95Tol = 1.25 // adaptive p95 <= 125% of best static
	)
	for i, frac := range fracs {
		ad, ok := adaptive[frac]
		if !ok {
			t.Fatalf("load %.2f: no adaptive row", frac)
		}
		if ad.Decisions == 0 || ad.Requests == 0 {
			t.Fatalf("load %.2f: controller made no decisions: %+v", frac, ad)
		}
		bestThr, bestP95 := 0.0, math.Inf(1)
		for _, s := range static[frac] {
			if s.ThroughputRPS > bestThr {
				bestThr = s.ThroughputRPS
			}
			if s.P95MS < bestP95 {
				bestP95 = s.P95MS
			}
		}
		if ad.ThroughputRPS < thrTol*bestThr {
			t.Errorf("load %.2f: adaptive throughput %.2f rps below %.0f%% of best static %.2f",
				frac, ad.ThroughputRPS, thrTol*100, bestThr)
		}
		if ad.P95MS > p95Tol*bestP95 {
			t.Errorf("load %.2f: adaptive p95 %.1f ms above %.0f%% of best static %.1f",
				frac, ad.P95MS, p95Tol*100, bestP95)
		}
		// At the extremes the controller must strictly dominate at
		// least one static pair on BOTH axes: a trivial controller
		// that always picks one fixed configuration ties that
		// configuration everywhere and fails this at one end or the
		// other (the statics' own rows show no single pair wins both
		// extremes' frontier corners against the whole grid).
		if i == 0 || i == len(fracs)-1 {
			dominated := false
			for _, s := range static[frac] {
				if ad.ThroughputRPS > s.ThroughputRPS && ad.P95MS < s.P95MS {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Errorf("load %.2f: adaptive row %+v strictly dominates no static pair", frac, ad)
			}
		}
	}

	// The ladder must actually engage under load: the top point runs
	// near saturation, where holding full tree drafting for every
	// decision would monopolize verification sweeps.
	top := adaptive[fracs[len(fracs)-1]]
	if top.Downgrades == 0 {
		t.Errorf("near saturation the controller never downgraded: %+v", top)
	}
	// And stay quiet when idle: no downgrades at the low point.
	if low := adaptive[fracs[0]]; low.Downgrades != 0 {
		t.Errorf("idle engine saw %d downgrades", low.Downgrades)
	}
}

// TestLoadSweepDeterministic pins that the whole sweep — profiling,
// simulation, controller — replays identically, which is what lets CI
// assert on its rows at all.
func TestLoadSweepDeterministic(t *testing.T) {
	m, prompts := testRunner().ServingFixture()
	a, _, err := LoadSweep(m, prompts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LoadSweep(m, prompts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across replays:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
