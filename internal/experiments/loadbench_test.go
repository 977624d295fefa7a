package experiments

import (
	"fmt"
	"testing"
)

// maxLoadedRatio is the CI latency-under-load gate: with one long
// decode perpetually in flight, short-request p95 must stay within
// 1.5x of the unloaded p95, and the long decode must have been
// preempted to get there — with no preemption the scenario stopped
// exercising head-of-line blocking and the gate proves nothing about
// the scheduler.
const maxLoadedRatio = 1.5

// TestLoadBenchLatencyGate pins the scheduler's whole point as a CI
// bench: short-request p95 holds under load. Wall-clock measurement on
// shared CI runners is noisy, so the gate gets up to three attempts;
// the bound itself sits well clear of the measurement (the ratio lands
// near 1.1x).
func TestLoadBenchLatencyGate(t *testing.T) {
	m, prompts := testRunner().ServingFixture()
	var lastErr error
	for attempt := 1; attempt <= 3; attempt++ {
		row, err := LoadBench(m, prompts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: unloaded p95=%.3fms loaded p95=%.3fms ratio=%.2f preemptions=%d long_decodes=%d",
			attempt, row.UnloadedP95MS, row.LoadedP95MS, row.LatencyRatio, row.Preemptions, row.LongDecodes)
		switch {
		case row.LatencyRatio > maxLoadedRatio:
			lastErr = fmt.Errorf("loaded/unloaded p95 ratio %.2f exceeds %.1f", row.LatencyRatio, maxLoadedRatio)
		case row.Preemptions < 1:
			lastErr = fmt.Errorf("loaded phase never preempted; the bench did not exercise the scheduler")
		default:
			return
		}
		t.Logf("attempt %d failed: %v", attempt, lastErr)
	}
	t.Fatal(lastErr)
}

// BenchmarkLoadBench reports the gated latencies as benchmark metrics
// so the CI bench-smoke artifact carries them per run.
func BenchmarkLoadBench(b *testing.B) {
	m, prompts := testRunner().ServingFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := LoadBench(m, prompts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.UnloadedP95MS, "unloaded_p95_ms")
		b.ReportMetric(row.LoadedP95MS, "loaded_p95_ms")
		b.ReportMetric(row.LatencyRatio, "p95_ratio")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.25, 3}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1.0, 10}}
	for _, tc := range cases {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%.2f) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
