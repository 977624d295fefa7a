package experiments

import (
	"fmt"
	"testing"
)

// maxTraceOverheadPct is the CI tracing-overhead gate: with a live
// tracer assembling the full span tree per request, best-of-N decode
// throughput must stay within 5% of the tracing-off run. Tracing is on
// by default in vgend; this gate is what makes that default honest.
const maxTraceOverheadPct = 5.0

// TestTraceOverheadGate measures tracing-on vs tracing-off decode
// throughput on identical workloads. Wall-clock on shared CI runners
// is noisy even under min-of-N, so the gate gets up to three attempts.
func TestTraceOverheadGate(t *testing.T) {
	m, prompts := testRunner().ServingFixture()
	var lastErr error
	for attempt := 1; attempt <= 3; attempt++ {
		rows, _, err := TraceBench(m, prompts, TraceRepeats)
		if err != nil {
			t.Fatal(err)
		}
		byMode := map[string]TraceBenchRow{}
		for _, row := range rows {
			byMode[row.Tracing] = row
			t.Logf("attempt %d: tracing=%-3s best=%8.2fms tok/s=%8.1f spans=%d dropped=%d",
				attempt, row.Tracing, row.BestWallMS, row.TokensPerSec, row.Spans, row.Dropped)
		}
		off, on := byMode["off"], byMode["on"]
		overhead := 100 * (on.BestWallMS - off.BestWallMS) / off.BestWallMS
		t.Logf("attempt %d: overhead %.2f%% (gate %.1f%%)", attempt, overhead, maxTraceOverheadPct)
		switch {
		case on.Spans == 0:
			lastErr = fmt.Errorf("tracing-on run recorded no spans; the bench did not exercise the tracer")
		case on.Dropped > 0:
			lastErr = fmt.Errorf("tracing-on run dropped %d spans; the span budget is too small for this workload", on.Dropped)
		case overhead > maxTraceOverheadPct:
			lastErr = fmt.Errorf("tracing overhead %.2f%% exceeds %.1f%%", overhead, maxTraceOverheadPct)
		default:
			return
		}
		t.Logf("attempt %d failed: %v", attempt, lastErr)
	}
	t.Fatal(lastErr)
}

// TestTraceByteIdentity is the observability differential: decode
// outputs with tracing on must be byte-identical to tracing off, over
// the whole bench workload. A tracer that changes generated bytes is
// not an observer.
func TestTraceByteIdentity(t *testing.T) {
	m, prompts := testRunner().ServingFixture()
	rows, texts, err := TraceBench(m, prompts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != 2 || len(texts[0]) == 0 {
		t.Fatalf("expected texts for both modes, got %d sets", len(texts))
	}
	off, on := texts[0], texts[1]
	if len(off) != len(on) {
		t.Fatalf("mode output counts diverge: off=%d on=%d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Errorf("request %d: tracing changed the generated bytes\noff: %q\non:  %q", i, off[i], on[i])
		}
	}
	for _, row := range rows {
		if row.Tokens == 0 {
			t.Errorf("tracing=%s generated no tokens", row.Tracing)
		}
	}
}
