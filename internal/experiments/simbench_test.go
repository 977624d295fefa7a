package experiments

import "testing"

// TestSimBenchPassRateFloor pins the sim-eval tier: greedy decodes of
// the benchmark problems, elaborated and run against their
// self-checking testbenches, must clear a sim-pass-rate floor on the
// speculative strategies — and the grammar-constrained drafter must
// not trade quality for speed: its sim pass rate stays at or above
// plain ours-tree's. Greedy decoding is deterministic, so the rates
// are stable.
func TestSimBenchPassRateFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rows := testRunner().RunSimBench()
	if len(rows) != len(SimStrategies) {
		t.Fatalf("rows = %d, want %d (one model in Quick setup)", len(rows), len(SimStrategies))
	}
	byStrategy := map[string]SimBenchRow{}
	for _, row := range rows {
		byStrategy[row.Strategy] = row
		t.Logf("%-20s syntax %3d/%d (%.1f%%)  sim-pass %3d/%d (%.1f%%)",
			row.Strategy, row.SyntaxOK, row.Problems, row.SyntaxRate,
			row.SimPassed, row.Problems, row.SimPassRate)
		if row.SimPassed > row.SyntaxOK {
			t.Errorf("%s: more sim passes (%d) than parsable designs (%d)",
				row.Strategy, row.SimPassed, row.SyntaxOK)
		}
	}
	gt, ot := byStrategy["GrammarTree"], byStrategy["OursTree"]
	if gt.SimPassRate < ot.SimPassRate {
		t.Errorf("grammar-tree sim pass rate %.1f%% below ours-tree's %.1f%% — quality traded for speed",
			gt.SimPassRate, ot.SimPassRate)
	}
	// The quick-scale model passes ~a quarter of benches under NTP and
	// ~an eighth under speculative fine-tuning; the floors sit below
	// those deterministic rates with a couple problems of headroom.
	for _, name := range []string{"OursTree", "GrammarTree"} {
		if row := byStrategy[name]; row.SimPassRate < 10 {
			t.Errorf("%s sim pass rate %.1f%% below the 10%% floor", name, row.SimPassRate)
		}
	}
	if row := byStrategy["NTP"]; row.SimPassRate < 20 {
		t.Errorf("NTP sim pass rate %.1f%% below the 20%% floor", row.SimPassRate)
	}
	if lt, ntp := byStrategy["GrammarLookupTree"], byStrategy["NTP"]; lt.SimPassed != ntp.SimPassed {
		t.Errorf("lossless grammar-lookup-tree sim passes (%d) diverged from ntp's (%d)",
			lt.SimPassed, ntp.SimPassed)
	}
}
