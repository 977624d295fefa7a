package sim

import (
	"strings"
	"testing"
)

// Edge cases the benchmark contract leans on: testbench system tasks
// ($display/$finish), X/Z propagation through conditionals, and
// zero-delay (#0) event ordering. Each test pins behavior a generated
// design or testbench could plausibly trip over; a regression here
// silently corrupts the sim-pass-rate column of the quality tier.

// TestFinishHaltsFreeRunningClock pins $finish against the classic
// free-running clock: without the halt the always block toggles
// forever, so the simulation ending at the $finish time with Finished
// set is the whole reason testbenches terminate at all.
func TestFinishHaltsFreeRunningClock(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg clk = 0;
    integer edges = 0;
    always #5 clk = ~clk;
    always @(posedge clk) edges = edges + 1;
    initial begin
        #23;
        $display("edges=%0d", edges);
        $finish;
    end
endmodule`, "tb")
	if !r.Finished {
		t.Fatal("Finished not set after $finish")
	}
	if r.Time != 23 {
		t.Fatalf("simulation ended at %d, want 23", r.Time)
	}
	if !strings.Contains(r.Output, "edges=2") {
		t.Fatalf("posedges at 5 and 15 expected before #23: output %q", r.Output)
	}
}

// TestFinishStopsStatementsAfterIt pins that $finish aborts the rest
// of its own block and every other process immediately: nothing
// scheduled after the halt may write output.
func TestFinishStopsStatementsAfterIt(t *testing.T) {
	r := mustRun(t, `
module tb;
    initial begin
        #10 $display("late");
    end
    initial begin
        $display("TEST PASSED");
        $finish;
        $display("unreachable");
    end
endmodule`, "tb")
	if !passed(r) {
		t.Fatalf("output %q missing TEST PASSED", r.Output)
	}
	for _, banned := range []string{"unreachable", "late"} {
		if strings.Contains(r.Output, banned) {
			t.Errorf("output after $finish leaked: %q in %q", banned, r.Output)
		}
	}
}

// TestDisplayVersusWriteNewlines pins the newline contract the
// pass-marker scan depends on: $display appends one, $write does not,
// and messages land in simulation-time order.
func TestDisplayVersusWriteNewlines(t *testing.T) {
	r := mustRun(t, `
module tb;
    initial begin
        $write("TEST ");
        $write("PAS");
        $display("SED");
        #5 $display("t=%0t", $time);
        $finish;
    end
endmodule`, "tb")
	if !strings.Contains(r.Output, "TEST PASSED\nt=5\n") {
		t.Fatalf("output %q, want writes joined on one line then timed line", r.Output)
	}
}

// TestXConditionTakesElseBranch pins if-statement semantics on
// unknowns: a condition evaluating to x (an uninitialized reg) is not
// true, so the else branch runs — the behavior reset-polling
// testbenches rely on before the first clock edge.
func TestXConditionTakesElseBranch(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg u;
    reg [1:0] y;
    initial begin
        if (u) y = 2'd1;
        else y = 2'd2;
        $display("y=%0d u=%b", y, u);
        $finish;
    end
endmodule`, "tb")
	if !strings.Contains(r.Output, "y=2 u=x") {
		t.Fatalf("output %q, want else branch on x condition", r.Output)
	}
}

// TestTernaryXMergesArms pins conditional-expression semantics on
// unknowns: an x selector merges the two arms bitwise — bits where the
// arms agree stay defined, bits where they differ go x. Both an
// uninitialized reg (x) and an undriven wire (z) must select this way.
func TestTernaryXMergesArms(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg u;
    wire undriven;
    wire [3:0] agree = u ? 4'b1010 : 4'b1010;
    wire [3:0] mixed = u ? 4'b1100 : 4'b1010;
    wire [3:0] viaz  = undriven ? 4'b0110 : 4'b0101;
    initial begin
        #1 $display("agree=%b mixed=%b viaz=%b", agree, mixed, viaz);
        $finish;
    end
endmodule`, "tb")
	if !strings.Contains(r.Output, "agree=1010 mixed=1xx0 viaz=01xx") {
		t.Fatalf("output %q, want bitwise arm merge under x/z selectors", r.Output)
	}
}

// TestCaseSelectorWithXZ pins case-statement semantics on unknowns: a
// plain case compares with === (an x selector matches an x item, not
// the default), while casex treats x bits as wildcards and matches the
// first arm.
func TestCaseSelectorWithXZ(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg u;
    reg [7:0] exact, wild;
    initial begin
        case (u)
            1'b0: exact = "0";
            1'b1: exact = "1";
            1'bx: exact = "x";
            default: exact = "d";
        endcase
        casex (u)
            1'b0: wild = "0";
            1'b1: wild = "1";
            default: wild = "d";
        endcase
        $display("exact=%c wild=%c", exact, wild);
        $finish;
    end
endmodule`, "tb")
	if !strings.Contains(r.Output, "exact=x wild=0") {
		t.Fatalf("output %q, want === match for case and wildcard for casex", r.Output)
	}
}

// TestZeroDelayOrderingSeesSameTimeWrites pins #0 semantics: a process
// that yields with #0 resumes in the same time slot but after the
// currently runnable processes, so it observes time-zero blocking
// writes made by sibling initial blocks — in either declaration order.
func TestZeroDelayOrderingSeesSameTimeWrites(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg before_flag = 0;
    reg after_flag = 0;
    initial begin
        #0;
        $display("sees before=%b after=%b at t=%0t", before_flag, after_flag, $time);
        $finish;
    end
    initial before_flag = 1;
    initial after_flag = 1;
endmodule`, "tb")
	if !strings.Contains(r.Output, "sees before=1 after=1 at t=0") {
		t.Fatalf("output %q, want #0 resume after same-time blocking writes", r.Output)
	}
}

// TestZeroDelayObservesNonblockingUpdates pins the region ordering of
// the scheduler: nonblocking updates scheduled in the active region
// apply once the slot's runnable processes drain, and a #0 yield lands
// after that — so the resumed process reads the post-NBA value while a
// same-slot blocking read still sees the old one.
func TestZeroDelayObservesNonblockingUpdates(t *testing.T) {
	r := mustRun(t, `
module tb;
    reg [3:0] q = 4'd0;
    initial begin
        q <= 4'd7;
        $display("immediate q=%0d", q);
        #0 $display("after-zero q=%0d", q);
        $finish;
    end
endmodule`, "tb")
	if !strings.Contains(r.Output, "immediate q=0") {
		t.Fatalf("output %q: blocking read overtook the nonblocking update", r.Output)
	}
	if !strings.Contains(r.Output, "after-zero q=7") {
		t.Fatalf("output %q: #0 resumed before the NBA region applied", r.Output)
	}
}
