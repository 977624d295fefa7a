package sim_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog/sim"
)

// TestEvalMatchesReference holds the one evaluator, eval at a context
// width, equal to the two it replaced over every expression of every
// benchmark reference and testbench.
func TestEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 0
	for _, p := range bench.All() {
		n += sim.CheckEvalMatchesReference(t, p.ID, bench.ExtractFirstModule(p.Ref)+"\n"+p.Testbench, "tb", rng)
	}
	n += sim.CheckEvalMatchesReference(t, "operators", operatorsTB, "tb", rng)
	if n < 40_000 {
		t.Fatalf("only %d comparisons", n)
	}
	t.Logf("%d comparisons", n)
}

// operatorsTB reads every operator the simulator evaluates, signed and
// unsigned, with operands of unequal widths: the benchmark sources
// leave several of them (unary minus, **, ?: arms wider than their
// context) unread.
const operatorsTB = `module tb;
  parameter P = 3;
  reg [3:0] a, b;
  reg [7:0] c;
  reg signed [5:0] s, t;
  reg [1:0] sel;
  reg [7:0] mem [0:3];
  initial begin
    c = -a + ~b + +a + !a + &a + |a + ^a + ~&a + ~|a + ~^a + ^~b;
    c = a + b - c * a / b % a;
    c = a ** b + P ** a + s ** 2 + a ** s;
    c = (a & b) | (a ^ c) ^ (a ~^ b) ^ (b ^~ c);
    c = (a << b) + (c >> a) + (s <<< b) + (s >>> a) + (t >>> 1);
    c = (a == c) + (a != b) + (a === c) + (a !== b) + (a < c) + (a > s) + (s <= t) + (s >= a);
    c = (a && b) + (c || sel);
    c = sel ? a + b : c - a;
    c = sel[0] ? -a : ~b;
    c = 1'bx ? a + b : b + a;
    c = s + t + s * t - -s;
    c = {a, b} + {2{a}} + {sel, {2{sel}}};
    c = a[sel] + c[a:b] + c[5:2] + mem[sel] + mem[a];
    c = $signed(a) + s + $unsigned(s) * b + $clog2(c);
    c = "ab" + $time + $random;
  end
endmodule
`
