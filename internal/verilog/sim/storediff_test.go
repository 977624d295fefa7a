package sim_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog/sim"
)

// TestStoreMatchesReference holds the one store-target resolver equal
// to the two it replaced, in widths, updates and errors, over every
// assignment target and output-port connection of every benchmark
// reference and testbench, and of storesTB.
func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 0
	for _, p := range bench.All() {
		n += sim.CheckStoreMatchesReference(t, p.ID, bench.ExtractFirstModule(p.Ref)+"\n"+p.Testbench, "tb", 8, rng)
	}
	if n < 5_000 {
		t.Fatalf("only %d comparisons over the benchmark", n)
	}
	planted := sim.CheckStoreMatchesReference(t, "stores", storesTB, "tb", 64, rng)
	t.Logf("%d comparisons over the benchmark, %d over storesTB", n, planted)
}

// storesTB plants the targets the benchmark sources leave out: x/z
// part-select bounds in an assignment, on an output port and inside a
// concatenation; reversed and out-of-range bounds, on descending and
// ascending vectors; memory words in and out of range; every target
// the resolver rejects (a whole memory, a part-select on a memory, a
// nested select, an unknown name, a concatenation wider than 64 bits,
// an index that does not evaluate); and delayed assignments. sel and i
// are often x or out of range under the test's random signal words.
const storesTB = `module sub(input [3:0] a, output [3:0] y, output [1:0] z);
  assign y = a;
  assign z = a[1:0];
endmodule
module tb;
  reg [7:0] r, t;
  reg [0:7] u;
  reg signed [3:0] s;
  reg [63:0] wide;
  reg [1:0] sel;
  reg [3:0] i;
  reg [7:0] mem [0:3];
  reg [7:0] mem2 [4:1];
  wire [7:0] w;
  sub p(.a(i), .y(r[sel:0]), .z({t[sel], u[1:0]}));
  sub q(.a(i), .y(r[sel+1:sel]), .z(t[9:8]));
  sub v(i, w[3:0], {u[sel], s[i]});
  sub x(.a(i), .y(mem[sel]), .z(r[1'bx:0]));
  assign w[sel] = i[0];
  assign w[7:4] = {sel, sel};
  initial begin
    r[1'bx:0] = 1;
    r[sel:0] = t;
    {r[sel:0], t} = wide;
    {r, t[3:0], u[sel]} = wide;
    {mem[sel], s[i], u[i]} = wide;
    r[0:3] = t;
    u[7:4] = t;
    u[2:5] = t;
    r[9:6] = t;
    r[100:0] = t;
    r[-1:-4] = t;
    r[i] = 1;
    u[i] = 1;
    s[i] = 1;
    s[sel:1] = -1;
    mem[i] = t;
    mem2[i] = t;
    mem[sel] = r;
    mem[9] = 1;
    mem = 1;
    mem[1:0] = 1;
    r[1][0] = 1;
    nosuch = 1;
    nosuch[0] = 1;
    nosuch[1:0] = 1;
    {wide, r} = 1;
    {nosuch, r} = 1;
    r[{wide, wide}] = 1;
    r <= #2 t;
    r[sel] <= #1 t[0];
    {r[3:0], t[sel]} <= #3 wide;
    r = #1 t;
    r[sel:0] = #1 t;
    for (i = 0; i < 4; i = i + 1) mem[i] = i;
  end
endmodule
`
