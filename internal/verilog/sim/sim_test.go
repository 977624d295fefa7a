package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/verilog"
)

// passed reports whether a self-checking test printed TEST PASSED.
func passed(r *Result) bool { return strings.Contains(r.Output, "TEST PASSED") }

func mustRun(t *testing.T, src, top string) *Result {
	t.Helper()
	r, err := RunSource(src, top, Options{})
	if err != nil {
		t.Fatalf("RunSource: %v (output so far: %q)", err, outOf(r))
	}
	return r
}

func outOf(r *Result) string {
	if r == nil {
		return ""
	}
	return r.Output
}

func TestValueBasics(t *testing.T) {
	v := FromUint64(0b1010, 4)
	if v.Uint64() != 10 || v.HasXZ() {
		t.Fatalf("v = %v", v)
	}
	x := X(4)
	if !x.HasXZ() || x.A != 0xf || x.B != 0xf {
		t.Fatalf("x = %v", x)
	}
	if got := v.String(); got != "4'b1010" {
		t.Errorf("String = %q", got)
	}
	if got := X(2).String(); got != "2'bxx" {
		t.Errorf("X String = %q", got)
	}
	if got := (Value{W: 2, B: 3}).String(); got != "2'bzz" {
		t.Errorf("Z String = %q", got)
	}
}

func TestValueSignExtension(t *testing.T) {
	v := FromInt64(-3, 4) // 4'b1101 signed
	e := v.Extend(8)
	if e.Int64() != -3 {
		t.Errorf("sign extend: got %d, want -3", e.Int64())
	}
	u := FromUint64(0b1101, 4)
	eu := u.Extend(8)
	if eu.Uint64() != 0b1101 {
		t.Errorf("zero extend: got %d", eu.Uint64())
	}
}

func TestValueLogicTables(t *testing.T) {
	zero := FromUint64(0, 1)
	one := FromUint64(1, 1)
	x := X(1)
	// AND dominance: 0 & x = 0
	if got := And(zero, x); got.HasXZ() || got.A != 0 {
		t.Errorf("0&x = %v", got)
	}
	if got := And(one, x); !got.HasXZ() {
		t.Errorf("1&x = %v, want x", got)
	}
	// OR dominance: 1 | x = 1
	if got := Or(one, x); got.HasXZ() || got.A != 1 {
		t.Errorf("1|x = %v", got)
	}
	if got := Or(zero, x); !got.HasXZ() {
		t.Errorf("0|x = %v, want x", got)
	}
	if got := Xor(one, x); !got.HasXZ() {
		t.Errorf("1^x = %v, want x", got)
	}
	if got := Not(x); !got.HasXZ() {
		t.Errorf("~x = %v, want x", got)
	}
}

func TestValueArithmeticXPoison(t *testing.T) {
	if got := Add(FromUint64(1, 4), X(4)); !got.HasXZ() {
		t.Errorf("1+x = %v, want x", got)
	}
	if got := Div(FromUint64(8, 4), FromUint64(0, 4)); !got.HasXZ() {
		t.Errorf("8/0 = %v, want x", got)
	}
	if got := Add(FromUint64(9, 4), FromUint64(9, 4)); got.Uint64() != 2 {
		t.Errorf("9+9 mod 16 = %d, want 2", got.Uint64())
	}
}

func TestSimpleDFF(t *testing.T) {
	src := `
module tb;
  reg clk;
  reg [3:0] d;
  wire [3:0] q;
  dff dut(.clk(clk), .d(d), .q(q));
  initial begin
    clk = 0; d = 4'd5;
    #10;
    if (q !== 4'd5) $display("TEST FAILED q=%d", q);
    else $display("TEST PASSED");
    $finish;
  end
  always #2 clk = ~clk;
endmodule
module dff(input clk, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d;
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
	if !r.Finished {
		t.Error("expected $finish")
	}
}

func TestNBASwapSemantics(t *testing.T) {
	// The canonical NBA test: both registers read pre-clock values.
	src := `
module tb;
  reg clk;
  reg [7:0] a, b;
  initial begin
    clk = 0; a = 8'd1; b = 8'd2;
    #5 clk = 1;
    #1;
    if (a === 8'd2 && b === 8'd1) $display("TEST PASSED");
    else $display("TEST FAILED a=%d b=%d", a, b);
    $finish;
  end
  always @(posedge clk) a <= b;
  always @(posedge clk) b <= a;
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestBlockingVsNonblockingOrder(t *testing.T) {
	src := `
module tb;
  reg clk;
  reg [7:0] a, b, c;
  initial begin
    clk = 0; a = 8'd1;
    #5 clk = 1;
    #1;
    // blocking: b sees updated a; NBA c sees pre-clock a
    if (b === 8'd42 && c === 8'd1) $display("TEST PASSED");
    else $display("TEST FAILED b=%d c=%d", b, c);
    $finish;
  end
  always @(posedge clk) begin
    c <= a;
    a = 8'd42;
    b = a;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestCombinationalAlwaysStar(t *testing.T) {
	src := `
module tb;
  reg [3:0] a, b;
  reg [1:0] sel;
  wire [3:0] y;
  mux4 dut(.a(a), .b(b), .sel(sel), .y(y));
  initial begin
    a = 4'd3; b = 4'd12; sel = 2'b00;
    #1;
    if (y !== 4'd3) begin $display("TEST FAILED y=%d", y); $finish; end
    sel = 2'b01;
    #1;
    if (y !== 4'd12) begin $display("TEST FAILED y=%d", y); $finish; end
    sel = 2'b10;
    #1;
    if (y !== 4'd15) begin $display("TEST FAILED y=%d", y); $finish; end
    $display("TEST PASSED");
    $finish;
  end
endmodule
module mux4(input [3:0] a, b, input [1:0] sel, output reg [3:0] y);
  always @(*) begin
    case (sel)
      2'b00: y = a;
      2'b01: y = b;
      default: y = a | b;
    endcase
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestContinuousAssignChain(t *testing.T) {
	src := `
module tb;
  reg [7:0] a;
  wire [7:0] b, c, d;
  assign b = a + 8'd1;
  assign c = b * 8'd2;
  assign d = c - 8'd3;
  initial begin
    a = 8'd10;
    #1;
    if (d === 8'd19) $display("TEST PASSED");
    else $display("TEST FAILED d=%d", d);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestCounterWithAsyncReset(t *testing.T) {
	src := `
module tb;
  reg clk, rst;
  wire [7:0] q;
  counter dut(.clk(clk), .rst(rst), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1;
    #12 rst = 0;
    #100; // 10 rising edges after reset deassert
    if (q === 8'd10) $display("TEST PASSED");
    else $display("TEST FAILED q=%d", q);
    $finish;
  end
endmodule
module counter(input clk, rst, output reg [7:0] q);
  always @(posedge clk or posedge rst)
    if (rst) q <= 8'd0;
    else q <= q + 8'd1;
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestMemoryRegisterFile(t *testing.T) {
	src := `
module tb;
  reg clk, we;
  reg [3:0] waddr, raddr;
  reg [7:0] wdata;
  wire [7:0] rdata;
  regfile dut(.clk(clk), .we(we), .waddr(waddr), .raddr(raddr), .wdata(wdata), .rdata(rdata));
  integer i;
  integer errors;
  always #5 clk = ~clk;
  initial begin
    clk = 0; we = 1; errors = 0;
    // Drive on the negative edge so the DUT's posedge sample is
    // race-free (standard testbench practice).
    for (i = 0; i < 16; i = i + 1) begin
      @(negedge clk);
      waddr = i[3:0]; wdata = i[7:0] * 8'd3;
      @(posedge clk); #1;
    end
    we = 0;
    for (i = 0; i < 16; i = i + 1) begin
      raddr = i[3:0];
      #1;
      if (rdata !== i[7:0] * 8'd3) errors = errors + 1;
    end
    if (errors == 0) $display("TEST PASSED");
    else $display("TEST FAILED errors=%d", errors);
    $finish;
  end
endmodule
module regfile(input clk, we, input [3:0] waddr, raddr, input [7:0] wdata, output [7:0] rdata);
  reg [7:0] mem [0:15];
  always @(posedge clk) if (we) mem[waddr] <= wdata;
  assign rdata = mem[raddr];
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestHierarchyTwoLevels(t *testing.T) {
	src := `
module tb;
  reg [3:0] a, b;
  wire [4:0] sum;
  adder4 dut(.a(a), .b(b), .sum(sum));
  initial begin
    a = 4'd9; b = 4'd8;
    #1;
    if (sum === 5'd17) $display("TEST PASSED");
    else $display("TEST FAILED sum=%d", sum);
    $finish;
  end
endmodule
module adder4(input [3:0] a, b, output [4:0] sum);
  wire [3:0] s;
  wire [3:0] c;
  fa f0(.a(a[0]), .b(b[0]), .cin(1'b0), .s(s[0]), .cout(c[0]));
  fa f1(.a(a[1]), .b(b[1]), .cin(c[0]), .s(s[1]), .cout(c[1]));
  fa f2(.a(a[2]), .b(b[2]), .cin(c[1]), .s(s[2]), .cout(c[2]));
  fa f3(.a(a[3]), .b(b[3]), .cin(c[2]), .s(s[3]), .cout(c[3]));
  assign sum = {c[3], s};
endmodule
module fa(input a, b, cin, output s, cout);
  assign s = a ^ b ^ cin;
  assign cout = (a & b) | (a & cin) | (b & cin);
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestPartSelectAndConcatStores(t *testing.T) {
	src := `
module tb;
  reg [7:0] v;
  reg [3:0] hi, lo;
  initial begin
    v = 8'h00;
    v[3:0] = 4'hA;
    v[7:4] = 4'h5;
    {hi, lo} = v;
    if (v === 8'h5A && hi === 4'h5 && lo === 4'hA) $display("TEST PASSED");
    else $display("TEST FAILED v=%h hi=%h lo=%h", v, hi, lo);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestBitSelectStoreAndRead(t *testing.T) {
	src := `
module tb;
  reg [7:0] v;
  integer i;
  initial begin
    v = 8'd0;
    for (i = 0; i < 8; i = i + 2) v[i] = 1'b1;
    if (v === 8'b01010101) $display("TEST PASSED");
    else $display("TEST FAILED v=%b", v);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestCasezWildcards(t *testing.T) {
	src := `
module tb;
  reg [3:0] req;
  wire [1:0] grant;
  prio dut(.req(req), .grant(grant));
  initial begin
    req = 4'b1000; #1;
    if (grant !== 2'd3) begin $display("TEST FAILED g=%d", grant); $finish; end
    req = 4'b0110; #1;
    if (grant !== 2'd1) begin $display("TEST FAILED g=%d", grant); $finish; end
    req = 4'b0001; #1;
    if (grant !== 2'd0) begin $display("TEST FAILED g=%d", grant); $finish; end
    $display("TEST PASSED");
    $finish;
  end
endmodule
module prio(input [3:0] req, output reg [1:0] grant);
  always @(*)
    casez (req)
      4'bzzz1: grant = 2'd0;
      4'bzz10: grant = 2'd1;
      4'bz100: grant = 2'd2;
      4'b1000: grant = 2'd3;
      default: grant = 2'd0;
    endcase
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestSignedArithmetic(t *testing.T) {
	src := `
module tb;
  reg signed [7:0] a, b;
  wire signed [7:0] q;
  assign q = a >>> 2;
  initial begin
    a = -8'sd20; b = 8'sd3;
    #1;
    if (q === -8'sd5 && (a < b)) $display("TEST PASSED");
    else $display("TEST FAILED q=%d", q);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestDisplayFormatting(t *testing.T) {
	src := `
module tb;
  reg [7:0] v;
  initial begin
    v = 8'hA5;
    $display("d=%d b=%b h=%h", v, v, v);
    $display("time=%0t pct=%%", $time);
    $write("no");
    $write("newline");
    $display("");
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	want := "d=165 b=10100101 h=a5\ntime=0 pct=%\nnonewline\n"
	if r.Output != want {
		t.Fatalf("output = %q, want %q", r.Output, want)
	}
}

func TestXPropagationBeforeReset(t *testing.T) {
	src := `
module tb;
  reg clk;
  reg [3:0] d;
  wire [3:0] q;
  dff dut(.clk(clk), .d(d), .q(q));
  initial begin
    clk = 0; d = 4'd7;
    // before any clock edge q must be x
    if (q === 4'bxxxx) $display("TEST PASSED");
    else $display("TEST FAILED q=%b", q);
    $finish;
  end
endmodule
module dff(input clk, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d;
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestRepeatAndEventWait(t *testing.T) {
	src := `
module tb;
  reg clk;
  integer n;
  always #5 clk = ~clk;
  initial begin
    clk = 0; n = 0;
    repeat (4) begin
      @(posedge clk);
      n = n + 1;
    end
    if (n === 32'd4 && $time == 35) $display("TEST PASSED");
    else $display("TEST FAILED n=%0d t=%0t", n, $time);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
module tb;
  integer i, sum;
  initial begin
    i = 0; sum = 0;
    while (i < 10) begin
      sum = sum + i;
      i = i + 1;
    end
    if (sum === 32'd45) $display("TEST PASSED");
    else $display("TEST FAILED sum=%0d", sum);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestRunawayAlwaysDetected(t *testing.T) {
	src := `
module tb;
  reg a;
  always a = ~a;
endmodule`
	_, err := RunSource(src, "tb", Options{})
	if err == nil {
		t.Fatal("expected runaway-loop error")
	}
}

// TestRunsLeaveNoProcessRunning ends a run in each way it can end
// with processes still blocked, and checks that none of their
// coroutines outlives Run.
func TestRunsLeaveNoProcessRunning(t *testing.T) {
	const blocked = `
module tb;
  reg clk = 0, never = 0, r;
  initial @(posedge never) $display("woke");
  always #1 clk = ~clk;
`
	cases := []struct {
		name, body string
		opts       Options
		err        string
	}{
		{"finish", "initial #10 $finish;", Options{}, ""},
		{"max time", "", Options{MaxTime: 50}, "max time"},
		{"step limit", "", Options{MaxSteps: 50}, "step limit"},
		{"runaway always", "always r = 1;", Options{}, "without any timing control"},
	}
	// A goroutine an earlier test left may still be exiting: the
	// baseline is taken once the count has stopped falling, and after
	// each Run the count has until a deadline to come back to it, so
	// only a process that outlives Run fails.
	base := runtime.NumGoroutine()
	for {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= base {
			break
		}
		base = n
	}
	for _, c := range cases {
		_, err := RunSource(blocked+c.body+"\nendmodule", "tb", c.opts)
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, n, base)
		}
	}
}

func TestZeroDelayOscillationDetected(t *testing.T) {
	// A combinational ring with defined values oscillates in zero time.
	// (With x inputs a 4-state simulator settles at x instead, so the
	// loop must be enabled from a defined constant.)
	src := `
module tb;
  reg en;
  wire a, b;
  assign a = en ? ~b : 1'b0;
  assign b = a;
  initial begin
    en = 0;
    #1 en = 1;
    #1 $finish;
  end
endmodule`
	_, err := RunSource(src, "tb", Options{})
	if err == nil {
		t.Fatal("expected oscillation error")
	}
	if !strings.Contains(err.Error(), "oscillation") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMaxTimeLimit(t *testing.T) {
	src := `
module tb;
  reg clk;
  always #5 clk = ~clk;
  initial clk = 0;
endmodule`
	_, err := RunSource(src, "tb", Options{MaxTime: 1000})
	if err == nil {
		t.Fatal("expected max-time error for clock with no $finish")
	}
	if !strings.Contains(err.Error(), "max time") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFindTop(t *testing.T) {
	src := `
module tb; dut u(); endmodule
module dut; endmodule`
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	top, err := FindTop([]*verilog.SourceFile{f})
	if err != nil {
		t.Fatal(err)
	}
	if top != "tb" {
		t.Fatalf("top = %q, want tb", top)
	}
}

func TestUnknownModuleError(t *testing.T) {
	src := `module tb; ghost u(.a(1'b0)); endmodule`
	_, err := RunSource(src, "tb", Options{})
	if err == nil {
		t.Fatal("expected unknown module error")
	}
}

func TestOutputPortToNonLValue(t *testing.T) {
	src := `module sub(output y); assign y = 1'b1; endmodule
module tb; reg a, b; sub u(.y(a + b)); endmodule`
	_, err := RunSource(src, "tb", Options{})
	want := `sim: tb: output port "y" connected to non-lvalue: unsupported lvalue *verilog.Binary`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

func TestTernaryXMerge(t *testing.T) {
	src := `
module tb;
  reg s;
  reg [3:0] a, b;
  wire [3:0] y;
  assign y = s ? a : b;
  initial begin
    a = 4'b1100; b = 4'b1010;
    // s is x: bits where a and b agree stay defined, others go x
    #1;
    if (y === 4'b1xx0) $display("TEST PASSED");
    else $display("TEST FAILED y=%b", y);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestShiftRegisterNonANSI(t *testing.T) {
	src := `
module tb;
  reg clk, din;
  wire [3:0] q;
  shreg dut(clk, din, q);
  always #5 clk = ~clk;
  initial begin
    clk = 0;
    din = 1; @(posedge clk);
    din <= 0; @(posedge clk);
    din <= 1; @(posedge clk);
    din <= 1; @(posedge clk);
    #1;
    // Samples are 1,0,1,1 LSB-first: q = 4'b1011.
    if (q === 4'b1011) $display("TEST PASSED");
    else $display("TEST FAILED q=%b", q);
    $finish;
  end
endmodule
module shreg(clk, din, q);
  input clk, din;
  output [3:0] q;
  reg [3:0] q;
  always @(posedge clk) q <= {q[2:0], din};
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestFSMSequenceDetector(t *testing.T) {
	// Detects pattern 101 on din (Moore machine).
	src := `
module tb;
  reg clk, rst, din;
  wire seen;
  det101 dut(.clk(clk), .rst(rst), .din(din), .seen(seen));
  always #5 clk = ~clk;
  integer errors;
  initial begin
    clk = 0; rst = 1; din = 0; errors = 0;
    @(posedge clk); #1 rst = 0;
    // Drive on negedges so posedge samples are race-free.
    @(negedge clk) din = 1;
    @(negedge clk) din = 0;
    @(negedge clk) din = 1;
    @(posedge clk); #1;
    if (seen !== 1'b1) errors = errors + 1;
    @(negedge clk) din = 0;
    @(posedge clk); #1;
    if (seen !== 1'b0) errors = errors + 1;
    if (errors == 0) $display("TEST PASSED");
    else $display("TEST FAILED errors=%0d", errors);
    $finish;
  end
endmodule
module det101(input clk, rst, din, output seen);
  reg [1:0] state;
  localparam S0 = 2'd0, S1 = 2'd1, S10 = 2'd2, S101 = 2'd3;
  always @(posedge clk or posedge rst) begin
    if (rst) state <= S0;
    else begin
      case (state)
        S0:   state <= din ? S1 : S0;
        S1:   state <= din ? S1 : S10;
        S10:  state <= din ? S101 : S0;
        S101: state <= din ? S1 : S10;
      endcase
    end
  end
  assign seen = (state == S101);
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestNBADelayedAssignment(t *testing.T) {
	src := `
module tb;
  reg [3:0] q;
  initial begin
    q = 4'd0;
    q <= #10 4'd9;
    #5;
    if (q !== 4'd0) begin $display("TEST FAILED early q=%d", q); $finish; end
    #6;
    if (q === 4'd9) $display("TEST PASSED");
    else $display("TEST FAILED q=%d", q);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

// TestDelayedAssignTargets: q <= #d rhs resolves its target when it is
// scheduled ([3:0], though sel is x when it lands); x = #d rhs resolves
// it again after the wait, where x/z part-select bounds take nothing,
// as on an output port (r), and a select that moved during the wait
// lands where it points then (x, [1:0] when scheduled, [0:0] after).
// The same x/z bounds in an assignment without a delay are an error.
func TestDelayedAssignTargets(t *testing.T) {
	src := `
module tb;
  reg [7:0] q, r, x;
  reg [2:0] sel;
  initial begin
    q = 0; r = 0; x = 0; sel = 3;
    q[sel:0] <= #2 8'hff;
    r[sel:0] = #2 8'hff;
    sel = 1;
    x[sel:0] = #1 8'hff;
    $display("%b %b %b", q, r, x);
  end
  initial begin #1 sel = 3'bx; #1 sel = 0; end
endmodule`
	r := mustRun(t, src, "tb")
	if want := "00001111 00000000 00000001\n"; r.Output != want {
		t.Errorf("output %q, want %q", r.Output, want)
	}
	_, err := RunSource("module tb; reg [7:0] r; reg [2:0] sel; initial r[sel:0] = 1; endmodule", "tb", Options{})
	if err == nil || !strings.Contains(err.Error(), "x/z part-select bounds") {
		t.Errorf("x/z bounds in an assignment: error %v", err)
	}
}

func TestReductionOperators(t *testing.T) {
	src := `
module tb;
  reg [3:0] v;
  initial begin
    v = 4'b1011;
    if ((&v) === 1'b0 && (|v) === 1'b1 && (^v) === 1'b1 &&
        (~&v) === 1'b1 && (~|v) === 1'b0 && (~^v) === 1'b0)
      $display("TEST PASSED");
    else
      $display("TEST FAILED");
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestReplicationAndConcat(t *testing.T) {
	src := `
module tb;
  reg [1:0] a;
  wire [7:0] y;
  assign y = {4{a}};
  initial begin
    a = 2'b10;
    #1;
    if (y === 8'b10101010) $display("TEST PASSED");
    else $display("TEST FAILED y=%b", y);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestParameterizedModule(t *testing.T) {
	src := `
module tb;
  reg [7:0] d;
  wire [7:0] q;
  reg clk;
  pipe dut(.clk(clk), .d(d), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; d = 8'd77;
    @(posedge clk); @(posedge clk); #1;
    if (q === 8'd77) $display("TEST PASSED");
    else $display("TEST FAILED q=%d", q);
    $finish;
  end
endmodule
module pipe #(parameter W = 8) (input clk, input [W-1:0] d, output reg [W-1:0] q);
  reg [W-1:0] mid;
  always @(posedge clk) begin
    mid <= d;
    q <= mid;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

// TestSimulatesEveryParsedParameter runs parameters folded with
// operators (**, %, >) beyond the arithmetic core: the simulator folds
// them with the parser's folder, so whatever parses also elaborates.
func TestSimulatesEveryParsedParameter(t *testing.T) {
	src := `
module tb;
  parameter W = 2**3;
  localparam M = W % 3;
  localparam B = (W > 4);
  initial $display("%0d %0d %0d", W, M, M + B);
endmodule`
	r := mustRun(t, src, "tb")
	if got := strings.TrimSpace(r.Output); got != "8 2 3" {
		t.Fatalf("output %q, want %q", got, "8 2 3")
	}
}

func TestForeverClockWithDisableByFinish(t *testing.T) {
	src := `
module tb;
  reg clk;
  initial begin
    clk = 0;
    forever #5 clk = ~clk;
  end
  initial begin
    #43;
    if (clk === 1'b0) $display("TEST PASSED");
    else $display("TEST FAILED clk=%b", clk);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestContextWidthCarry(t *testing.T) {
	// {cout, sum} = a + b + cin must keep the carry (context-determined
	// widening per the LRM).
	src := `
module tb;
  reg [7:0] a, b;
  reg cin;
  wire [7:0] sum;
  wire cout;
  assign {cout, sum} = a + b + cin;
  initial begin
    a = 8'd200; b = 8'd100; cin = 1'b1;
    #1;
    if (cout === 1'b1 && sum === 8'd45) $display("TEST PASSED");
    else $display("TEST FAILED cout=%b sum=%d", cout, sum);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestComparisonWidening(t *testing.T) {
	src := `
module tb;
  reg [7:0] a, b;
  initial begin
    a = 8'd200; b = 8'd100;
    // (a+b) compared against an unsized literal keeps the carry.
    if ((a + b) == 300) $display("TEST PASSED");
    else $display("TEST FAILED");
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestCasexWildcards(t *testing.T) {
	src := `
module tb;
  reg [3:0] v;
  reg [1:0] y;
  initial begin
    v = 4'b1010;
    casex (v)
      4'b1xx0: y = 2'd1;
      default: y = 2'd0;
    endcase
    if (y === 2'd1) $display("TEST PASSED");
    else $display("TEST FAILED y=%d", y);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestDisplayStringAndChar(t *testing.T) {
	src := `
module tb;
  initial begin
    $display("msg=%s ch=%c", "hi", 65);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if r.Output != "msg=hi ch=A\n" {
		t.Fatalf("output = %q", r.Output)
	}
}

func TestSignedDisplayNegative(t *testing.T) {
	src := `
module tb;
  reg signed [7:0] x;
  initial begin
    x = -8'sd42;
    $display("x=%d", x);
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !strings.Contains(r.Output, "x=-42") {
		t.Fatalf("output = %q", r.Output)
	}
}

func TestTernaryNestedAndShift(t *testing.T) {
	src := `
module tb;
  reg [7:0] a;
  wire [7:0] y;
  assign y = (a > 8'd100) ? (a >> 1) : (a < 8'd10 ? a << 2 : a);
  initial begin
    a = 8'd200; #1;
    if (y !== 8'd100) begin $display("TEST FAILED 1"); $finish; end
    a = 8'd4; #1;
    if (y !== 8'd16) begin $display("TEST FAILED 2"); $finish; end
    a = 8'd50; #1;
    if (y !== 8'd50) begin $display("TEST FAILED 3"); $finish; end
    $display("TEST PASSED");
    $finish;
  end
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

func TestUnconnectedPortStaysX(t *testing.T) {
	src := `
module tb;
  wire y;
  buf_cell u(.a(), .y(y));
  initial begin
    #1;
    if (y === 1'bx) $display("TEST PASSED");
    else $display("TEST FAILED y=%b", y);
    $finish;
  end
endmodule
module buf_cell(input a, output y);
  assign y = a;
endmodule`
	r := mustRun(t, src, "tb")
	if !passed(r) {
		t.Fatalf("output: %q", r.Output)
	}
}

// TestPowIsExact: ** is exact modulo 2^w for any exponent, not only
// for the first 64 multiplications.
func TestPowIsExact(t *testing.T) {
	if got := Pow(FromUint64(3, 8), FromUint64(100, 8)); got.A != 209 {
		t.Errorf("3**100 in 8 bits = %d, want 209", got.A)
	}
	three := FromUint64(3, 64)
	if p64, p65 := Pow(three, FromUint64(64, 64)), Pow(three, FromUint64(65, 64)); p65.A != 3*p64.A {
		t.Errorf("3**65 = %d, want 3 * 3**64 = %d", p65.A, 3*p64.A)
	}
	r := mustRun(t, "module tb; reg [7:0] a, e, r; initial begin a = 3; e = 100; r = a ** e; $display(\"%0d\", r); end endmodule", "tb")
	if r.Output != "209\n" {
		t.Errorf("simulated 3**100 printed %q, want 209", r.Output)
	}
}

// TestInstanceParameterOverrides: each instance elaborates with its
// own overrides, named or ordered, and a parameter derived from an
// overridden one follows it, as do the port, net and memory ranges
// that read it; an override's value folds in the parent instance's
// parameters, overridden ones included. An override that reaches no
// parameter (an unknown name, a localparam, one ordered value too
// many), one that widens a range past its limit, and a parameter
// declared twice are ElabErrors.
func TestInstanceParameterOverrides(t *testing.T) {
	sub := "module sub; parameter W = 8; parameter D = 1; localparam M = W * 2; initial $display(\"%0d %0d %0d\", W, D, M); endmodule\n"
	r := mustRun(t, sub+"module tb; sub #(.W(4)) u(); sub #(2, 3) v(); sub w(); endmodule", "tb")
	if want := "4 1 8\n2 3 4\n8 1 16\n"; r.Output != want {
		t.Errorf("output %q, want %q", r.Output, want)
	}
	for _, c := range []struct{ src, want string }{
		{`module sub #(parameter W = 8) (input [W-1:0] a, output [W-1:0] y);
  assign y = a + 1;
endmodule
module tb;
  reg [7:0] a; wire [7:0] y;
  sub #(.W(4)) u(.a(a), .y(y));
  initial begin a = 15; #1 $display("y=%0d", y); end
endmodule`, "y=0\n"},
		{`module mem #(parameter D = 4, parameter W = 8) (input [1:0] addr, output [W-1:0] q);
  reg [W-1:0] m [0:D-1];
  initial m[1] = 8'hff;
  assign q = m[addr];
endmodule
module tb;
  wire [7:0] q;
  mem #(2, 3) u(.addr(2'd1), .q(q));
  initial begin #1 $display("q=%0d", q); end
endmodule`, "q=7\n"},
		{`module sub #(parameter W = 8) (); initial $display("W=%0d", W); endmodule
module mid #(parameter N = 8) (); sub #(.W(N*2)) s(); endmodule
module tb; mid #(.N(3)) m(); endmodule`, "W=6\n"},
	} {
		if r := mustRun(t, c.src, "tb"); r.Output != c.want {
			t.Errorf("%s:\noutput %q, want %q", c.src, r.Output, c.want)
		}
	}
	wide := "module w #(parameter W = 8, D = 4) (input [W-1:0] a); reg [7:0] m [1:D]; endmodule\n"
	for _, src := range []string{
		sub + "module tb; sub #(.X(4)) u(); endmodule",
		sub + "module tb; sub #(.M(4)) u(); endmodule",
		sub + "module tb; sub #(1, 2, 3) u(); endmodule",
		wide + "module tb; w #(.W(100)) u(.a(1'b0)); endmodule",
		wide + "module tb; w #(.W(-63)) u(.a(1'b0)); endmodule",
		wide + "module tb; w #(.D((1 << 20) + 1)) u(.a(1'b0)); endmodule",
		wide + "module tb; w #(.D(-4611686018427387904)) u(.a(1'b0)); endmodule",
		"module tb; parameter P = 1; wire [P:0] a; parameter P = 2; endmodule",
	} {
		_, err := RunSource(src, "tb", Options{})
		if _, ok := err.(*ElabError); !ok {
			t.Errorf("%s: error %v, want an ElabError", src, err)
		}
	}
	for _, src := range []string{
		wide + "module tb; w #(.W(64), .D(16)) u(.a(1'b0)); endmodule",
		wide + "module tb; w #(.W(-62)) u(.a(1'b0)); endmodule",
	} {
		if _, err := RunSource(src, "tb", Options{}); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}
