// Simulate: drive the event-driven Verilog simulator directly on a
// self-checking FSM testbench.
package main

import (
	"fmt"

	"repro/internal/verilog/sim"
)

const design = `
module tb;
  reg clk, rst, din;
  wire seen;
  seq_det_101 dut(.clk(clk), .rst(rst), .din(din), .seen(seen));
  always #5 clk = ~clk;
  reg [2:0] window;
  integer i, errors;
  reg [31:0] r;
  initial begin
    clk = 0; rst = 1; din = 0; errors = 0; window = 3'b000;
    @(posedge clk); #1 rst = 0;
    for (i = 0; i < 40; i = i + 1) begin
      @(negedge clk);
      r = $random;
      din = r[0];
      @(posedge clk); #1;
      window = {window[1:0], din};
      if (seen !== (window == 3'b101)) errors = errors + 1;
    end
    if (errors == 0) $display("TEST PASSED");
    else $display("TEST FAILED %0d", errors);
    $finish;
  end
endmodule

module seq_det_101(input clk, input rst, input din, output seen);
  reg [1:0] state;
  localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2, S3 = 2'd3;
  always @(posedge clk) begin
    if (rst) state <= S0;
    else begin
      case (state)
        S0: state <= din ? S1 : S0;
        S1: state <= din ? S1 : S2;
        S2: state <= din ? S3 : S0;
        S3: state <= din ? S1 : S2;
      endcase
    end
  end
  assign seen = (state == S3);
endmodule
`

func main() {
	res, err := sim.RunSource(design, "tb", sim.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Output)
	fmt.Printf("finished at t=%d\n", res.Time)
}
