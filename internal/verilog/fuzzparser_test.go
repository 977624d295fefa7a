package verilog_test

import (
	"testing"

	"repro/internal/verilog"
)

// parserSeeds are FuzzParser's seed inputs; TestInspectVisitsEveryNode
// walks the ones that parse.
var parserSeeds = []string{
	"",
	"module m; endmodule",
	"module m(input a, output y); assign y = a | ~a; endmodule",
	"module m(input clk, rst, input [7:0] d, output reg [7:0] q);\nalways @(posedge clk or posedge rst) begin\n  if (rst) q <= 8'b0;\n  else q <= d;\nend\nendmodule",
	"module m; parameter W = 4; wire [W-1:0] w; endmodule",
	"module m(input [1:0] s, output reg y);\nalways @(*) begin\n  case (s)\n    2'b00: y = 1'b0;\n    default: y = 1'b1;\n  endcase\nend\nendmodule",
	"module m(input a, output y); assign y =",
	"module m(input a",
	"`timescale 1ns/1ps\nmodule tb; initial begin $display(\"TEST PASSED\"); $finish; end endmodule",
	"module ; endmodule",
	"endmodule module",
	"module m; wire [3:0] w = {2{2'b01}}; endmodule",
	"module m(input a, output y, z); reg x; assign #2 y = a, z = ~a; initial x = #3 a; endmodule",
	"module sub; parameter W = 8, D = 1; endmodule\nmodule m; parameter N = 2; sub #(.W(N**3), .D(N)) u(); sub #(N+1, 4) v(); endmodule",
}

// FuzzParser feeds arbitrary source text to the full parser and checks
// its contract: it must never panic or loop, a failure must be a
// *SyntaxError with a message, success must produce a module-bearing
// AST that Check agrees with and that Inspect walks completely, and —
// the invariant the grammar-drafting oracle rests on — no byte prefix
// of a parsable source may ever be condemned by CheckPrefix, and
// CheckPrefix itself must classify without crashing on whatever the
// mutator produces.
func FuzzParser(f *testing.F) {
	for _, src := range parserSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := verilog.Parse(src)
		if err != nil {
			se, ok := err.(*verilog.SyntaxError)
			if !ok {
				t.Fatalf("error is %T, want *SyntaxError", err)
			}
			if se.Msg == "" {
				t.Fatal("error with empty message")
			}
		} else {
			if file == nil || len(file.Modules) == 0 {
				t.Fatal("successful parse produced no modules")
			}
			checkInspect(t, file)
		}
		if cerr := verilog.Check(src); (cerr == nil) != (err == nil) {
			t.Fatalf("Check error %v disagrees with Parse error %v", cerr, err)
		}

		// CheckPrefix classifies arbitrary text without crashing, and
		// agrees with the parser on complete sources.
		st := verilog.CheckPrefix(src)
		if err == nil && st != verilog.PrefixComplete {
			t.Fatalf("parsable source classified %v, want complete", st)
		}

		// Prefix soundness: a parsable source reached its final state
		// through parsable-prefix territory — no cut point may be
		// condemned, or the drafting oracle would prune the very branch
		// the model is decoding. Bounded so the fuzzer spends its budget
		// on diverse inputs rather than one long sweep.
		if err == nil && len(src) <= 160 {
			for i := 0; i <= len(src); i++ {
				if got := verilog.CheckPrefix(src[:i]); got == verilog.PrefixInvalid {
					t.Fatalf("prefix %q of parsable source condemned", src[:i])
				}
			}
		}
	})
}
