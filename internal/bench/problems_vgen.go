package bench

// VGen returns the VGen-like suite: 17 problems with low-level prompts
// that state the module's function and spell out its header (module
// name, input and output types) — the paper notes these are the most
// challenging prompt style and matches VGen's 17-problem size (Pass
// Rate granularity 1/17 = 5.88%).
func VGen() []Problem { return vgenProblems }

var vgenProblems = withTestbenches([]Problem{
	{
		ID: "vgen/simple_wire", Suite: "VGen", Module: "simple_wire",
		Prompt: "Complete the Verilog module below. It is a simple wire that connects input in_a to output out_a.\nmodule simple_wire(input in_a, output out_a);",
		Ref: `module simple_wire(input in_a, output out_a);
    assign out_a = in_a;
endmodule
`,
	},
	{
		ID: "vgen/and_gate", Suite: "VGen", Module: "and_gate",
		Prompt: "Complete the Verilog module below. It is a 2-input and gate driving out from inputs a and b.\nmodule and_gate(input a, input b, output out);",
		Ref: `module and_gate(input a, input b, output out);
    assign out = a & b;
endmodule
`,
	},
	{
		ID: "vgen/or_gate", Suite: "VGen", Module: "or_gate",
		Prompt: "Complete the Verilog module below. It is a 2-input or gate driving out from inputs a and b.\nmodule or_gate(input a, input b, output out);",
		Ref: `module or_gate(input a, input b, output out);
    assign out = a | b;
endmodule
`,
	},
	{
		ID: "vgen/xor_gate", Suite: "VGen", Module: "xor_gate",
		Prompt: "Complete the Verilog module below. It is a 2-input xor gate driving out from inputs a and b.\nmodule xor_gate(input a, input b, output out);",
		Ref: `module xor_gate(input a, input b, output out);
    assign out = a ^ b;
endmodule
`,
	},
	{
		ID: "vgen/not_gate", Suite: "VGen", Module: "not_gate",
		Prompt: "Complete the Verilog module below. It is an inverter: output out is the logical complement of input in_a.\nmodule not_gate(input in_a, output out);",
		Ref: `module not_gate(input in_a, output out);
    assign out = ~in_a;
endmodule
`,
	},
	{
		ID: "vgen/nand_gate", Suite: "VGen", Module: "nand_gate",
		Prompt: "Complete the Verilog module below. It is a 2-input nand gate driving out from inputs a and b.\nmodule nand_gate(input a, input b, output out);",
		Ref: `module nand_gate(input a, input b, output out);
    assign out = ~(a & b);
endmodule
`,
	},
	{
		ID: "vgen/half_adder", Suite: "VGen", Module: "half_adder",
		Prompt: "Complete the Verilog module below. It is a half adder: sum s is a xor b and carry c is a and b.\nmodule half_adder(input a, input b, output s, output c);",
		Ref: `module half_adder(input a, input b, output s, output c);
    assign s = a ^ b;
    assign c = a & b;
endmodule
`,
	},
	{
		ID: "vgen/full_adder", Suite: "VGen", Module: "full_adder",
		Prompt: "Complete the Verilog module below. It is a full adder with inputs a, b, cin and outputs s (sum bit) and cout (carry out).\nmodule full_adder(input a, input b, input cin, output s, output cout);",
		Ref: `module full_adder(input a, input b, input cin, output s, output cout);
    assign s = a ^ b ^ cin;
    assign cout = (a & b) | (a & cin) | (b & cin);
endmodule
`,
	},
	{
		ID: "vgen/mux_1bit", Suite: "VGen", Module: "mux_1bit",
		Prompt: "Complete the Verilog module below. It is a 1-bit 2-to-1 mux: out is b when sel is high, else a.\nmodule mux_1bit(input a, input b, input sel, output out);",
		Ref: `module mux_1bit(input a, input b, input sel, output out);
    assign out = sel ? b : a;
endmodule
`,
	},
	{
		ID: "vgen/d_latch", Suite: "VGen", Module: "d_latch",
		Prompt: "Complete the Verilog module below. It is a level-sensitive D latch: while en is high, q follows d; when en is low, q holds its value.\nmodule d_latch(input d, input en, output reg q);",
		Ref: `module d_latch(input d, input en, output reg q);
    always @(*) begin
        if (en) q = d;
    end
endmodule
`,
	},
	{
		ID: "vgen/dff", Suite: "VGen", Module: "dff",
		Prompt: "Complete the Verilog module below. It is a D flip-flop capturing d into q on the rising edge of clk.\nmodule dff(input clk, input d, output reg q);",
		Ref: `module dff(input clk, input d, output reg q);
    always @(posedge clk) q <= d;
endmodule
`,
	},
	{
		ID: "vgen/dff_rst", Suite: "VGen", Module: "dff_rst",
		Prompt: "Complete the Verilog module below. It is a D flip-flop with synchronous active-high reset: on the rising edge of clk, q clears to 0 when rst is high, otherwise captures d.\nmodule dff_rst(input clk, input rst, input d, output reg q);",
		Ref: `module dff_rst(input clk, input rst, input d, output reg q);
    always @(posedge clk) begin
        if (rst) q <= 1'b0;
        else q <= d;
    end
endmodule
`,
	},
	{
		ID: "vgen/t_ff", Suite: "VGen", Module: "t_ff",
		Prompt: "Complete the Verilog module below. It is a T flip-flop with synchronous reset: on each rising edge of clk, q clears when rst is high, toggles when t is high, and otherwise holds.\nmodule t_ff(input clk, input rst, input t, output reg q);",
		Ref: `module t_ff(input clk, input rst, input t, output reg q);
    always @(posedge clk) begin
        if (rst) q <= 1'b0;
        else if (t) q <= ~q;
    end
endmodule
`,
	},
	{
		ID: "vgen/counter_3bit", Suite: "VGen", Module: "counter_3bit",
		Prompt: "Complete the Verilog module below. It is a 3-bit counter with synchronous reset: q increments on each rising edge of clk and wraps naturally.\nmodule counter_3bit(input clk, input rst, output reg [2:0] q);",
		Ref: `module counter_3bit(input clk, input rst, output reg [2:0] q);
    always @(posedge clk) begin
        if (rst) q <= 3'd0;
        else q <= q + 3'd1;
    end
endmodule
`,
	},
	{
		ID: "vgen/shift_4bit", Suite: "VGen", Module: "shift_4bit",
		Prompt: "Complete the Verilog module below. It is a 4-bit left shift register: on each rising edge of clk the register shifts left and serial input sin enters at bit 0; the state drives q.\nmodule shift_4bit(input clk, input sin, output reg [3:0] q);",
		Ref: `module shift_4bit(input clk, input sin, output reg [3:0] q);
    always @(posedge clk) q <= {q[2:0], sin};
endmodule
`,
	},
	{
		ID: "vgen/mux4_case", Suite: "VGen", Module: "mux4_case",
		Prompt: "Complete the Verilog module below. It is a 1-bit 4-to-1 mux implemented with a case statement over the 2-bit select sel choosing among a, b, c, d.\nmodule mux4_case(input a, input b, input c, input d, input [1:0] sel, output reg out);",
		Ref: `module mux4_case(input a, input b, input c, input d, input [1:0] sel, output reg out);
    always @(*) begin
        case (sel)
            2'b00: out = a;
            2'b01: out = b;
            2'b10: out = c;
            default: out = d;
        endcase
    end
endmodule
`,
	},
	{
		ID: "vgen/fsm_toggle", Suite: "VGen", Module: "fsm_toggle",
		Prompt: "Complete the Verilog module below. It is a two-state FSM with synchronous reset: the single state bit flips on each rising edge of clk when go is high and holds otherwise; output state_out shows the state.\nmodule fsm_toggle(input clk, input rst, input go, output state_out);",
		Ref: `module fsm_toggle(input clk, input rst, input go, output state_out);
    reg state;
    always @(posedge clk) begin
        if (rst) state <= 1'b0;
        else if (go) state <= ~state;
    end
    assign state_out = state;
endmodule
`,
	},
})
