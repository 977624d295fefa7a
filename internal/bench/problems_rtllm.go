package bench

// RTLLM returns the RTLLM-like suite: 29 natural-language design
// problems in the flavour of the RTLLM benchmark (arithmetic blocks,
// counters, FSMs, memories), each with a reference design and a
// testbench generated from it. The suite size matches RTLLM's 29 designs so
// Pass Rate granularity (multiples of 1/29 = 3.45%) is comparable.
func RTLLM() []Problem { return rtllmProblems }

var rtllmProblems = withTestbenches([]Problem{
	{
		ID: "rtllm/adder_8bit", Suite: "RTLLM", Module: "adder_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit adder module named adder_8bit with carry. Inputs: a (8-bit), b (8-bit), cin. Outputs: sum (8-bit), cout. The design computes {cout, sum} = a + b + cin.",
		Ref: `module adder_8bit (
    input [7:0] a,
    input [7:0] b,
    input cin,
    output [7:0] sum,
    output cout
);
    assign {cout, sum} = a + b + cin;
endmodule
`,
	},
	{
		ID: "rtllm/adder_16bit", Suite: "RTLLM", Module: "adder_16bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 16-bit adder module named adder_16bit. Inputs: a (16-bit), b (16-bit). Output: sum (16-bit). The design computes sum = a + b.",
		Ref: `module adder_16bit (
    input [15:0] a,
    input [15:0] b,
    output [15:0] sum
);
    assign sum = a + b;
endmodule
`,
	},
	{
		ID: "rtllm/sub_8bit", Suite: "RTLLM", Module: "sub_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit subtractor module named sub_8bit. Inputs: a (8-bit), b (8-bit). Outputs: diff (8-bit) which equals a - b, and borrow which is high when a is less than b.",
		Ref: `module sub_8bit (
    input [7:0] a,
    input [7:0] b,
    output [7:0] diff,
    output borrow
);
    assign diff = a - b;
    assign borrow = (a < b);
endmodule
`,
	},
	{
		ID: "rtllm/mult_4bit", Suite: "RTLLM", Module: "mult_4bit",
		Prompt: "Please act as a professional Verilog designer. Implement a combinational 4-bit multiplier module named mult_4bit. Inputs: a (4-bit), b (4-bit). Output: p (8-bit) equal to the product a * b.",
		Ref: `module mult_4bit (
    input [3:0] a,
    input [3:0] b,
    output [7:0] p
);
    assign p = a * b;
endmodule
`,
	},
	{
		ID: "rtllm/comparator_8bit", Suite: "RTLLM", Module: "comparator_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit comparator module named comparator_8bit. Inputs: a (8-bit), b (8-bit). Outputs: eq (a equals b), gt (a greater than b), lt (a less than b).",
		Ref: `module comparator_8bit (
    input [7:0] a,
    input [7:0] b,
    output eq,
    output gt,
    output lt
);
    assign eq = (a == b);
    assign gt = (a > b);
    assign lt = (a < b);
endmodule
`,
	},
	{
		ID: "rtllm/alu_8bit", Suite: "RTLLM", Module: "alu_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit ALU module named alu_8bit. Inputs: op (2-bit), a (8-bit), b (8-bit). Output: y (8-bit, registered combinationally). Operation: op 00 adds, 01 subtracts, 10 bitwise ands, 11 bitwise ors a and b.",
		Ref: `module alu_8bit (
    input [1:0] op,
    input [7:0] a,
    input [7:0] b,
    output reg [7:0] y
);
    always @(*) begin
        case (op)
            2'b00: y = a + b;
            2'b01: y = a - b;
            2'b10: y = a & b;
            default: y = a | b;
        endcase
    end
endmodule
`,
	},
	{
		ID: "rtllm/mux2to1_8bit", Suite: "RTLLM", Module: "mux2to1_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit 2-to-1 multiplexer module named mux2to1_8bit. Inputs: a (8-bit), b (8-bit), sel. Output: y (8-bit). When sel is high y equals b, otherwise a.",
		Ref: `module mux2to1_8bit (
    input [7:0] a,
    input [7:0] b,
    input sel,
    output [7:0] y
);
    assign y = sel ? b : a;
endmodule
`,
	},
	{
		ID: "rtllm/mux4to1_8bit", Suite: "RTLLM", Module: "mux4to1_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit 4-to-1 multiplexer module named mux4to1_8bit. Inputs: d0, d1, d2, d3 (all 8-bit), sel (2-bit). Output: y (8-bit) selecting d0..d3 by sel.",
		Ref: `module mux4to1_8bit (
    input [7:0] d0,
    input [7:0] d1,
    input [7:0] d2,
    input [7:0] d3,
    input [1:0] sel,
    output reg [7:0] y
);
    always @(*) begin
        case (sel)
            2'b00: y = d0;
            2'b01: y = d1;
            2'b10: y = d2;
            default: y = d3;
        endcase
    end
endmodule
`,
	},
	{
		ID: "rtllm/decoder_3to8", Suite: "RTLLM", Module: "decoder_3to8",
		Prompt: "Please act as a professional Verilog designer. Implement a 3-to-8 one-hot decoder module named decoder_3to8. Inputs: sel (3-bit), en. Output: y (8-bit). When en is high, output bit sel of y is 1 and all others 0; when en is low y is all zeros.",
		Ref: `module decoder_3to8 (
    input [2:0] sel,
    input en,
    output reg [7:0] y
);
    always @(*) begin
        if (!en) y = 8'd0;
        else y = 8'd1 << sel;
    end
endmodule
`,
	},
	{
		ID: "rtllm/priority_encoder_4bit", Suite: "RTLLM", Module: "priority_encoder_4bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 4-bit priority encoder module named priority_encoder_4bit. Input: req (4-bit). Outputs: grant (2-bit) encoding the highest set request bit, and valid indicating that any request bit is set.",
		Ref: `module priority_encoder_4bit (
    input [3:0] req,
    output reg [1:0] grant,
    output reg valid
);
    always @(*) begin
        valid = 1'b1;
        casez (req)
            4'b1zzz: grant = 2'd3;
            4'b01zz: grant = 2'd2;
            4'b001z: grant = 2'd1;
            4'b0001: grant = 2'd0;
            default: begin grant = 2'd0; valid = 1'b0; end
        endcase
    end
endmodule
`,
	},
	{
		ID: "rtllm/parity_8bit", Suite: "RTLLM", Module: "parity_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit even parity generator module named parity_8bit. Input: data (8-bit). Output: parity equal to the xor-reduction of data.",
		Ref: `module parity_8bit (
    input [7:0] data,
    output parity
);
    assign parity = ^data;
endmodule
`,
	},
	{
		ID: "rtllm/bin2gray_8bit", Suite: "RTLLM", Module: "bin2gray_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit binary to Gray code converter module named bin2gray_8bit. Input: bin (8-bit). Output: gray (8-bit) equal to bin xor (bin shifted right by one).",
		Ref: `module bin2gray_8bit (
    input [7:0] bin,
    output [7:0] gray
);
    assign gray = bin ^ (bin >> 1);
endmodule
`,
	},
	{
		ID: "rtllm/counter_8bit", Suite: "RTLLM", Module: "counter_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit up-counter module named counter_8bit. Inputs: clk, rst. Output: q (8-bit register). On each rising edge of clk, q resets to 0 when rst is high, otherwise increments by one.",
		Ref: `module counter_8bit (
    input clk,
    input rst,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + 8'd1;
    end
endmodule
`,
	},
	{
		ID: "rtllm/updown_counter_4bit", Suite: "RTLLM", Module: "updown_counter_4bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 4-bit up/down counter module named updown_counter_4bit. Inputs: clk, rst, up. Output: q (4-bit register). On each rising clock edge q resets to 0 when rst is high, increments when up is high, otherwise decrements.",
		Ref: `module updown_counter_4bit (
    input clk,
    input rst,
    input up,
    output reg [3:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else if (up) q <= q + 4'd1;
        else q <= q - 4'd1;
    end
endmodule
`,
	},
	{
		ID: "rtllm/ring_counter_4bit", Suite: "RTLLM", Module: "ring_counter_4bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 4-bit ring counter module named ring_counter_4bit. Inputs: clk, rst. Output: q (4-bit register). On reset q becomes 4'b0001; afterwards the single hot bit rotates left each rising clock edge, wrapping from bit 3 back to bit 0.",
		Ref: `module ring_counter_4bit (
    input clk,
    input rst,
    output reg [3:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 4'b0001;
        else q <= {q[2:0], q[3]};
    end
endmodule
`,
	},
	{
		ID: "rtllm/counter_mod10", Suite: "RTLLM", Module: "counter_mod10",
		Prompt: "Please act as a professional Verilog designer. Implement a BCD (modulo-10) counter module named counter_mod10. Inputs: clk, rst. Output: q (4-bit register). The counter resets to 0, increments each rising clock edge and wraps from 9 back to 0.",
		Ref: `module counter_mod10 (
    input clk,
    input rst,
    output reg [3:0] q
);
    always @(posedge clk) begin
        if (rst) q <= 4'd0;
        else if (q == 4'd9) q <= 4'd0;
        else q <= q + 4'd1;
    end
endmodule
`,
	},
	{
		ID: "rtllm/shift_reg_8bit", Suite: "RTLLM", Module: "shift_reg_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit left-shifting serial shift register module named shift_reg_8bit. Inputs: clk, din. Output: q (8-bit register). On each rising clock edge the register shifts left by one and din enters at bit 0.",
		Ref: `module shift_reg_8bit (
    input clk,
    input din,
    output reg [7:0] q
);
    always @(posedge clk) q <= {q[6:0], din};
endmodule
`,
	},
	{
		ID: "rtllm/barrel_shifter_8bit", Suite: "RTLLM", Module: "barrel_shifter_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit right barrel shifter module named barrel_shifter_8bit. Inputs: data (8-bit), amount (3-bit). Output: result (8-bit) equal to data logically shifted right by amount.",
		Ref: `module barrel_shifter_8bit (
    input [7:0] data,
    input [2:0] amount,
    output [7:0] result
);
    assign result = data >> amount;
endmodule
`,
	},
	{
		ID: "rtllm/edge_detector", Suite: "RTLLM", Module: "edge_detector",
		Prompt: "Please act as a professional Verilog designer. Implement a rising-edge detector module named edge_detector. Inputs: clk, sig. Output: pulse, high for exactly one clock cycle whenever sig transitions from 0 to 1. Use a single flip-flop holding the previous value of sig.",
		Ref: `module edge_detector (
    input clk,
    input sig,
    output pulse
);
    reg sig_d;
    always @(posedge clk) sig_d <= sig;
    assign pulse = sig & ~sig_d;
endmodule
`,
	},
	{
		ID: "rtllm/clk_div4", Suite: "RTLLM", Module: "clk_div4",
		Prompt: "Please act as a professional Verilog designer. Implement a divide-by-4 clock divider module named clk_div4. Inputs: clk, rst. Output: clk_out. Use a 2-bit counter with synchronous reset; clk_out is the counter's most significant bit, giving a quarter-rate square wave.",
		Ref: `module clk_div4 (
    input clk,
    input rst,
    output clk_out
);
    reg [1:0] cnt;
    always @(posedge clk) begin
        if (rst) cnt <= 2'd0;
        else cnt <= cnt + 2'd1;
    end
    assign clk_out = cnt[1];
endmodule
`,
	},
	{
		ID: "rtllm/pwm_8bit", Suite: "RTLLM", Module: "pwm_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit PWM generator module named pwm_8bit. Inputs: clk, rst, duty (8-bit). Output: pwm_out. A free-running 8-bit counter increments each clock (reset by rst); pwm_out is high while the counter is less than duty.",
		Ref: `module pwm_8bit (
    input clk,
    input rst,
    input [7:0] duty,
    output pwm_out
);
    reg [7:0] cnt;
    always @(posedge clk) begin
        if (rst) cnt <= 8'd0;
        else cnt <= cnt + 8'd1;
    end
    assign pwm_out = (cnt < duty);
endmodule
`,
	},
	{
		ID: "rtllm/seq_det_101", Suite: "RTLLM", Module: "seq_det_101",
		Prompt: "Please act as a professional Verilog designer. Implement a Moore sequence detector module named seq_det_101 that detects the overlapping bit pattern 101. Inputs: clk, rst, din. Output: seen, high for one cycle after the pattern 101 has been observed on din. Use a state register with synchronous reset rst.",
		Ref: `module seq_det_101 (
    input clk,
    input rst,
    input din,
    output seen
);
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
`,
	},
	{
		ID: "rtllm/register_8bit_en", Suite: "RTLLM", Module: "register_8bit_en",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit register with enable named register_8bit_en. Inputs: clk, en, d (8-bit). Output: q (8-bit register). On each rising clock edge, q captures d only when en is high; otherwise it holds its value.",
		Ref: `module register_8bit_en (
    input clk,
    input en,
    input [7:0] d,
    output reg [7:0] q
);
    always @(posedge clk) begin
        if (en) q <= d;
    end
endmodule
`,
	},
	{
		ID: "rtllm/accumulator_16bit", Suite: "RTLLM", Module: "accumulator_16bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 16-bit accumulator module named accumulator_16bit. Inputs: clk, rst, en, din (16-bit). Output: acc (16-bit register). On each rising clock edge: reset clears acc to 0; otherwise when en is high, acc adds din.",
		Ref: `module accumulator_16bit (
    input clk,
    input rst,
    input en,
    input [15:0] din,
    output reg [15:0] acc
);
    always @(posedge clk) begin
        if (rst) acc <= 16'd0;
        else if (en) acc <= acc + din;
    end
endmodule
`,
	},
	{
		ID: "rtllm/regfile_16x8", Suite: "RTLLM", Module: "regfile_16x8",
		Prompt: "Please act as a professional Verilog designer. Implement a 16-entry by 8-bit register file module named regfile_16x8. Inputs: clk, we, waddr (4-bit), raddr (4-bit), wdata (8-bit). Output: rdata (8-bit). Writes are clocked (on the rising edge when we is high); the read port is combinational: rdata always shows the word at raddr.",
		Ref: `module regfile_16x8 (
    input clk,
    input we,
    input [3:0] waddr,
    input [3:0] raddr,
    input [7:0] wdata,
    output [7:0] rdata
);
    reg [7:0] mem [0:15];
    always @(posedge clk) begin
        if (we) mem[waddr] <= wdata;
    end
    assign rdata = mem[raddr];
endmodule
`,
	},
	{
		ID: "rtllm/fifo_8x8", Suite: "RTLLM", Module: "fifo_8x8",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-deep, 8-bit synchronous FIFO module named fifo_8x8. Inputs: clk, rst, push, pop, din (8-bit). Outputs: dout (8-bit, the word at the read pointer), empty, full. Use an internal memory with read and write pointers and an element counter; pushes are ignored when full, pops when empty.",
		Ref: `module fifo_8x8 (
    input clk,
    input rst,
    input push,
    input pop,
    input [7:0] din,
    output [7:0] dout,
    output empty,
    output full
);
    reg [7:0] mem [0:7];
    reg [3:0] count;
    reg [2:0] rptr, wptr;
    always @(posedge clk) begin
        if (rst) begin
            count <= 4'd0;
            rptr <= 3'd0;
            wptr <= 3'd0;
        end else begin
            if (push && !full) begin
                mem[wptr] <= din;
                wptr <= wptr + 3'd1;
                if (!(pop && !empty)) count <= count + 4'd1;
            end
            if (pop && !empty) begin
                rptr <= rptr + 3'd1;
                if (!(push && !full)) count <= count - 4'd1;
            end
        end
    end
    assign dout = mem[rptr];
    assign empty = (count == 4'd0);
    assign full = (count == 4'd8);
endmodule
`,
	},
	{
		ID: "rtllm/sat_counter_3bit", Suite: "RTLLM", Module: "sat_counter_3bit",
		Prompt: "Please act as a professional Verilog designer. Implement a 3-bit saturating up/down counter module named sat_counter_3bit. Inputs: clk, rst, inc, dec. Output: cnt (3-bit register). inc increments up to 7 and saturates; dec decrements down to 0 and saturates; simultaneous inc and dec hold the value; rst clears synchronously.",
		Ref: `module sat_counter_3bit (
    input clk,
    input rst,
    input inc,
    input dec,
    output reg [2:0] cnt
);
    always @(posedge clk) begin
        if (rst) cnt <= 3'd0;
        else if (inc && !dec && cnt != 3'd7) cnt <= cnt + 3'd1;
        else if (dec && !inc && cnt != 3'd0) cnt <= cnt - 3'd1;
    end
endmodule
`,
	},
	{
		ID: "rtllm/abs_8bit", Suite: "RTLLM", Module: "abs_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an absolute-value module named abs_8bit for signed numbers. Input: x (signed 8-bit). Output: y (8-bit) equal to the magnitude of x (negative inputs are negated).",
		Ref: `module abs_8bit (
    input signed [7:0] x,
    output [7:0] y
);
    assign y = (x < 0) ? -x : x;
endmodule
`,
	},
	{
		ID: "rtllm/minmax_8bit", Suite: "RTLLM", Module: "minmax_8bit",
		Prompt: "Please act as a professional Verilog designer. Implement an 8-bit min/max module named minmax_8bit. Inputs: a (8-bit), b (8-bit). Outputs: min_o (8-bit, the smaller of a and b) and max_o (8-bit, the larger).",
		Ref: `module minmax_8bit (
    input [7:0] a,
    input [7:0] b,
    output [7:0] min_o,
    output [7:0] max_o
);
    assign min_o = (a < b) ? a : b;
    assign max_o = (a > b) ? a : b;
endmodule
`,
	},
})
