package verilog

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

const dataRegisterSrc = `
// 4-bit data register from the paper's running example (Fig. 3/5).
module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("module m; assign x = 4'b10x0 + y; endmodule")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"module", "m", ";", "assign", "x", "=", "4'b10x0", "+", "y", ";", "endmodule"}
	if len(texts) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(texts), len(want), texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[6] != TokNumber {
		t.Errorf("unexpected kinds: %v", kinds)
	}
}

// TestLexEscapedIdentifiers: an escaped identifier lexes as TokIdent
// with the backslash dropped and Escaped set, even when it spells a
// keyword (Verilog allows `\module` as a name); only the escape sets
// Escaped.
func TestLexEscapedIdentifiers(t *testing.T) {
	for _, c := range []struct {
		src     string
		kind    TokenKind
		text    string
		escaped bool
	}{
		{`\module`, TokIdent, "module", true},
		{`\bus[3]`, TokIdent, "bus[3]", true},
		{`\escaped$id`, TokIdent, "escaped$id", true},
		{"module", TokKeyword, "module", false},
		{"mod", TokIdent, "mod", false},
	} {
		toks, err := Lex(c.src)
		if err != nil || len(toks) != 1 {
			t.Fatalf("Lex(%q) = %v, %v; want one token", c.src, toks, err)
		}
		if tk := toks[0]; tk.Kind != c.kind || tk.Text != c.text || tk.Escaped != c.escaped {
			t.Errorf("Lex(%q) = %v escaped=%v, want %v %q escaped=%v", c.src, tk, tk.Escaped, c.kind, c.text, c.escaped)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
module /* block
   comment */ m;
endmodule`
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if len(toks) != 4 {
		t.Fatalf("got %d tokens, want 4: %v", len(toks), toks)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := Lex("module m; /* oops"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := Lex("$display(\"no end"); err == nil {
		t.Fatal("expected error for unterminated string")
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("<<< >>> === !== << >> <= >= == != && || ~& ~| ~^ ^~ ** + - * / % < > ! ~ & | ^ =")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := strings.Fields("<<< >>> === !== << >> <= >= == != && || ~& ~| ~^ ^~ ** + - * / % < > ! ~ & | ^ =")
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Text != w || toks[i].Kind != TokOp {
			t.Errorf("token %d = %v, want op %q", i, toks[i], w)
		}
	}
}

func TestLexDirective(t *testing.T) {
	toks, err := Lex("`timescale 1ns/1ps\nmodule m; endmodule")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Kind != TokDirective || !strings.HasPrefix(toks[0].Text, "`timescale") {
		t.Fatalf("directive not lexed: %v", toks[0])
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		text  string
		width int
		a, b  uint64
	}{
		{"42", 32, 42, 0},
		{"4'b1010", 4, 0b1010, 0},
		{"4'b10x0", 4, 0b1010, 0b0010},
		{"4'bz", 4, 0, 0b1111},
		{"8'hFF", 8, 0xFF, 0},
		{"8'hzz", 8, 0, 0xFF},
		{"6'o17", 6, 0o17, 0},
		{"16'd1000", 16, 1000, 0},
		{"3'd7", 3, 7, 0},
		{"1'b1", 1, 1, 0},
		{"32'hDEAD_BEEF", 32, 0xDEADBEEF, 0},
		{"4'b?", 4, 0, 0b1111},
	}
	for _, c := range cases {
		n, err := ParseNumberLiteral(c.text, 1)
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
			continue
		}
		if n.Width != c.width || n.A != c.a || n.B != c.b {
			t.Errorf("%s: got width=%d a=%b b=%b, want width=%d a=%b b=%b",
				c.text, n.Width, n.A, n.B, c.width, c.a, c.b)
		}
	}
}

func TestNumberLiteralErrors(t *testing.T) {
	for _, text := range []string{"4'", "4'q1010", "'b", "4'b2", "200'b1", "4'dxz"} {
		if _, err := ParseNumberLiteral(text, 1); err == nil {
			t.Errorf("%s: expected error", text)
		}
	}
}

func TestParseDataRegister(t *testing.T) {
	f, err := Parse(dataRegisterSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Modules) != 1 {
		t.Fatalf("got %d modules, want 1", len(f.Modules))
	}
	m := f.Modules[0]
	if m.Name != "data_register" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.Ports) != 3 {
		t.Fatalf("got %d ports, want 3", len(m.Ports))
	}
	if m.Ports[0].Name != "clk" || m.Ports[0].Dir != PortInput {
		t.Errorf("port 0 = %+v", m.Ports[0])
	}
	dout := m.PortByName("data_out")
	if dout == nil || dout.Dir != PortOutput || dout.Kind != NetReg || !dout.HasRng || dout.Rng.Width() != 4 {
		t.Errorf("data_out = %+v", dout)
	}
	if len(m.Items) != 1 {
		t.Fatalf("got %d items, want 1 always block", len(m.Items))
	}
	alw, ok := m.Items[0].(*AlwaysBlock)
	if !ok {
		t.Fatalf("item 0 is %T, want *AlwaysBlock", m.Items[0])
	}
	ec, ok := alw.Body.(*EventCtrlStmt)
	if !ok {
		t.Fatalf("always body is %T, want *EventCtrlStmt", alw.Body)
	}
	if len(ec.Items) != 1 || ec.Items[0].Edge != EdgePos {
		t.Errorf("sensitivity = %+v", ec.Items)
	}
	blk, ok := ec.Body.(*Block)
	if !ok || len(blk.Stmts) != 1 {
		t.Fatalf("block = %+v", ec.Body)
	}
	asg, ok := blk.Stmts[0].(*Assign)
	if !ok || !asg.NonBlocking {
		t.Fatalf("stmt = %+v", blk.Stmts[0])
	}
}

func TestParseNonANSIPorts(t *testing.T) {
	src := `
module counter(clk, rst, q);
  input clk, rst;
  output [7:0] q;
  reg [7:0] q;
  always @(posedge clk or posedge rst)
    if (rst) q <= 8'd0; else q <= q + 1;
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := f.Modules[0]
	q := m.PortByName("q")
	if q == nil || q.Dir != PortOutput || !q.HasRng || q.Rng.Width() != 8 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseParameters(t *testing.T) {
	src := `
module p #(parameter WIDTH = 8, DEPTH = 4) (
  input [WIDTH-1:0] d,
  output [WIDTH-1:0] q
);
  localparam HALF = WIDTH / 2;
  wire [HALF-1:0] lo;
  assign lo = d[HALF-1:0];
  assign q = {d[WIDTH-1:HALF], lo};
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := f.Modules[0]
	d := m.PortByName("d")
	if d == nil || d.Rng.Width() != 8 {
		t.Fatalf("d = %+v", d)
	}
}

func TestParseCaseAndFor(t *testing.T) {
	src := `
module alu(input [1:0] op, input [3:0] a, b, output reg [3:0] y);
  integer i;
  always @(*) begin
    case (op)
      2'b00: y = a + b;
      2'b01: y = a - b;
      2'b10, 2'b11: y = a & b;
      default: y = 4'b0;
    endcase
    for (i = 0; i < 4; i = i + 1) begin
      y = y ^ (a >> i);
    end
  end
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := f.Modules[0]
	// 'a, b' in one decl: both ports carried.
	if m.PortByName("b") == nil {
		t.Fatal("port b missing")
	}
	var foundCase, foundFor bool
	alw := m.Items[1].(*AlwaysBlock)
	ec := alw.Body.(*EventCtrlStmt)
	if !ec.Star {
		t.Error("expected @(*) star sensitivity")
	}
	blk := ec.Body.(*Block)
	for _, s := range blk.Stmts {
		switch s.(type) {
		case *Case:
			foundCase = true
		case *For:
			foundFor = true
		}
	}
	if !foundCase || !foundFor {
		t.Errorf("case=%v for=%v", foundCase, foundFor)
	}
}

func TestParseInstanceNamedAndPositional(t *testing.T) {
	src := `
module top(input a, b, output y1, y2);
  and2 u1 (.x(a), .y(b), .z(y1));
  and2 u2 (a, b, y2);
endmodule
module and2(input x, y, output z);
  assign z = x & y;
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	top := f.Modules[0]
	u1 := top.Items[0].(*Instance)
	if !u1.ByName || len(u1.Conns) != 3 || u1.Conns[0].Port != "x" {
		t.Errorf("u1 = %+v", u1)
	}
	u2 := top.Items[1].(*Instance)
	if u2.ByName || len(u2.Conns) != 3 {
		t.Errorf("u2 = %+v", u2)
	}
}

func TestParseTestbenchConstructs(t *testing.T) {
	src := `
module tb;
  reg clk, rst;
  reg [7:0] want;
  wire [7:0] q;
  integer errors;
  counter dut(.clk(clk), .rst(rst), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; errors = 0;
    #12 rst = 0;
    repeat (10) begin
      @(posedge clk);
      #1;
      if (q !== want) begin
        errors = errors + 1;
        $display("mismatch at %0t: q=%d want=%d", $time, q, want);
      end
    end
    if (errors == 0) $display("TEST PASSED");
    else $display("TEST FAILED");
    $finish;
  end
endmodule
module counter(input clk, rst, output reg [7:0] q);
  always @(posedge clk) if (rst) q <= 0; else q <= q + 1;
endmodule`
	if err := Check(src); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestParseConcatRepl(t *testing.T) {
	src := `
module c(input [3:0] a, output [15:0] y, output [7:0] z);
  assign y = {4{a}};
  assign z = {a, a[3:2], a[1], 1'b0};
endmodule`
	if err := Check(src); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                  // no module
		"module",                            // truncated
		"module m; wire w",                  // missing semicolon/endmodule
		"module m; assign = 1; endmodule",   // missing lhs
		"module m(input [7:0 a); endmodule", // malformed range
		"module m; always begin end",        // missing endmodule
		"module m; case endcase endmodule",
		"wire w;", // top-level decl
	}
	for _, src := range cases {
		if err := Check(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseTernaryPrecedence(t *testing.T) {
	src := `
module t(input s, input [3:0] a, b, output [3:0] y);
  assign y = s ? a + 1 : b - 1;
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ca := f.Modules[0].Items[0].(*ContAssign)
	if _, ok := ca.RHS.(*Ternary); !ok {
		t.Fatalf("RHS is %T, want ternary", ca.RHS)
	}
}

func TestParseSignedDecl(t *testing.T) {
	src := `
module s(input signed [7:0] a, output signed [7:0] y);
  wire signed [7:0] t;
  assign t = -a;
  assign y = t >>> 1;
endmodule`
	if err := Check(src); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestParseMemoryDecl(t *testing.T) {
	src := `
module ram(input clk, we, input [3:0] addr, input [7:0] din, output reg [7:0] dout);
  reg [7:0] mem [0:15];
  always @(posedge clk) begin
    if (we) mem[addr] <= din;
    dout <= mem[addr];
  end
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	d := f.Modules[0].Items[0].(*NetDecl)
	if !d.Names[0].IsArray || d.Names[0].ARng.Width() != 16 {
		t.Fatalf("mem decl = %+v", d.Names[0])
	}
}

// TestFoldPowBySquaring: the folder evaluates ** by squaring, so a
// 19-digit exponent folds at once (a multiplication per unit of the
// exponent would take centuries), and every small case folds to what
// that multiplication loop gives, a negative exponent's 1 included.
func TestFoldPowBySquaring(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		f, err := Parse("module m; parameter W = 1**4611686018427387904; endmodule")
		if err == nil {
			if got := firstParam(t, f); got != 1 {
				err = fmt.Errorf("folded %d, want 1", got)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("1**4611686018427387904 did not fold within 1 s")
	}

	for x := int64(-5); x <= 5; x++ {
		for y := int64(-3); y <= 70; y++ {
			want := int64(1)
			for i := int64(0); i < y; i++ {
				want *= x
			}
			src := fmt.Sprintf("module m; parameter P = (%d)**(%d); endmodule", x, y)
			f, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if got := firstParam(t, f); got != want {
				t.Errorf("(%d)**(%d) folded to %d, want %d", x, y, got, want)
			}
		}
	}
}

// firstParam folds the value of f's first parameter, which names no
// other parameter.
func firstParam(t *testing.T, f *SourceFile) int64 {
	t.Helper()
	v, err := Fold(f.Modules[0].Items[0].(*ParamDecl).Values[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestParseInstanceParamOverrides: an instance keeps its #( ... )
// overrides, named or ordered, each value as written and foldable in
// the instantiating module's parameters.
func TestParseInstanceParamOverrides(t *testing.T) {
	f, err := Parse("module m; parameter N = 3; sub #(.W(N+1), .D(2)) u(); sub #(N**2, 5) v(); sub w(); endmodule")
	if err != nil {
		t.Fatal(err)
	}
	type override struct {
		name string
		v    int64
	}
	want := [][]override{
		{{"W", 4}, {"D", 2}},
		{{"", 9}, {"", 5}},
		nil,
	}
	for i, it := range f.Modules[0].Items[1:] {
		inst := it.(*Instance)
		if len(inst.Params) != len(want[i]) {
			t.Fatalf("%s: %d overrides, want %d", inst.InstName, len(inst.Params), len(want[i]))
		}
		for j, o := range inst.Params {
			v, err := Fold(o.Value, map[string]int64{"N": 3})
			if o.Name != want[i][j].name || err != nil || v != want[i][j].v {
				t.Errorf("%s override %d = {%q %d %v}, want {%q %d}", inst.InstName, j, o.Name, v, err, want[i][j].name, want[i][j].v)
			}
		}
	}
	for _, bad := range []string{
		"module m; sub #(.W(x)) u(); endmodule", // not a constant
		"module m; sub #(.W(1), 2) u(); endmodule",
		"module m; sub #() u(); endmodule",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

// TestRangeSpanChecks: a vector range spans at most MaxWidth bits and a
// memory at most MaxWords words, checked without overflow whatever the
// bounds; a memory deeper than 64 words is no vector.
func TestRangeSpanChecks(t *testing.T) {
	for src, ok := range map[string]bool{
		"module m; wire [63:0] w; endmodule":                                          true,
		"module m; wire [0:63] w; endmodule":                                          true,
		"module m; wire [64:0] w; endmodule":                                          false,
		"module m; wire [-1:63] w; endmodule":                                         false,
		"module m; wire [4611686018427387904:-4611686018427387904] w; endmodule":      false,
		"module m; wire [9223372036854775807:-9223372036854775807-1] w; endmodule":    false,
		"module m(input [0:64] a); endmodule":                                         false,
		"module m; parameter [64:0] P = 1; endmodule":                                 false,
		"module m; reg [7:0] m [0:255]; endmodule":                                    true,
		"module m; reg [7:0] m [1048575:0]; endmodule":                                true,
		"module m; reg [7:0] m [0:1048576]; endmodule":                                false,
		"module m; reg [7:0] m [-4611686018427387904:4611686018427387904]; endmodule": false,
		"module m; parameter D = 1 << 62; reg [7:0] m [-D:D]; endmodule":              false,
		"module m; reg [64:0] m [0:1]; endmodule":                                     false,
	} {
		_, err := Parse(src)
		if _, syntax := err.(*SyntaxError); ok != (err == nil) || err != nil && !syntax {
			t.Errorf("%s: error %v, want ok %v", src, err, ok)
		}
	}
}
