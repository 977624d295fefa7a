package grammar

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog"
)

// TestCheckMatchesCheckPrefix pins the incremental oracle to the
// reference implementation: for cuts of real bench sources and a set
// of probe extensions (viable, doomed, mid-token), State.Check must
// agree with verilog.CheckPrefix over the concatenated text.
func TestCheckMatchesCheckPrefix(t *testing.T) {
	probes := []string{
		"", " ", "\n", ";", ";;", " begin", " end", "\nendmodule",
		" alw", "ays", " @(", "posedge", " 4'b", "1010", " \"str", "\" ,",
		" input x", ")", "(", " assign y = a;", " /* c */", " // c",
	}
	sources := 0
	for _, p := range bench.All() {
		src := p.Ref
		if verilog.Check(src) != nil {
			continue
		}
		sources++
		if sources > 8 {
			break // agreement is text-local; a handful of designs covers the shapes
		}
		for cut := 0; cut <= len(src); cut += 7 {
			s := Begin(src[:cut])
			for _, ext := range probes {
				got := s.Check(ext)
				want := verilog.CheckPrefix(src[:cut] + ext)
				if s.enabled && got != want {
					t.Fatalf("%s cut %d ext %q: Check=%v CheckPrefix=%v\nbase tail: %q",
						p.ID, cut, ext, got, want, tail(src[:cut], 40))
				}
				if !s.enabled && got != verilog.PrefixValid {
					t.Fatalf("%s cut %d: disabled oracle pruned %q", p.ID, cut, ext)
				}
			}
			// The true continuation must never be prunable.
			if rest := src[cut:]; len(rest) > 0 {
				if n := 24; len(rest) > n {
					rest = rest[:n]
				}
				if s.Check(rest) == verilog.PrefixInvalid {
					t.Fatalf("%s cut %d: oracle pruned the source's own continuation %q", p.ID, cut, rest)
				}
			}
		}
	}
	if sources == 0 {
		t.Fatal("no parsable bench sources")
	}
}

// TestPrefixFoldFailureFormatsNothing: a prefix check that fails in a
// fold (a range too wide, a bound that is no parameter) formats no
// message. Each source costs 33 allocations, all of them the lex and
// the parse up to the failing range; formatting the message cost 3
// more.
func TestPrefixFoldFailureFormatsNothing(t *testing.T) {
	for _, src := range []string{
		"module m; wire [3:0] w; wire [70:0] v;",
		"module m; wire [3:0] w; wire [N:0] v;",
	} {
		if st := verilog.CheckPrefix(src); st != verilog.PrefixInvalid {
			t.Fatalf("CheckPrefix(%q) = %v, want invalid", src, st)
		}
		if n := testing.AllocsPerRun(50, func() { verilog.CheckPrefix(src) }); n > 33 {
			t.Errorf("CheckPrefix(%q): %v allocations, want at most 33", src, n)
		}
	}
}

// TestBeginDisables pins the safety valve: an unlexable or doomed base
// disables the oracle, which then passes everything and proposes
// nothing.
func TestBeginDisables(t *testing.T) {
	for _, base := range []string{
		"module m; wire w = 4'q",  // hard lexing error
		"module m;; ",             // doomed token stream
		"wire w; ",                // no module can follow
		"module m; assign = a; x", // interior parse error
	} {
		s := Begin(base)
		if s.enabled {
			t.Errorf("Begin(%q): oracle enabled on a doomed base", base)
		}
		if st := s.Check(" anything"); st != verilog.PrefixValid {
			t.Errorf("Begin(%q): disabled Check = %v, want valid pass-through", base, st)
		}
		if cs := s.Constructs(); cs != nil {
			t.Errorf("Begin(%q): disabled Constructs = %q, want none", base, cs)
		}
	}
	for _, base := range []string{"", "module", "module m; alw", "module m; /* note"} {
		if s := Begin(base); !s.enabled {
			t.Errorf("Begin(%q): oracle disabled on a viable base", base)
		}
	}
}

func TestScanContext(t *testing.T) {
	base := "module counter(input clk, input rst_n, output reg [3:0] q);\n" +
		"    always @(posedge clk) begin\n        if (rst_n) q <= 4'd0;\n"
	s := Begin(base)
	if !s.enabled {
		t.Fatal("oracle disabled on a viable base")
	}
	c := s.ctx
	if c.Clock != "clk" || c.Reset != "rst_n" {
		t.Errorf("clock/reset = %q/%q, want clk/rst_n", c.Clock, c.Reset)
	}
	if want := []string{"clk", "rst_n", "q"}; strings.Join(c.Ports, ",") != strings.Join(want, ",") {
		t.Errorf("ports = %v, want %v", c.Ports, want)
	}
	if len(c.stack) != 2 { // module + begin
		t.Errorf("depth = %d, want 2", len(c.stack))
	}
	if c.InHeader {
		t.Error("InHeader after the header closed")
	}

	h := Begin("module m(input a, ")
	if hc := h.ctx; !hc.InHeader {
		t.Error("InHeader not detected inside the port list")
	}

	// The range expression's identifiers must not be captured as ports.
	if rc := Begin("module m #(parameter WIDTH = 8) (input [WIDTH-1:0] data_in, ").ctx; strings.Join(rc.Ports, ",") != "data_in" {
		t.Errorf("ports = %v, want [data_in]", rc.Ports)
	}
}

// TestConstructs exercises the synthesis rules; every proposal must
// also survive the full reference prefix check over base+construct.
func TestConstructs(t *testing.T) {
	cases := []struct {
		name string
		base string
		want string // substring some construct must contain; "" = none required
	}{
		{"always-clocked", "module m(input clk, output reg q);\n    always", "@(posedge clk) begin"},
		{"always-comb", "module m(input a, output reg y);\n    always", "@(*) begin"},
		{"ctrl-begin", "module m(input a, output reg y);\n    always @(*) begin\n        if (a)", " begin"},
		{"header-comma", "module m(input a,", "input"},
		{"header-close", "module m(input a, output y", ");"},
		{"close-one", "module m(input clk, output reg q);\n    always @(posedge clk) begin\n        q <= 1'b1;", "end"},
		{"close-all", "module m(input clk, output reg q);\n    always @(posedge clk) begin\n        q <= 1'b1;", "endmodule"},
	}
	for _, tc := range cases {
		s := Begin(tc.base)
		if !s.enabled {
			t.Fatalf("%s: oracle disabled", tc.name)
		}
		cs := s.Constructs()
		found := tc.want == ""
		for _, text := range cs {
			if verilog.CheckPrefix(tc.base+text) == verilog.PrefixInvalid {
				t.Errorf("%s: construct %q is a doomed continuation", tc.name, text)
			}
			if strings.Contains(text, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no construct contains %q in %q", tc.name, tc.want, cs)
		}
	}

	// The close-all chain must close every open frame with matched
	// indentation: "\n    end\nendmodule" for the standard corpus style.
	base := "module m(input clk, output reg q);\n    always @(posedge clk) begin\n        q <= 1'b1;"
	var chain string
	for _, text := range Begin(base).Constructs() {
		if strings.Contains(text, "endmodule") {
			chain = text
		}
	}
	if want := "\n    end\nendmodule"; chain != want {
		t.Errorf("close-all chain = %q, want %q", chain, want)
	}
	if verilog.CheckPrefix(base+chain) != verilog.PrefixComplete {
		t.Errorf("close-all chain does not complete the module")
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
