package grammar

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog"
)

// stateProbes are the extensions every FuzzGrammarState step asks
// about, beside the text's own continuation and the step's constructs:
// viable and doomed ones, ones that grow the seam token, an else that
// may extend an if, a parameter that changes a module's map.
var stateProbes = []string{
	"", " ", ";", " end", "\nendmodule", "alw", "ays @(", " 4'b", "\"", " else q <= 0;",
	" localparam W = 2;", " wire [W-1:0] w;", " /* c", ") begin", "\n  end", " endcase", " 2'b10: q <= 1;",
}

// parserCorpus is FuzzParser's committed corpus: the sources it keeps
// for the parser's prefix-soundness contract, which the state inherits.
func parserCorpus(f *testing.F) []string {
	dir := filepath.Join("..", "..", "..", "verilog", "testdata", "fuzz", "FuzzParser")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				out = append(out, src)
			}
		}
	}
	if len(out) == 0 {
		f.Fatalf("no corpus in %s", dir)
	}
	return out
}

// FuzzGrammarState drives one State through appends, rewinds and
// splices of a text and, after every step, holds it to a fresh State
// over the same text and to verilog.CheckPrefix: every probe classifies
// alike, and so do the context and constructs. script is read in pairs
// (op, n): op%3 == 0 appends the next n bytes of src, 1 cuts n bytes
// off the text, 2 cuts n bytes and splices in a probe in their place.
// What is left of src is then appended a byte at a time, so an empty
// script walks src cut at every byte. The seeds are FuzzParser's corpus
// and the bench references.
func FuzzGrammarState(f *testing.F) {
	for _, src := range parserCorpus(f) {
		f.Add(src, []byte{0, 12, 1, 5, 0, 9, 2, 3, 0, 40})
	}
	// An if the next item may still extend with else, and a parameter
	// that is cut again after the checkpoints before it were taken.
	f.Add("module m(input clk, input a, output reg q);\n  always @(posedge clk) if (a) q <= 1;\n  else q <= 0;\nendmodule\n", []byte(nil))
	f.Add("module m; wire a; localparam W = 2; wire [W-1:0] c; endmodule\n", []byte{0, 40, 1, 30, 0, 0})
	for _, p := range bench.All() {
		if verilog.Check(p.Ref) == nil {
			f.Add(p.Ref, []byte(nil))
		}
	}
	f.Fuzz(func(t *testing.T, src string, script []byte) {
		if len(src) > 4096 {
			return
		}
		var s State
		text, next := "", 0 // next: the first byte of src not yet appended
		step := func() {
			var cont []string // src's own continuation
			for n := 1; n <= 8 && next+n <= len(src); n *= 2 {
				cont = append(cont, src[next:next+n])
			}
			matchScratch(t, &s, text, cont...)
		}
		for i := 0; i+1 < len(script); i += 2 {
			n := int(script[i+1])
			switch script[i] % 3 {
			case 0:
				n = min(n, len(src)-next)
				text += src[next : next+n]
				next += n
			case 1:
				text = text[:len(text)-min(n, len(text))]
			case 2:
				text = text[:len(text)-min(n, len(text))] + stateProbes[n%len(stateProbes)]
			}
			step()
		}
		for ; next < len(src); next++ {
			text += src[next : next+1]
			step()
		}
	})
}

// matchScratch opens s over text and holds it to a fresh State over
// the same text and to verilog.CheckPrefix: on the context, the
// constructs, and every one of stateProbes, the constructs and extra.
func matchScratch(t *testing.T, s *State, text string, extra ...string) {
	t.Helper()
	got, fresh := s.Begin(text), Begin(text)
	if got.enabled != fresh.enabled || !sameContext(got.ctx, fresh.ctx) {
		t.Fatalf("text %q: carried enabled=%v ctx %+v, fresh enabled=%v ctx %+v", text, got.enabled, got.ctx, fresh.enabled, fresh.ctx)
	}
	cons := got.Constructs()
	if want := fresh.Constructs(); !slices.Equal(cons, want) {
		t.Fatalf("text %q: carried constructs %q, fresh %q", text, cons, want)
	}
	for _, ext := range slices.Concat(stateProbes, cons, extra) {
		st := got.Check(ext)
		if want := fresh.Check(ext); st != want {
			t.Fatalf("text %q ext %q: carried %v, fresh %v", text, ext, st, want)
		}
		if want := verilog.CheckPrefix(text + ext); fresh.enabled && st != want {
			t.Fatalf("text %q ext %q: Check %v, CheckPrefix %v", text, ext, st, want)
		}
	}
}

// TestStateRules walks one State through the cases its exactness rests
// on, each step held to a fresh State and to CheckPrefix.
func TestStateRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		texts []string
	}{
		// The item before token P ends only on seeing it: after the
		// frozen ';' an else may still extend the if.
		{"if-else", []string{
			"module m(input clk, input a, output reg q);\n  always @(posedge clk) if (a) q <= 1;",
			"module m(input clk, input a, output reg q);\n  always @(posedge clk) if (a) q <= 1; ",
			"module m(input clk, input a, output reg q);\n  always @(posedge clk) if (a) q <= 1; else",
		}},
		// A parameter declared after a checkpoint must not reach it:
		// once the declaration is cut, W is unknown again.
		{"param-map", []string{
			"module m; wire a; wire b;",
			"module m; wire a; wire b; localparam W = 2; wire c;",
			"module m; wire a; wire b;",
		}},
		// Statements nested in an always item: blocks, a then whose else
		// may follow, case items.
		{"statements", []string{
			"module m(input clk, input a, input [1:0] s, output reg q);\n  always @(posedge clk) begin\n    if (a) begin\n      q <= 1;\n    end",
			"module m(input clk, input a, input [1:0] s, output reg q);\n  always @(posedge clk) begin\n    if (a) begin\n      q <= 1;\n    end else begin\n      case (s)\n        2'b00: q <= 0;\n        2'b01: begin q <= 1; end",
			"module m(input clk, input a, input [1:0] s, output reg q);\n  always @(posedge clk) begin\n    if (a) begin\n      q <= 1;\n    end else begin\n      case (s)\n        2'b00: q <= 0;\n        2'b01: begin q <= 1; end\n        default: if (a) q <= 0;",
			"module m(input clk, input a, input [1:0] s, output reg q);\n  always @(posedge clk) begin\n    if (a) begin\n      q <= 1;\n    end else begin\n      case (s)\n        2'b00: q <= 0;\n        2'b01: begin q <= 1; end\n        default: if (a) q <= 0;\n      endcase\n    end\n  end",
		}},
		// A text that does not extend the last one: a changed byte
		// mid-token, a shorter text, then unrelated text.
		{"rewind", []string{
			"module counter(input clk, output reg [3:0] q);\n  always @(posedge clk) q <= q + 1;\n",
			"module counter(input clk, output reg [3:0] r);\n  always @(posedge clk) r <= r + 1;\n",
			"module counter(input clk",
			"module other; endmodule\n",
			"",
		}},
		// The final token may still grow: the scan over frozen tokens
		// leaves it out, the constructs condition on it.
		{"seam", []string{
			"module m(input clk, input rst, output reg q);\n  alw",
			"module m(input clk, input rst, output reg q);\n  always",
			"module m(input clk, input rst, output reg q);\n  always @(posedge clk) begin\n    q <= 1;",
		}},
		// Unlexable and doomed texts disable the step, and a rewind
		// past the fault enables it again.
		{"disabled", []string{
			"module m; wire w = 4'q",
			"module m; wire w = 4'q; wire v;",
			"module m; wire w",
			"module m;; wire",
			"module m; wire w;",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s State
			for _, text := range tc.texts {
				matchScratch(t, &s, text)
			}
		})
	}
}

// sameContext reports whether two scans read alike.
func sameContext(a, b Context) bool {
	return slices.Equal(a.Ports, b.Ports) && a.Clock == b.Clock && a.Reset == b.Reset &&
		a.InHeader == b.InHeader && a.LastKind == b.LastKind && a.LastText == b.LastText &&
		slices.Equal(a.stack, b.stack) && a.lastClosedCtrl == b.lastClosedCtrl
}
