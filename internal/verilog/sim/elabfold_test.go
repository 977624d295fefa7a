package sim_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/verilog"
	"repro/internal/verilog/sim"
)

// TestElabMatchesParserFold: elaborated at its default parameters,
// every module of every benchmark reference and testbench, of the
// FuzzParser corpus, of a sample of the dataset corpus and of
// paramModules gets exactly the ranges the parser folded: the one fold
// rule agrees with the parser wherever no override applies. A module
// that declares a parameter twice is the one that may not elaborate.
func TestElabMatchesParserFold(t *testing.T) {
	srcs := []string{paramModules}
	for _, p := range bench.All() {
		srcs = append(srcs, p.Ref, p.Testbench)
	}
	corpus, err := filepath.Glob("../testdata/fuzz/FuzzParser/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srcs = append(srcs, src)
	}
	raw, _, _ := dataset.GenerateRaw(dataset.CorpusOptions{Seed: 1, Items: 600})
	srcs = append(srcs, raw...)

	modules, ranges := 0, 0
	for _, src := range srcs {
		f, err := verilog.Parse(src)
		if err != nil {
			continue
		}
		for _, m := range f.Modules {
			sc, err := sim.DeclareAtDefaults(m)
			if err != nil {
				if !declaresParamTwice(m) {
					t.Errorf("module %s: %v", m.Name, err)
				}
				continue
			}
			modules++
			ranges += checkRanges(t, sc, m)
		}
	}
	if f, err := verilog.Parse(paramModules); err != nil || len(f.Modules) != 2 {
		t.Fatalf("paramModules: %v", err)
	}
	if modules < 500 || ranges < 1000 {
		t.Fatalf("only %d modules, %d ranges compared", modules, ranges)
	}
	t.Logf("%d modules, %d ranges", modules, ranges)
}

// paramModules declare parameters their ranges read, in the header and
// in the body, derived by localparams, descending, ascending and
// negative, on ANSI and non-ANSI ports, nets and memories (the
// benchmark and the dataset corpus have none).
const paramModules = `module a #(parameter W = 8, D = 4) (input [W-1:0] x, output reg [0:W-1] y);
  localparam H = W / 2, L = -D;
  reg [H:L] r, s [D-1:0];
  wire [W*2-1:W] hi;
  integer i;
endmodule
module b(x, y);
  parameter N = 3;
  input [N:0] x;
  output y;
  reg [N-1:0] y;
  reg [7:0] m [0:(1 << N) - 1], n [N:-N];
endmodule
`

// checkRanges compares the signals of sc with the ranges the parser
// folded for m and returns the number compared. A name declared both
// as a port and as a net takes one of its two ranges.
func checkRanges(t *testing.T, sc *sim.Scope, m *verilog.Module) int {
	t.Helper()
	want := map[string][]verilog.Range{}
	for _, p := range m.Ports {
		if p.HasRng {
			want[p.Name] = append(want[p.Name], p.Rng)
		}
	}
	n := 0
	for _, it := range m.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		for _, dn := range nd.Names {
			if nd.HasRng {
				want[dn.Name] = append(want[dn.Name], nd.Rng)
			}
			if dn.IsArray {
				sig := sc.Signals[dn.Name]
				lo, hi := min(dn.ARng.MSB, dn.ARng.LSB), max(dn.ARng.MSB, dn.ARng.LSB)
				if !sig.IsArray || sig.ALo != lo || sig.AHi != hi || len(sig.Words) != hi-lo+1 {
					t.Errorf("module %s: memory %s words [%d:%d], parser folded [%d:%d]", m.Name, dn.Name, sig.ALo, sig.AHi, lo, hi)
				}
				n++
			}
		}
	}
	for name, rs := range want {
		sig := sc.Signals[name]
		match := false
		for _, r := range rs {
			match = match || sig.Left == r.MSB && sig.Right == r.LSB && sig.W == r.Width()
		}
		if !match {
			t.Errorf("module %s: %s is [%d:%d] (%d bits), parser folded %+v", m.Name, name, sig.Left, sig.Right, sig.W, rs)
		}
		n++
	}
	return n
}

// declaresParamTwice reports whether m declares a parameter name twice.
func declaresParamTwice(m *verilog.Module) bool {
	seen := map[string]bool{}
	for _, it := range m.Items {
		if pd, ok := it.(*verilog.ParamDecl); ok {
			for _, pn := range pd.Names {
				if seen[pn] {
					return true
				}
				seen[pn] = true
			}
		}
	}
	return false
}
