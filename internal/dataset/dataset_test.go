package dataset

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/verilog"
)

func TestAllFamiliesProduceParseableCode(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, f := range Families() {
		for trial := 0; trial < 25; trial++ {
			it := f.gen(r)
			if err := verilog.Check(it.Code); err != nil {
				t.Fatalf("family %s trial %d produced unparsable code: %v\n%s",
					f.name, trial, err, it.Code)
			}
			if it.Desc == "" {
				t.Fatalf("family %s produced empty description", f.name)
			}
			if it.Family == "" {
				t.Fatalf("family %s did not tag its items", f.name)
			}
		}
	}
}

func TestGenerateRawDeterminism(t *testing.T) {
	a, _, _ := GenerateRaw(CorpusOptions{Seed: 9, Items: 60})
	b, _, _ := GenerateRaw(CorpusOptions{Seed: 9, Items: 60})
	if len(a) != len(b) {
		t.Fatalf("file counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("file %d differs between identical seeds", i)
		}
	}
	c, _, _ := GenerateRaw(CorpusOptions{Seed: 10, Items: 60})
	same := 0
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestSplitModules(t *testing.T) {
	file := `// header comment
module a(input x, output y);
  assign y = x;
endmodule

// module b is mentioned in this comment
module b(input x, output y);
  assign y = ~x;
endmodule
`
	mods := SplitModules(file)
	if len(mods) != 2 {
		t.Fatalf("got %d modules, want 2: %q", len(mods), mods)
	}
	if !strings.Contains(mods[0], "module a") || !strings.Contains(mods[1], "module b") {
		t.Fatalf("wrong split: %q", mods)
	}
}

func TestSplitModulesTruncated(t *testing.T) {
	mods := SplitModules("module broken (\n input clk,\n")
	if len(mods) != 0 {
		t.Fatalf("truncated module should not split: %q", mods)
	}
}

func TestFilterModule(t *testing.T) {
	if FilterModule("// only\n// comments\n") {
		t.Fatal("comment-only text passed filter")
	}
	if FilterModule("module x(); // no endmodule") {
		t.Fatal("incomplete module passed filter")
	}
	if !FilterModule("module x();\nassign a = b;\nendmodule\n") {
		t.Fatal("good module failed filter")
	}
	if FilterModule("// c1\n// c2\n// c3\n// c4\nmodule x();\nendmodule\n") {
		t.Fatal("mostly-comments module passed filter")
	}
}

func TestModuleNameOf(t *testing.T) {
	cases := map[string]string{
		"module foo (input a);\nendmodule":           "foo",
		"module bar(input a);\nendmodule":            "bar",
		"module baz;\nendmodule":                     "baz",
		"module qux #(parameter W=2) ();\nendmodule": "qux",
	}
	for src, want := range cases {
		if got := moduleNameOf(src); got != want {
			t.Errorf("moduleNameOf(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestDeduplicateExactCopies(t *testing.T) {
	base := `module dup(input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
`
	other := `module other(input a, b, output y);
  assign y = a ^ b;
endmodule
`
	docs := []string{base, other, base, base}
	keep := Deduplicate(docs)
	if len(keep) != 2 {
		t.Fatalf("kept %d docs, want 2 (indices %v)", len(keep), keep)
	}
	if keep[0] != 0 || keep[1] != 1 {
		t.Fatalf("kept wrong indices: %v", keep)
	}
}

func TestDeduplicateKeepsDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var docs []string
	for i := 0; i < 30; i++ {
		f := Families()[i%len(Families())]
		docs = append(docs, f.gen(r).Code)
	}
	keep := Deduplicate(docs)
	if len(keep) < 25 {
		t.Fatalf("dedup too aggressive: kept %d of 30 distinct docs", len(keep))
	}
}

func TestDescribe(t *testing.T) {
	src := `module widget(input clk, input [7:0] din, output reg [7:0] dout);
  always @(posedge clk) dout <= din;
endmodule
`
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	desc := describe(f, src)
	for _, want := range []string{"widget", "8-bit din", "8-bit dout", "clocked"} {
		if !strings.Contains(desc, want) {
			t.Errorf("description missing %q: %s", want, desc)
		}
	}
}

func TestBuildCorpusPipeline(t *testing.T) {
	examples, stats := BuildCorpus(CorpusOptions{Seed: 5, Items: 300})
	if stats.RawFiles == 0 || stats.SplitModules == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
	// Junk injection must be filtered out.
	if stats.AfterFilter >= stats.SplitModules+5 {
		t.Fatalf("filter did nothing: %+v", stats)
	}
	// Duplicate injection must be removed.
	if stats.AfterDedup >= stats.AfterFilter {
		t.Fatalf("dedup removed nothing despite injected duplicates: %+v", stats)
	}
	if stats.SyntaxClean == 0 || len(examples) != stats.SyntaxClean {
		t.Fatalf("no clean examples: %+v", stats)
	}
	if stats.WithSummaries == 0 || stats.Described == 0 {
		t.Fatalf("both description paths should be exercised: %+v", stats)
	}
	// All surviving code parses.
	for i, ex := range examples {
		if err := verilog.Check(ex.Code); err != nil {
			t.Fatalf("example %d unparsable after refinement: %v", i, err)
		}
		if ex.Prompt == "" {
			t.Fatalf("example %d has no description", i)
		}
	}
}

func TestSubsetFractions(t *testing.T) {
	examples, _ := BuildCorpus(CorpusOptions{Seed: 6, Items: 200})
	quarter := Subset(examples, 1, 4)
	half := Subset(examples, 2, 4)
	if len(quarter) != len(examples)/4 || len(half) != len(examples)/2 {
		t.Fatalf("subset sizes wrong: %d %d of %d", len(quarter), len(half), len(examples))
	}
	// Prefix property: each smaller size's examples are the start of
	// every larger size's, so the sweep only adds data.
	for i := range quarter {
		if quarter[i].Code != half[i].Code {
			t.Fatal("subsets are not prefixes")
		}
	}
}
