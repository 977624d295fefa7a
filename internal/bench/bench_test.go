package bench

import (
	"strings"
	"testing"

	"repro/internal/verilog"
)

func TestSuiteSizesMatchPaper(t *testing.T) {
	if n := len(RTLLM()); n != 29 {
		t.Fatalf("RTLLM-like suite has %d problems, want 29", n)
	}
	if n := len(VGen()); n != 17 {
		t.Fatalf("VGen-like suite has %d problems, want 17", n)
	}
	if n := len(All()); n != 46 {
		t.Fatalf("All() has %d problems, want 46", n)
	}
}

func TestProblemFieldsComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if p.ID == "" || p.Prompt == "" || p.Module == "" || p.Ref == "" || p.Testbench == "" {
			t.Fatalf("problem %+v has empty fields", p.ID)
		}
		if seen[p.ID] {
			t.Fatalf("duplicate problem id %q", p.ID)
		}
		seen[p.ID] = true
		if !strings.Contains(p.Ref, "module "+p.Module) {
			t.Errorf("%s: reference does not declare module %q", p.ID, p.Module)
		}
		if !strings.Contains(p.Testbench, p.Module+" dut") {
			t.Errorf("%s: testbench does not instantiate %q", p.ID, p.Module)
		}
		if !strings.Contains(p.Prompt, p.Module) {
			t.Errorf("%s: prompt does not mention module name %q", p.ID, p.Module)
		}
	}
}

func TestAllReferencesParse(t *testing.T) {
	for _, p := range All() {
		if err := verilog.Check(p.Ref); err != nil {
			t.Errorf("%s: reference does not parse: %v", p.ID, err)
		}
		if err := verilog.Check(p.Testbench); err != nil {
			t.Errorf("%s: testbench does not parse: %v", p.ID, err)
		}
	}
}

// TestAllReferencesPassTheirTestbenches is the validity keystone of the
// whole evaluation: if a reference fails its own bench, the benchmark
// measures noise.
func TestAllReferencesPassTheirTestbenches(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			if !CheckSyntax(p.Ref) {
				t.Fatal("reference fails syntax check")
			}
			if !CheckFunction(p.Ref, p) {
				t.Fatal("reference fails its own testbench")
			}
		})
	}
}

func TestBrokenDesignsFail(t *testing.T) {
	for _, p := range All()[:6] {
		// An empty module with the right name must fail function
		// (x outputs) but pass syntax.
		stub := "module " + p.Module + "();\nendmodule\n"
		if !CheckSyntax(stub) {
			t.Errorf("%s: stub should be syntactically fine", p.ID)
		}
		if CheckFunction(stub, p) {
			t.Errorf("%s: stub module must not pass the testbench", p.ID)
		}
		if CheckSyntax("module ( broken") {
			t.Error("garbage should fail syntax")
		}
		if CheckFunction("module ( broken", p) {
			t.Errorf("%s: garbage must not pass function", p.ID)
		}
	}
}

func TestWrongPolarityFails(t *testing.T) {
	// A subtly wrong adder (ignores cin) must fail functionally.
	wrong := `module adder_8bit (
    input [7:0] a,
    input [7:0] b,
    input cin,
    output [7:0] sum,
    output cout
);
    assign {cout, sum} = a + b;
endmodule
`
	p := RTLLM()[0]
	if !CheckSyntax(wrong) {
		t.Fatal("wrong adder should parse")
	}
	if CheckFunction(wrong, p) {
		t.Fatal("adder that ignores cin must fail the bench")
	}
}

func TestExtractFirstModule(t *testing.T) {
	text := "some preamble\nmodule a(); endmodule\nmodule b(); endmodule"
	got := ExtractFirstModule(text)
	if !strings.HasPrefix(got, "module a") || !strings.HasSuffix(got, "endmodule") || strings.Contains(got, "module b") {
		t.Fatalf("extract = %q", got)
	}
	if got := ExtractFirstModule("nothing to extract"); got != "nothing to extract" {
		t.Fatalf("no-module extract = %q", got)
	}
	if got := ExtractFirstModule("module unterminated ("); got != "module unterminated (" {
		t.Fatalf("unterminated extract = %q", got)
	}
}

// FuzzCheckFunction runs arbitrary designs against the benchmark's
// testbenches, seeded with every reference paired with its problem:
// whatever the design, CheckFunction returns a verdict and never
// panics (the simulator's step and time limits bound every run).
func FuzzCheckFunction(f *testing.F) {
	problems := All()
	for i, p := range problems {
		f.Add(p.Ref, uint(i))
	}
	f.Fuzz(func(t *testing.T, design string, i uint) {
		CheckFunction(design, problems[i%uint(len(problems))])
	})
}
