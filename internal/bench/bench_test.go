package bench

import (
	"fmt"
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
		// The verdict is the bench's: a design that prints the pass
		// line itself, with or without ending the run, fails.
		for _, initial := range []string{
			`$display("TEST PASSED");`,
			`begin $display("TEST PASSED"); $finish; end`,
		} {
			if d := tiedDesign(p, initial); CheckFunction(d, p) {
				t.Errorf("%s: a design printing the pass line passes:\n%s", p.ID, d)
			}
		}
	}
}

// tiedDesign returns p's module with every output tied to 0 and one
// initial block.
func tiedDesign(p Problem, initial string) string {
	f, err := verilog.Parse(p.Ref)
	if err != nil {
		panic(err)
	}
	var ports, body []string
	for _, port := range f.Modules[0].Ports {
		ports = append(ports, fmt.Sprintf("%s %s%s", port.Dir, rng(port), port.Name))
		if port.Dir == verilog.PortOutput {
			body = append(body, "  assign "+port.Name+" = 0;\n")
		}
	}
	return fmt.Sprintf("module %s(%s);\n%s  initial %s\nendmodule\n", p.Module, strings.Join(ports, ", "), strings.Join(body, ""), initial)
}

// TestBenchPortConvention: every problem's ports fit the stimulus rule
// (clk, rst, data inputs, outputs), and a port the rule cannot drive
// is an error, never a bench that drives it as data.
func TestBenchPortConvention(t *testing.T) {
	for _, p := range All() {
		if _, err := testbench(p.Ref); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
	}
	for _, ref := range []string{
		"module m(input clock, input d, output q); endmodule",
		"module m(input clk, input rst_n, input d, output q); endmodule",
		"module m(input clk, input reset, input d, output q); endmodule",
		"module m(input clk_in, input d, output q); endmodule",
		"module m(input [1:0] clk, input d, output q); endmodule",
		"module m(input clk, input [1:0] rst, input d, output q); endmodule",
		"module m(input rst, input d, output q); endmodule",
		"module m(inout [7:0] bus, output q); endmodule",
		"module m(input a, input b); endmodule",
	} {
		if tb, err := testbench(ref); err == nil {
			t.Errorf("%s: the port rule drives it:\n%s", ref, tb)
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

// FuzzCheckFunction runs arbitrary designs against the benches
// generated from the references (each a copy of the reference beside
// the design), seeded with every reference paired with its problem, with
// its parameterised wrappers (paramWrappers) and with ranges too wide
// for the simulator (overflowDesigns): whatever the design,
// CheckFunction returns a verdict and never panics (the simulator's
// step and time limits bound every run), either on the design or, by
// checkWithRest, with the modules after its first one beside the
// testbench.
func FuzzCheckFunction(f *testing.F) {
	problems := All()
	for i, p := range problems {
		f.Add(p.Ref, uint(i))
	}
	for i, p := range problems {
		for _, w := range append(paramWrappers(p), overflowDesigns(p)...) {
			f.Add(w, uint(i))
		}
	}
	f.Fuzz(func(t *testing.T, design string, i uint) {
		p := problems[i%uint(len(problems))]
		CheckFunction(design, p)
		checkWithRest(design, p)
	})
}

// checkWithRest is CheckFunction with the modules after the design's
// first one placed after the testbench, so that a wrapper reaches the
// modules it instantiates.
func checkWithRest(design string, p Problem) bool {
	first := ExtractFirstModule(design)
	p.Testbench += "\n" + design[strings.Index(design, first)+len(first):]
	return CheckFunction(first, p)
}

// paramWrappers returns three designs whose first module is p's DUT, a
// parameterised wrapper that reaches p's reference, renamed p.Module
// + "_core" and given parameters its ranges read, through overrides:
// named, ordered, and two levels deep, through a middle module whose
// override folds in its own overridden parameter (K = 3 there, where
// its default K = 1 would fold W to 8).
func paramWrappers(p Problem) []string {
	f, err := verilog.Parse(p.Ref)
	if err != nil {
		panic(err)
	}
	var conns []string
	for _, port := range f.Modules[0].Ports {
		conns = append(conns, fmt.Sprintf(".%s(%s)", port.Name, port.Name))
	}
	ports := p.Ref[len("module "+p.Module) : strings.Index(p.Ref, ";")+1]
	inst := fmt.Sprintf(" u(%s);\nendmodule\n", strings.Join(conns, ", "))
	core := "module " + p.Module + "_core #(parameter W = 8, parameter D = 4)" +
		strings.Replace(p.Ref[len("module "+p.Module):], "endmodule", "  wire [W-1:0] pad_w;\n  reg [W-1:0] pad_m [0:D-1];\nendmodule", 1)
	wrapper := func(name, params, body string) string {
		return "module " + name + " #(" + params + ")" + ports + "\n  " + body + inst
	}
	return []string{
		wrapper(p.Module, "parameter N = 2", "localparam M = N * 2;\n  "+p.Module+"_core #(.W(M * 4), .D(N + 1))") + core,
		wrapper(p.Module, "parameter N = 2", "localparam M = N * 2;\n  "+p.Module+"_core #(M + 4, N)") + core,
		wrapper(p.Module, "parameter N = 2", p.Module+"_mid #(.K(N + 1))") +
			wrapper(p.Module+"_mid", "parameter K = 1", p.Module+"_core #(.W(K * 8), .D(K))") + core,
	}
}

// overflowDesigns returns p's reference with a memory and, apart, a
// vector whose range spans more than an int, and a wrapper whose
// override widens the reference's padding past 64 bits: each an error,
// never a panic.
func overflowDesigns(p Problem) []string {
	widen := strings.Replace(paramWrappers(p)[0], ".W(M * 4)", ".W(M * 25)", 1)
	return []string{
		strings.Replace(p.Ref, "endmodule", "  reg [7:0] m [-4611686018427387904:4611686018427387904];\nendmodule", 1),
		strings.Replace(p.Ref, "endmodule", "  wire [4611686018427387904:-4611686018427387904] w;\nendmodule", 1),
		widen,
	}
}

// TestParamWrappersPass: every reference still passes its testbench
// behind each of its parameterised wrappers, so each override (named,
// ordered, two levels deep) reaches the module it names with the
// value it folds to; every overflow design fails without a panic.
func TestParamWrappersPass(t *testing.T) {
	for _, p := range All() {
		for i, w := range paramWrappers(p) {
			if !checkWithRest(w, p) {
				t.Errorf("%s: wrapper %d fails its testbench", p.ID, i)
			}
		}
		for i, d := range overflowDesigns(p) {
			if checkWithRest(d, p) {
				t.Errorf("%s: overflow design %d passes its testbench", p.ID, i)
			}
		}
	}
}
