// Package bench defines the evaluation benchmarks: an RTLLM-like suite
// of 29 design problems and a VGen-like suite of 17 low-level prompts,
// matching the sizes (and therefore the pass-rate granularity) of the
// benchmarks used in the paper. Each problem carries a prompt and a
// reference implementation; its testbench is generated from the
// reference (testbench.go), a differential bench that runs the design
// beside a copy of the reference on one stimulus and compares every
// output. A generated design is syntactically correct when it parses
// (iverilog-compile analogue) and functionally correct when it matches
// the reference at every sample point of that bench (iverilog-run
// analogue).
package bench

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/verilog"
	"repro/internal/verilog/sim"
)

// Problem is one benchmark entry.
type Problem struct {
	// ID is "suite/name", e.g. "rtllm/adder_8bit".
	ID string
	// Suite is "RTLLM" or "VGen".
	Suite string
	// Prompt is the natural-language task given to the model.
	Prompt string
	// Module is the required DUT module name (the testbench
	// instantiates it by this name).
	Module string
	// Ref is the reference implementation, and the answer the
	// testbench checks against.
	Ref string
	// Testbench is the differential bench generated from Ref: a copy
	// of Ref and module tb, which prints TEST FAILED at the first
	// mismatch and TEST PASSED at the end.
	Testbench string
}

// ExtractFirstModule trims generated text to its first complete
// module...endmodule block (models often keep generating after the
// design; the paper's pipeline performs the same cleanup).
func ExtractFirstModule(text string) string {
	start := strings.Index(text, "module")
	if start < 0 {
		return text
	}
	end := strings.Index(text[start:], "endmodule")
	if end < 0 {
		return text[start:]
	}
	return text[start : start+end+len("endmodule")]
}

// CheckSyntax reports whether the generated design parses — the
// paper's syntactic-correctness criterion (design compiles).
func CheckSyntax(design string) bool {
	return verilog.Check(ExtractFirstModule(design)) == nil
}

// CheckFunction reports whether the generated design passes the
// problem's testbench — the paper's functional-correctness criterion.
// The verdict is the bench's alone: its pass line, the first in the
// source, is rewritten to carry a hash of the whole source, design
// included, so no design can print it.
func CheckFunction(design string, p Problem) bool {
	pass := strconv.Quote(passLine)
	if !strings.Contains(p.Testbench, pass) {
		return false
	}
	src := p.Testbench + "\n" + ExtractFirstModule(design)
	h := fnv.New64a()
	h.Write([]byte(src))
	key := fmt.Sprintf("%s %016x", passLine, h.Sum64())
	f, err := verilog.Parse(strings.Replace(src, pass, strconv.Quote(key), 1))
	if err != nil {
		return false
	}
	r, err := sim.Run([]*verilog.SourceFile{f}, "tb", sim.Options{
		MaxTime:  2_000_000,
		MaxSteps: 2_000_000,
	})
	return err == nil && strings.Contains(r.Output, key+"\n")
}

// All returns both suites concatenated (RTLLM first).
func All() []Problem {
	return append(append([]Problem{}, RTLLM()...), VGen()...)
}
