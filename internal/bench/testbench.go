package bench

import (
	"fmt"
	"strings"

	"repro/internal/verilog"
)

// Every problem's testbench is generated from its reference: the
// reference is copied under refModule and run beside the design on one
// stimulus, and at each sample point every output of the design must
// equal the reference's. A reference output with an x or z bit is a
// don't-care; a design output with one where the reference's is known
// is a mismatch. The bench stops at the first mismatch, printing it, and
// prints passLine once the stimulus is done.
//
// The stimulus comes from the port names. clk toggles with a period of
// ten time units. rst is an active-high reset, held for the first two
// cycles, then high in one cycle of resetOdds at random. Every other
// input is data. With at most enumBits data bits the bench drives every
// input value in turn, then walks, flipping one random bit or holding at
// each step, so that a latch sees its enable fall under each data
// value. With more, each input takes a corner (0, all ones, 1, the
// input of its width before it in the port list or else its own last
// value, that plus one) or $random. A clocked design takes its inputs
// at negedge and is compared just before and just after each posedge; a
// combinational one five time units after each vector.
const (
	refModule = "bench_reference"
	passLine  = "TEST PASSED"
	enumBits  = 10
	// clockedSteps and combSteps count the cycles or vectors after the
	// enumeration; clockedSteps spans more than one wrap of an 8-bit
	// counter.
	clockedSteps = 400
	combSteps    = 300
	resetOdds    = 128
)

// testbench builds the bench for a reference: the copy under refModule,
// then module tb, which instantiates the design as dut and the copy as
// ref. A port the stimulus rule cannot drive is an error.
func testbench(ref string) (string, error) {
	f, err := verilog.Parse(ref)
	if err != nil {
		return "", err
	}
	m := f.Modules[0]
	ctl := map[string]bool{}
	var data, outs []*verilog.Port
	for _, p := range m.Ports {
		switch {
		case p.Dir == verilog.PortOutput:
			outs = append(outs, p)
		case p.Dir != verilog.PortInput:
			return "", fmt.Errorf("port %s: an %s port has no stimulus", p.Name, p.Dir)
		case p.Name == "clk" || p.Name == "rst":
			if width(p) != 1 {
				return "", fmt.Errorf("port %s: %d bits, want 1", p.Name, width(p))
			}
			ctl[p.Name] = true
		case controlLike(p.Name):
			return "", fmt.Errorf("port %s: reads as a clock or reset, but only clk and rst are driven as one", p.Name)
		default:
			data = append(data, p)
		}
	}
	if ctl["rst"] && !ctl["clk"] {
		return "", fmt.Errorf("rst without clk")
	}
	if len(outs) == 0 {
		return "", fmt.Errorf("no output to compare")
	}

	var b strings.Builder
	pf := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	pf("%s\nmodule tb;\n  integer tb_i, tb_k;\n", strings.Replace(ref, "module "+m.Name, "module "+refModule, 1))
	bits := 0
	var names, dut, cp []string
	for _, p := range m.Ports {
		dut = append(dut, fmt.Sprintf(".%s(%s)", p.Name, p.Name))
		if p.Dir == verilog.PortOutput {
			pf("  wire %s%s, %s_ref;\n", rng(p), p.Name, p.Name)
			cp = append(cp, fmt.Sprintf(".%s(%s_ref)", p.Name, p.Name))
			continue
		}
		pf("  reg %s%s;\n", rng(p), p.Name)
		cp = append(cp, dut[len(dut)-1])
		if !ctl[p.Name] {
			bits += width(p)
			names = append(names, p.Name)
		}
	}
	pf("  %s dut(%s);\n  %s ref(%s);\n", m.Name, strings.Join(dut, ", "), refModule, strings.Join(cp, ", "))

	steps, clk := combSteps, ctl["clk"]
	if clk {
		steps = clockedSteps
	}
	enum := bits > 0 && bits <= enumBits
	if enum {
		steps += 1 << bits
		pf("  reg [%d:0] tb_v;\n", bits-1)
	}
	pf("  initial begin\n")
	if clk {
		pf("    clk = 0;\n")
	}
	pf("    for (tb_i = 0; tb_i < %d; tb_i = tb_i + 1) begin\n", steps)
	if ctl["rst"] {
		pf("      rst = tb_i < 2 || $unsigned($random) %% %d == 0;\n", resetOdds)
	}
	if enum {
		pf("      if (tb_i < %d) tb_v = tb_i;\n", 1<<bits)
		pf("      else begin\n        tb_k = $unsigned($random) %% %d;\n", 2*bits)
		pf("        if (tb_k < %d) tb_v[tb_k] = !tb_v[tb_k];\n      end\n", bits)
		pf("      {%s} = tb_v;\n", strings.Join(names, ", "))
	} else {
		for i, p := range data {
			prev := p.Name
			for _, q := range data[:i] {
				if width(q) == width(p) {
					prev = q.Name
				}
			}
			pf("      case ($unsigned($random) %% 6)\n        0: %[1]s = 0;\n        1: %[1]s = {%[2]d{1'b1}};\n", p.Name, width(p))
			pf("        2: %[1]s = 1;\n        3: %[1]s = %[2]s;\n        4: %[1]s = %[2]s + 1;\n", p.Name, prev)
			pf("        default: %s = $random;\n      endcase\n", p.Name)
		}
	}
	check := func() {
		for _, o := range outs {
			pf("      if (^%[1]s_ref !== 1'bx && %[1]s !== %[1]s_ref) begin\n", o.Name)
			pf("        $display(\"TEST FAILED at %%0t: %[1]s = %%b, want %%b\", $time, %[1]s, %[1]s_ref);\n", o.Name)
			pf("        $finish;\n      end\n")
		}
	}
	if clk {
		pf("      #4;\n")
		check()
		pf("      #1 clk = 1;\n      #1;\n")
		check()
		pf("      #4 clk = 0;\n")
	} else {
		pf("      #5;\n")
		check()
	}
	pf("    end\n    $display(%q);\n    $finish;\n  end\nendmodule\n", passLine)
	return b.String(), nil
}

// withTestbenches fills every problem's Testbench from its reference.
func withTestbenches(ps []Problem) []Problem {
	for i := range ps {
		var err error
		if ps[i].Testbench, err = testbench(ps[i].Ref); err != nil {
			panic(ps[i].ID + ": " + err.Error())
		}
	}
	return ps
}

// controlLike reports whether an input's name reads as a clock or a
// reset other than clk and rst, which the stimulus would drive as data.
func controlLike(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "clk") || strings.Contains(n, "clock") ||
		strings.HasPrefix(n, "rst") || strings.Contains(n, "reset")
}

func width(p *verilog.Port) int {
	if !p.HasRng {
		return 1
	}
	return p.Rng.Width()
}

// rng spells a port's width as a declaration's range.
func rng(p *verilog.Port) string {
	if w := width(p); w > 1 {
		return fmt.Sprintf("[%d:0] ", w-1)
	}
	return ""
}
