package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/verilog"
)

// swaps is the mutation operator set, keyed by the token it rewrites:
// each value is one mutant's replacement, "" deleting the token.
// Constants are flipped apart, in flip.
var swaps = map[string][]string{
	// arithmetic
	"+": {"-"}, "-": {"+"}, "*": {"+"}, "/": {"*"}, "%": {"/"},
	"<<": {">>"}, ">>": {"<<"},
	// logic
	"&": {"|"}, "|": {"&"}, "^": {"&"}, "&&": {"||"}, "||": {"&&"},
	// relational boundary; "<=" as a statement is also blocking vs
	// non-blocking, as "=" is
	"<": {"<="}, "<=": {"<", "="}, ">": {">="}, ">=": {">"}, "==": {"!="}, "!=": {"=="},
	"=": {"<="},
	// inversion removal
	"!": {""}, "~": {""},
	// clock edge
	"posedge": {"negedge"}, "negedge": {"posedge"},
}

// opClass names the class of a mutation, for the score table.
func opClass(from, to string) string {
	switch {
	case from == "posedge" || from == "negedge":
		return "clock edge"
	case to == "":
		return "inversion removal"
	case from == "=" || to == "=":
		return "blocking vs non-blocking"
	case strings.ContainsAny(from, "<>=!") && from != "<<" && from != ">>":
		return "relational"
	case strings.ContainsAny(from, "&|^"):
		return "logic"
	case from[0] >= '0' && from[0] <= '9':
		return "constant flip"
	}
	return "arithmetic"
}

// flip returns a number literal with its least significant bit
// flipped, at the same width, or "" for one with x or z digits.
func flip(text string) string {
	n, err := verilog.ParseNumberLiteral(text, 0)
	if err != nil || n.B != 0 || strings.ContainsAny(text, "sS") {
		return ""
	}
	if n.Sized {
		return fmt.Sprintf("%d'd%d", n.Width, n.A^1)
	}
	return fmt.Sprint(n.A ^ 1)
}

// mutant is one single-site mutation of a problem's reference.
type mutant struct {
	// key names it: problem, line:col of the site, and the rewrite.
	key, class, design string
}

// mutants returns every single-site mutant of p's reference that still
// parses: each operator of swaps and each constant flip, at every
// token of the module body (after the port header's ";").
func mutants(p Problem) []mutant {
	toks, err := verilog.Lex(p.Ref)
	if err != nil {
		panic(err)
	}
	body := 0
	for body < len(toks) && toks[body].Text != ";" {
		body++
	}
	var out []mutant
	for _, t := range toks[body:] {
		if t.Kind != verilog.TokOp && t.Kind != verilog.TokKeyword && t.Kind != verilog.TokNumber {
			continue
		}
		if p.Ref[t.Off:t.Off+len(t.Text)] != t.Text {
			panic(fmt.Sprintf("%s: token %v is not its source text", p.ID, t))
		}
		tos := swaps[t.Text]
		if t.Kind == verilog.TokNumber {
			tos = nil
			if f := flip(t.Text); f != "" {
				tos = []string{f}
			}
		}
		for _, to := range tos {
			d := p.Ref[:t.Off] + to + p.Ref[t.Off+len(t.Text):]
			if verilog.Check(d) != nil {
				continue
			}
			out = append(out, mutant{
				key:    fmt.Sprintf("%s %d:%d %s -> %s", p.ID, t.Line, t.Col, t.Text, to),
				class:  opClass(t.Text, to),
				design: d,
			})
		}
	}
	return out
}

// The reasons a mutant behaves as its reference on every input
// sequence (inputs change away from the clock edge, as the bench
// drives them).
const (
	clockedWrite = "the clocked block reads nothing back after this write, so a blocking write settles as the non-blocking one"
	combWrite    = "the combinational block reads nothing back after this write, so a non-blocking write settles as the blocking one"
	truncated    = "the widened concatenation's extra top bit is truncated away by the assignment"
	absZero      = "the arms differ only at x = 0, where -x and x are both 0"
	tieArms      = "the arms differ only at a == b, where both are the same value"
)

// equivalent lists the mutants no bench can kill, each with its reason.
var equivalent = map[string]string{
	"rtllm/alu_8bit 9:22 = -> <=":               combWrite,
	"rtllm/alu_8bit 10:22 = -> <=":              combWrite,
	"rtllm/alu_8bit 11:22 = -> <=":              combWrite,
	"rtllm/alu_8bit 12:24 = -> <=":              combWrite,
	"rtllm/mux4to1_8bit 11:22 = -> <=":          combWrite,
	"rtllm/mux4to1_8bit 12:22 = -> <=":          combWrite,
	"rtllm/mux4to1_8bit 13:22 = -> <=":          combWrite,
	"rtllm/mux4to1_8bit 14:24 = -> <=":          combWrite,
	"rtllm/decoder_3to8 7:20 = -> <=":           combWrite,
	"rtllm/decoder_3to8 8:16 = -> <=":           combWrite,
	"rtllm/priority_encoder_4bit 9:28 = -> <=":  combWrite,
	"rtllm/priority_encoder_4bit 10:28 = -> <=": combWrite,
	"rtllm/priority_encoder_4bit 11:28 = -> <=": combWrite,
	"rtllm/priority_encoder_4bit 12:28 = -> <=": combWrite,
	"rtllm/priority_encoder_4bit 13:34 = -> <=": combWrite,
	"rtllm/priority_encoder_4bit 13:48 = -> <=": combWrite,
	"rtllm/counter_8bit 7:20 <= -> =":           clockedWrite,
	"rtllm/counter_8bit 8:16 <= -> =":           clockedWrite,
	"rtllm/updown_counter_4bit 8:20 <= -> =":    clockedWrite,
	"rtllm/updown_counter_4bit 9:24 <= -> =":    clockedWrite,
	"rtllm/updown_counter_4bit 10:16 <= -> =":   clockedWrite,
	"rtllm/ring_counter_4bit 7:20 <= -> =":      clockedWrite,
	"rtllm/ring_counter_4bit 8:16 <= -> =":      clockedWrite,
	"rtllm/ring_counter_4bit 8:22 2 -> 3":       truncated,
	"rtllm/counter_mod10 7:20 <= -> =":          clockedWrite,
	"rtllm/counter_mod10 8:31 <= -> =":          clockedWrite,
	"rtllm/counter_mod10 9:16 <= -> =":          clockedWrite,
	"rtllm/shift_reg_8bit 6:29 <= -> =":         clockedWrite,
	"rtllm/shift_reg_8bit 6:35 6 -> 7":          truncated,
	"rtllm/edge_detector 7:33 <= -> =":          clockedWrite,
	"rtllm/clk_div4 8:22 <= -> =":               clockedWrite,
	"rtllm/clk_div4 9:18 <= -> =":               clockedWrite,
	"rtllm/pwm_8bit 9:22 <= -> =":               clockedWrite,
	"rtllm/pwm_8bit 10:18 <= -> =":              clockedWrite,
	"rtllm/seq_det_101 10:24 <= -> =":           clockedWrite,
	"rtllm/seq_det_101 13:27 <= -> =":           clockedWrite,
	"rtllm/seq_det_101 14:27 <= -> =":           clockedWrite,
	"rtllm/seq_det_101 15:27 <= -> =":           clockedWrite,
	"rtllm/seq_det_101 16:27 <= -> =":           clockedWrite,
	"rtllm/register_8bit_en 8:19 <= -> =":       clockedWrite,
	"rtllm/accumulator_16bit 9:22 <= -> =":      clockedWrite,
	"rtllm/accumulator_16bit 10:26 <= -> =":     clockedWrite,
	"rtllm/regfile_16x8 11:28 <= -> =":          clockedWrite,
	"rtllm/fifo_8x8 16:19 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 17:18 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 18:18 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 21:27 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 22:22 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 23:45 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 26:22 <= -> =":              clockedWrite,
	"rtllm/fifo_8x8 27:45 <= -> =":              clockedWrite,
	"rtllm/sat_counter_3bit 9:22 <= -> =":       clockedWrite,
	"rtllm/sat_counter_3bit 10:50 <= -> =":      clockedWrite,
	"rtllm/sat_counter_3bit 11:50 <= -> =":      clockedWrite,
	"rtllm/abs_8bit 5:19 < -> <=":               absZero,
	"rtllm/abs_8bit 5:21 0 -> 1":                absZero,
	"rtllm/minmax_8bit 7:23 < -> <=":            tieArms,
	"rtllm/minmax_8bit 8:23 > -> >=":            tieArms,
	"vgen/d_latch 3:19 = -> <=":                 combWrite,
	"vgen/dff 2:29 <= -> =":                     clockedWrite,
	"vgen/dff_rst 3:20 <= -> =":                 clockedWrite,
	"vgen/dff_rst 4:16 <= -> =":                 clockedWrite,
	"vgen/t_ff 3:20 <= -> =":                    clockedWrite,
	"vgen/t_ff 4:23 <= -> =":                    clockedWrite,
	"vgen/counter_3bit 3:20 <= -> =":            clockedWrite,
	"vgen/counter_3bit 4:16 <= -> =":            clockedWrite,
	"vgen/shift_4bit 2:29 <= -> =":              clockedWrite,
	"vgen/shift_4bit 2:35 2 -> 3":               truncated,
	"vgen/mux4_case 4:24 = -> <=":               combWrite,
	"vgen/mux4_case 5:24 = -> <=":               combWrite,
	"vgen/mux4_case 6:24 = -> <=":               combWrite,
	"vgen/mux4_case 7:26 = -> <=":               combWrite,
	"vgen/fsm_toggle 4:24 <= -> =":              clockedWrite,
	"vgen/fsm_toggle 5:28 <= -> =":              clockedWrite,
}

// TestTestbenchesKillMutants is the mutation table: every parsing
// single-site mutant of every reference fails its problem's bench,
// unless it is listed in equivalent, and every listed mutant exists and
// survives.
func TestTestbenchesKillMutants(t *testing.T) {
	type score struct{ n, killed, equiv int }
	classes := map[string]*score{}
	seen := map[string]bool{}
	for _, p := range All() {
		for _, m := range mutants(p) {
			seen[m.key] = true
			s := classes[m.class]
			if s == nil {
				s = &score{}
				classes[m.class] = s
			}
			s.n++
			killed := !CheckFunction(m.design, p)
			reason, equiv := equivalent[m.key]
			switch {
			case killed:
				s.killed++
				if equiv {
					t.Errorf("%s is listed as equivalent (%s), but its bench kills it", m.key, reason)
				}
			case equiv:
				s.equiv++
			default:
				t.Errorf("%s survives its bench", m.key)
			}
		}
	}
	for key := range equivalent {
		if !seen[key] {
			t.Errorf("equivalent lists %s, which is no mutant", key)
		}
	}
	names := make([]string, 0, len(classes))
	var all score
	for c, s := range classes {
		names = append(names, c)
		all.n, all.killed, all.equiv = all.n+s.n, all.killed+s.killed, all.equiv+s.equiv
	}
	sort.Strings(names)
	for _, c := range append(names, "total") {
		s := &all
		if c != "total" {
			s = classes[c]
		}
		t.Logf("%-26s %4d mutants  %4d killed  %3d equivalent", c, s.n, s.killed, s.equiv)
	}
}
