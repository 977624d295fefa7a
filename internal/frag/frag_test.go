package frag

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tokenizer"
	"repro/internal/verilog"
)

const dataRegisterSrc = `module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule
`

func TestSignificantTokens(t *testing.T) {
	s, err := Analyze(dataRegisterSrc)
	if err != nil {
		t.Fatal(err)
	}
	set := s.Significant()
	for _, want := range []string{
		"data_register", "clk", "data_in", "data_out", // AST identifiers
		"module", "endmodule", "reg", "posedge", "begin", "end", // extra keywords
		"<=", "(", ")", ";", // operators/punct
	} {
		if !set[want] {
			t.Errorf("significant set missing %q", want)
		}
	}
	if set[","] || set["["] || set["@"] {
		t.Error("',', '[' and '@' should not be significant (Fig. 3)")
	}

	// A delay's value is an AST leaf wherever the delay stands: on a
	// continuous assignment and inside a procedural one.
	for src, delay := range map[string]string{
		"module m(input a, output y); assign #2 y = a; endmodule":         "2",
		"module m(input b); reg x; initial begin x = #3 b; end endmodule": "3",
	} {
		s, err := Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Significant()[delay] {
			t.Errorf("%q: delay %q is not significant", src, delay)
		}
	}
}

func TestInsertFragsShape(t *testing.T) {
	s, err := Analyze(dataRegisterSrc)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Annotated()
	for _, want := range []string{
		"[FRAG]module[FRAG]",
		"[FRAG]data_register[FRAG]",
		"[FRAG]([FRAG]",
		"[FRAG]posedge[FRAG]",
		"[FRAG]<=[FRAG]",
		"[FRAG]endmodule[FRAG]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Annotated output missing %q\n%s", want, out)
		}
	}
	// Removing markers must reproduce the original source.
	if got := strings.ReplaceAll(out, "[FRAG]", ""); got != dataRegisterSrc {
		t.Errorf("stripping [FRAG] does not reproduce source:\n%q", got)
	}
}

func TestSegmentReconstructs(t *testing.T) {
	s, err := Analyze(dataRegisterSrc)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, p := range s.Pieces() {
		sb.WriteString(p.Text)
	}
	if sb.String() != dataRegisterSrc {
		t.Fatal("segment concatenation differs from source")
	}
}

// verilogSpellings are the token spellings randomSource draws from.
var verilogSpellings = []string{
	"module", "endmodule", "assign", "always", "begin", "end", "if", "else",
	"a", "b_1", "data_out", "$display", "\\esc+id", "`define W 8",
	"0", "42", "4'b10x0", "8'hFF", "'d15", "\"s\"", "// note\n", "/* c */",
	"<<<", ">>>", "<=", "==", "~^", "(", ")", ";", ",", "[", "]", "@", "?", "=", "+",
}

// randomSource joins random spellings with random whitespace.
func randomSource(rng *rand.Rand) string {
	var sb strings.Builder
	for range rng.Intn(40) {
		sb.WriteString(verilogSpellings[rng.Intn(len(verilogSpellings))])
		sb.WriteString([]string{" ", "", "\n", "\t "}[rng.Intn(4)])
	}
	return sb.String()
}

func TestSegmentReconstructsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lexed := 0
	for trial := 0; trial < 300; trial++ {
		src := randomSource(rng)
		toks, err := verilog.Lex(src)
		if err != nil {
			continue
		}
		lexed++
		// Every other token's spelling significant too: wrapped and
		// plain identifiers mix.
		leaves := map[string]bool{}
		for i, tok := range toks {
			if i%2 == 0 {
				leaves[tok.Text] = true
			}
		}
		s := newSource(src, toks, leaves)
		var sb strings.Builder
		for _, p := range s.Pieces() {
			sb.WriteString(p.Text)
		}
		if sb.String() != src {
			t.Fatalf("pieces of %q reassemble to %q", src, sb.String())
		}
	}
	if lexed < 200 {
		t.Fatalf("only %d of 300 random sources lexed", lexed)
	}
}

func TestEncodeWithFragsRoundtrip(t *testing.T) {
	tk := tokenizer.Train([]string{dataRegisterSrc}, 400)
	ids, err := EncodeWithFrags(tk, dataRegisterSrc)
	if err != nil {
		t.Fatal(err)
	}
	nFrags := 0
	for _, id := range ids {
		if id == tokenizer.FragID {
			nFrags++
		}
	}
	if nFrags == 0 || nFrags%2 != 0 {
		t.Fatalf("expected an even, positive number of FRAG markers, got %d", nFrags)
	}
	if got := tk.DecodeClean(ids); got != dataRegisterSrc {
		t.Fatalf("DecodeClean mismatch:\n%q", got)
	}
}

func TestBuildLabelsShiftAndPad(t *testing.T) {
	l0 := []int{10, 11, 12, 13, 14}
	labels := BuildLabels(l0, 3)
	if len(labels) != 4 {
		t.Fatalf("rows = %d, want 4", len(labels))
	}
	if !reflect.DeepEqual(labels[0], l0) {
		t.Fatalf("base row changed: %v", labels[0])
	}
	wantRow2 := []int{12, 13, 14, tokenizer.PadID, tokenizer.PadID}
	if !reflect.DeepEqual(labels[2], wantRow2) {
		t.Fatalf("row 2 = %v, want %v", labels[2], wantRow2)
	}
	// Input slice must not be aliased.
	labels[0][0] = 99
	if l0[0] != 10 {
		t.Fatal("BuildLabels aliases its input")
	}
}

// maskLabelsSequential applies the [IGNORE] masking in the obvious
// per-column way: for every sequence position, head rows beyond the
// last [FRAG] along the head dimension are replaced with [IGNORE], so
// the labels visible at that position always end on a complete
// syntactic fragment. Columns whose head rows contain no [FRAG] at all
// are left untouched (there is no fragment boundary to align to).
//
// It is the reference implementation that validates the paper's
// vectorized algorithm (MaskLabelsParallel).
func maskLabelsSequential(labels [][]int) {
	if len(labels) < 2 {
		return
	}
	heads := len(labels) - 1
	s := len(labels[0])
	for p := 0; p < s; p++ {
		lastFrag := 0
		for i := 1; i <= heads; i++ {
			if labels[i][p] == tokenizer.FragID {
				lastFrag = i
			}
		}
		if lastFrag == 0 {
			continue
		}
		for i := lastFrag + 1; i <= heads; i++ {
			labels[i][p] = tokenizer.IgnoreID
		}
	}
}

func TestMaskLabelsKnownExample(t *testing.T) {
	F := tokenizer.FragID
	// Sequence: F a b F c  (token ids 100,101,102 arbitrary)
	l0 := []int{F, 100, 101, F, 102}
	labels := BuildLabels(l0, 3)
	maskLabelsSequential(labels)
	// Column 0: head rows were [100,101,F] -> last FRAG at head 3: keep all.
	if labels[3][0] != F {
		t.Errorf("col0 head3 = %d, want FRAG", labels[3][0])
	}
	// Column 2: head rows were [F,102,PAD] -> last FRAG at head 1; heads 2,3 masked.
	if labels[1][2] != F {
		t.Errorf("col2 head1 = %d, want FRAG", labels[1][2])
	}
	if labels[2][2] != tokenizer.IgnoreID || labels[3][2] != tokenizer.IgnoreID {
		t.Errorf("col2 heads 2,3 = %d,%d, want IGNORE", labels[2][2], labels[3][2])
	}
	// Column 4 (last): head rows were [PAD,PAD,PAD] -> no FRAG: untouched.
	if labels[1][4] != tokenizer.PadID {
		t.Errorf("col4 head1 = %d, want PAD", labels[1][4])
	}
}

func cloneMatrix(m [][]int) [][]int {
	out := make([][]int, len(m))
	for i, r := range m {
		out[i] = append([]int(nil), r...)
	}
	return out
}

func TestParallelMatchesSequentialProperty(t *testing.T) {
	// The paper's vectorized algorithm must agree with the obvious
	// per-column reference on random sequences with random FRAGs.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		s := 1 + rng.Intn(120)
		heads := 1 + rng.Intn(12)
		l0 := make([]int, s)
		for i := range l0 {
			if rng.Float64() < 0.25 {
				l0[i] = tokenizer.FragID
			} else {
				l0[i] = tokenizer.NumSpecial + rng.Intn(100)
			}
		}
		a := BuildLabels(l0, heads)
		b := cloneMatrix(a)
		maskLabelsSequential(a)
		MaskLabelsParallel(b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: sequential and parallel disagree\nseq: %v\npar: %v\nl0: %v heads=%d",
				trial, a, b, l0, heads)
		}
	}
}

func TestIgnoredFractionMonotone(t *testing.T) {
	tk := tokenizer.Train([]string{dataRegisterSrc}, 400)
	ids, err := EncodeWithFrags(tk, dataRegisterSrc)
	if err != nil {
		t.Fatal(err)
	}
	labels := BuildSyntaxEnrichedLabels(ids, 10)
	fr := IgnoredFraction(labels)
	if fr[0] != 0 {
		t.Fatalf("base row must never be masked, got %f", fr[0])
	}
	for i := 2; i < len(fr); i++ {
		if fr[i] < fr[i-1] {
			t.Fatalf("ignored fraction not monotone at head %d: %v", i, fr)
		}
	}
	if fr[len(fr)-1] == 0 {
		t.Fatal("expected some masking on the last head")
	}
}

func TestMaskNoFragsNoChange(t *testing.T) {
	l0 := []int{100, 101, 102, 103}
	a := BuildLabels(l0, 4)
	b := cloneMatrix(a)
	MaskLabelsParallel(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("masking changed a FRAG-free matrix")
	}
}

func TestMaskEmptyAndTiny(t *testing.T) {
	MaskLabelsParallel(nil)
	maskLabelsSequential(nil)
	labels := BuildLabels([]int{}, 3)
	MaskLabelsParallel(labels) // must not panic
	one := BuildLabels([]int{tokenizer.FragID}, 0)
	MaskLabelsParallel(one)
	if one[0][0] != tokenizer.FragID {
		t.Fatal("zero-head matrix altered")
	}
}

// rowDepths counts, per column of a label matrix, the head rows before
// the first [PAD] or [IGNORE].
func rowDepths(labels [][]int) []uint8 {
	out := make([]uint8, len(labels[0]))
	for p := range out {
		d := 0
		for d+1 < len(labels) && labels[d+1][p] != tokenizer.PadID && labels[d+1][p] != tokenizer.IgnoreID {
			d++
		}
		out[p] = uint8(d)
	}
	return out
}

func TestHeadDepths(t *testing.T) {
	// Sequences shaped like training code: runs of [FRAG] (a fragment
	// closing where the next opens) and a trailing <eos>.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		var l0 []int
		for range rng.Intn(120) {
			if rng.Float64() < 0.2 {
				for range 1 + rng.Intn(3) {
					l0 = append(l0, tokenizer.FragID)
				}
			} else {
				l0 = append(l0, tokenizer.NumSpecial+rng.Intn(100))
			}
		}
		l0 = append(l0, tokenizer.EosID)
		heads := rng.Intn(13)
		labels := BuildLabels(l0, heads)
		if got, want := HeadDepths(l0, heads, false), rowDepths(labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d unmasked: depths %v, rows %v\nl0: %v heads=%d", trial, got, want, l0, heads)
		}
		seq, par := cloneMatrix(labels), cloneMatrix(labels)
		maskLabelsSequential(seq)
		MaskLabelsParallel(par)
		got := HeadDepths(l0, heads, true)
		for name, m := range map[string][][]int{"sequential": seq, "parallel": par} {
			if want := rowDepths(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d masked (%s): depths %v, rows %v\nl0: %v heads=%d", trial, name, got, want, l0, heads)
			}
		}
	}
}
