package frag

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/verilog"
)

// tokenRE is the regular-expression segmenter of Fig. 3 that the
// lexer's tokens replaced, kept as FuzzSegment's reference: sized
// literals, identifiers, numbers and operators/punctuation, matched in
// source order.
var tokenRE = regexp.MustCompile(
	`[0-9]*'[sS]?[bodhBODH][0-9a-fA-FxXzZ?_]+` + // based literals
		`|[A-Za-z_$][A-Za-z0-9_$]*` + // identifiers & keywords
		`|[0-9][0-9_]*` + // plain numbers
		`|<<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~&|~\||~\^|\^~|\*\*` +
		`|[()+\-*/%&|^~!?=<>;]`, // single-char operators, ( ) ;
)

// Piece is one segment of source text: a significant token, or the
// text between two.
type Piece struct {
	Text        string
	Significant bool
}

// Pieces splits the source at its significant tokens' spans.
func (s *Source) Pieces() []Piece {
	var out []Piece
	last := 0
	for _, sp := range s.spans {
		if sp[0] > last {
			out = append(out, Piece{Text: s.src[last:sp[0]]})
		}
		out = append(out, Piece{Text: s.src[sp[0]:sp[1]], Significant: true})
		last = sp[1]
	}
	if last < len(s.src) {
		out = append(out, Piece{Text: s.src[last:]})
	}
	return out
}

// segmentRegexp is the segmentation tokenRE gave: every match whose
// spelling is in significant becomes a significant piece.
func segmentRegexp(src string, significant map[string]bool) []Piece {
	var out []Piece
	last := 0
	for _, loc := range tokenRE.FindAllStringIndex(src, -1) {
		tok := src[loc[0]:loc[1]]
		if !significant[tok] {
			continue
		}
		if loc[0] > last {
			out = append(out, Piece{Text: src[last:loc[0]]})
		}
		out = append(out, Piece{Text: tok, Significant: true})
		last = loc[1]
	}
	if last < len(src) {
		out = append(out, Piece{Text: src[last:]})
	}
	return out
}

// regexpSegmentsAlike reports whether tokenRE finds the lexer's tokens
// in src: whether it holds no comment, string literal, directive or
// escaped identifier, whose insides the regexp searched and the lexer
// does not, and no literal with an underscore in its size (4_0'b1),
// which the regexp split in two.
func regexpSegmentsAlike(src string, toks []verilog.Token) bool {
	if strings.Contains(src, "//") || strings.Contains(src, "/*") || strings.ContainsAny(src, "\"`\\") {
		return false
	}
	for _, t := range toks {
		if t.Kind == verilog.TokNumber {
			if i := strings.IndexByte(t.Text, '\''); i > 0 && strings.Contains(t.Text[:i], "_") {
				return false
			}
		}
	}
	return true
}

// FuzzSegment holds the lexer's segmentation to the regexp's on every
// input where the two find the same tokens (see regexpSegmentsAlike):
// the extra keywords and operators are significant, and so is every
// other identifier or number, so both wrapped and plain identifiers
// occur.
func FuzzSegment(f *testing.F) {
	f.Add(dataRegisterSrc)
	f.Add("module m(input [3:0] a, output [3:0] y);\n  assign y = a <<< 2 >>> 1;\nendmodule\n")
	f.Add("assign z = (a === 4'sb1x_0) ? 8'hFF : 'd15 ** 2; // not compared\n")
	f.Add("always @(posedge clk) if (!rst) q <= q ~^ d; else q <= {q[2:0], $random};")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := verilog.Lex(src)
		if err != nil || !regexpSegmentsAlike(src, toks) {
			t.Skip()
		}
		set := map[string]bool{}
		for k := range extra {
			set[k] = true
		}
		for i, tok := range toks {
			if (tok.Kind == verilog.TokIdent || tok.Kind == verilog.TokNumber) && i%2 == 0 {
				set[tok.Text] = true
			}
		}
		got := newSource(src, toks, set).Pieces()
		if want := segmentRegexp(src, set); !reflect.DeepEqual(got, want) {
			t.Fatalf("lexer segmentation differs from the regexp's on %q:\n got %+v\nwant %+v", src, got, want)
		}
	})
}
