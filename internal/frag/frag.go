// Package frag implements the paper's syntax-enrichment pipeline
// (§III-C, Figs. 3 and 4):
//
//  1. syntactically significant tokens are identified from the Verilog
//     AST: its leaves (declared names, identifiers and literals, the
//     values of delays included), found by one verilog.Inspect walk,
//     plus a fixed extra-keyword list (module, endmodule, operators,
//     ...);
//  2. the source is segmented at its lexer tokens, and each
//     significant token is wrapped with the special [FRAG] marker (the
//     paper segments with a regular expression; the parser has already
//     lexed the source, so its tokens are reused);
//  3. syntax-enriched label matrices are constructed for Medusa-style
//     multi-head training: head i's label row is the base row shifted
//     left by i, padded with [PAD], and positions beyond the last
//     [FRAG] along the head dimension are masked with [IGNORE].
//
// The [IGNORE] masking is the paper's vectorized reverse sweep (Fig. 4,
// right panel), which the tests hold to a per-column reference. Model
// training needs only each position's count of labelled head rows,
// which HeadDepths computes without the matrix.
package frag

import (
	"strings"

	"repro/internal/tokenizer"
	"repro/internal/verilog"
)

// extraKeywords is the supplementary significant-token list of §III-C:
// structural keywords and common constructs that must align decoding
// stops even when they do not appear as AST leaves.
var extraKeywords = []string{
	"module", "endmodule", "input", "output", "inout", "wire", "reg",
	"integer", "parameter", "localparam", "assign", "always", "initial",
	"begin", "end", "if", "else", "case", "casez", "casex", "endcase",
	"default", "for", "while", "repeat", "forever", "posedge", "negedge",
	"or", "signed",
}

// extraOperators are operator and punctuation spellings treated as
// significant tokens (Fig. 3 wraps '(', ')', ';' and '<=').
var extraOperators = []string{
	"<<<", ">>>", "===", "!==", "<<", ">>", "<=", ">=", "==", "!=",
	"&&", "||", "~&", "~|", "~^", "^~", "**",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", "=", "<", ">",
	"(", ")", ";",
}

// extra is the set of extraKeywords and extraOperators. It is built
// once and only read.
var extra = func() map[string]bool {
	set := make(map[string]bool, len(extraKeywords)+len(extraOperators))
	for _, k := range extraKeywords {
		set[k] = true
	}
	for _, k := range extraOperators {
		set[k] = true
	}
	return set
}()

// collectLeaves adds to set the spellings of the AST leaves under n:
// every declared name, and every identifier and number, delays
// included.
func collectLeaves(n verilog.Node, set map[string]bool) {
	verilog.Inspect(n, func(n verilog.Node) bool {
		switch v := n.(type) {
		case *verilog.Module:
			set[v.Name] = true
		case *verilog.Port:
			set[v.Name] = true
		case *verilog.NetDecl:
			for _, dn := range v.Names {
				set[dn.Name] = true
			}
		case *verilog.ParamDecl:
			for _, name := range v.Names {
				set[name] = true
			}
		case *verilog.Instance:
			set[v.ModName] = true
			set[v.InstName] = true
			for _, c := range v.Conns {
				if c.Port != "" {
					set[c.Port] = true
				}
			}
		case *verilog.Ident:
			set[v.Name] = true
		case *verilog.Number:
			set[v.Text] = true
		}
		return true
	})
}

// Source is one Verilog source lexed and parsed once, and the spans of
// its significant tokens. Every token whose spelling is an AST leaf's
// or on the extra list is significant, wherever it occurs, so a module
// name is wrapped in its instantiations too. Comments, string literals
// and compiler-directive lines are not tokens the fragments are made
// of, and nothing inside them is wrapped.
type Source struct {
	src   string
	spans [][2]int // byte ranges of the significant tokens, in order
}

// Analyze parses src and finds its significant tokens.
func Analyze(src string) (*Source, error) {
	f, toks, err := verilog.ParseWithTokens(src)
	if err != nil {
		return nil, err
	}
	leaves := map[string]bool{}
	collectLeaves(f, leaves)
	return newSource(src, toks, leaves), nil
}

// newSource keeps each token of src spelled like one of leaves or on
// the extra list.
func newSource(src string, toks []verilog.Token, leaves map[string]bool) *Source {
	s := &Source{src: src}
	for _, t := range toks {
		if t.Kind == verilog.TokString || t.Kind == verilog.TokDirective || !extra[t.Text] && !leaves[t.Text] {
			continue
		}
		start := t.Off
		if t.Escaped {
			start++ // the spelling follows the backslash
		}
		s.spans = append(s.spans, [2]int{start, start + len(t.Text)})
	}
	return s
}

// Significant returns the distinct spellings of the source's
// significant tokens — the paper's Fig. 3(B) "Significant Tokens" as
// they occur in this source.
func (s *Source) Significant() map[string]bool {
	set := map[string]bool{}
	for _, sp := range s.spans {
		set[s.src[sp[0]:sp[1]]] = true
	}
	return set
}

// Annotated returns the source with every significant token wrapped in
// [FRAG] markers — the textual form shown in Fig. 3(C).
func (s *Source) Annotated() string {
	var sb strings.Builder
	last := 0
	for _, sp := range s.spans {
		sb.WriteString(s.src[last:sp[0]])
		sb.WriteString("[FRAG]" + s.src[sp[0]:sp[1]] + "[FRAG]")
		last = sp[1]
	}
	sb.WriteString(s.src[last:])
	return sb.String()
}

// Encode tokenizes the source into BPE ids with FragID markers around
// every significant token — the id-level form of Annotated.
func (s *Source) Encode(tk *tokenizer.Tokenizer) []int {
	var out []int
	last := 0
	for _, sp := range s.spans {
		out = tk.AppendEncode(out, s.src[last:sp[0]])
		out = append(out, tokenizer.FragID)
		out = tk.AppendEncode(out, s.src[sp[0]:sp[1]])
		out = append(out, tokenizer.FragID)
		last = sp[1]
	}
	return tk.AppendEncode(out, s.src[last:])
}

// EncodeWithFrags parses src and tokenizes it with [FRAG] markers (see
// Source.Encode) — the id-level form used to build training labels and
// to drive the decoder's integrity check. It shares no state between
// calls and only reads tk, so it is safe for concurrent use: model
// training prepares its examples on several goroutines at once.
func EncodeWithFrags(tk *tokenizer.Tokenizer, src string) ([]int, error) {
	s, err := Analyze(src)
	if err != nil {
		return nil, err
	}
	return s.Encode(tk), nil
}
