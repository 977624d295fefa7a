// Package frag implements the paper's syntax-enrichment pipeline
// (§III-C, Figs. 3 and 4):
//
//  1. syntactically significant tokens are identified from the Verilog
//     AST (leaf identifiers and literals) plus a fixed extra-keyword
//     list (module, endmodule, operators, ...);
//  2. a regular expression segments source code into fragments and
//     wraps each significant token with the special [FRAG] marker;
//  3. syntax-enriched label matrices are constructed for Medusa-style
//     multi-head training: head i's label row is the base row shifted
//     left by i, padded with [PAD], and positions beyond the last
//     [FRAG] along the head dimension are masked with [IGNORE].
//
// The [IGNORE] masking is provided in two equivalent implementations: a
// straightforward per-column reference and the paper's vectorized
// reverse sweep (Fig. 4, right panel), which the tests prove equivalent.
package frag

import (
	"regexp"
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

// ExtraKeywords returns the fixed supplementary keyword set (a copy).
func ExtraKeywords() map[string]bool {
	out := make(map[string]bool, len(extraKeywords)+len(extraOperators))
	for _, k := range extraKeywords {
		out[k] = true
	}
	for _, k := range extraOperators {
		out[k] = true
	}
	return out
}

// SignificantTokens parses src and returns the union of AST-derived
// keywords (identifiers and literal spellings from leaf nodes) and the
// extra keyword list — the paper's Fig. 3 "Significant Tokens".
func SignificantTokens(src string) (map[string]bool, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	set := ExtraKeywords()
	for _, m := range f.Modules {
		collectModuleTokens(m, set)
	}
	return set, nil
}

func collectModuleTokens(m *verilog.Module, set map[string]bool) {
	set[m.Name] = true
	for _, p := range m.Ports {
		set[p.Name] = true
	}
	for _, it := range m.Items {
		switch v := it.(type) {
		case *verilog.NetDecl:
			for _, dn := range v.Names {
				set[dn.Name] = true
				collectExprTokens(dn.Init, set)
			}
		case *verilog.ParamDecl:
			for _, n := range v.Names {
				set[n] = true
			}
			for _, e := range v.Values {
				collectExprTokens(e, set)
			}
		case *verilog.ContAssign:
			collectExprTokens(v.LHS, set)
			collectExprTokens(v.RHS, set)
		case *verilog.AlwaysBlock:
			collectStmtTokens(v.Body, set)
		case *verilog.InitialBlock:
			collectStmtTokens(v.Body, set)
		case *verilog.Instance:
			set[v.ModName] = true
			set[v.InstName] = true
			for _, c := range v.Conns {
				if c.Port != "" {
					set[c.Port] = true
				}
				collectExprTokens(c.Expr, set)
			}
		}
	}
}

func collectStmtTokens(s verilog.Stmt, set map[string]bool) {
	switch v := s.(type) {
	case nil:
	case *verilog.Block:
		for _, st := range v.Stmts {
			collectStmtTokens(st, set)
		}
	case *verilog.Assign:
		collectExprTokens(v.LHS, set)
		collectExprTokens(v.RHS, set)
	case *verilog.If:
		collectExprTokens(v.Cond, set)
		collectStmtTokens(v.Then, set)
		collectStmtTokens(v.Else, set)
	case *verilog.Case:
		collectExprTokens(v.Expr, set)
		for _, item := range v.Items {
			for _, e := range item.Exprs {
				collectExprTokens(e, set)
			}
			collectStmtTokens(item.Body, set)
		}
	case *verilog.For:
		collectStmtTokens(v.Init, set)
		collectExprTokens(v.Cond, set)
		collectStmtTokens(v.Step, set)
		collectStmtTokens(v.Body, set)
	case *verilog.While:
		collectExprTokens(v.Cond, set)
		collectStmtTokens(v.Body, set)
	case *verilog.Repeat:
		collectExprTokens(v.Count, set)
		collectStmtTokens(v.Body, set)
	case *verilog.Forever:
		collectStmtTokens(v.Body, set)
	case *verilog.DelayStmt:
		collectExprTokens(v.Delay, set)
		collectStmtTokens(v.Body, set)
	case *verilog.EventCtrlStmt:
		for _, it := range v.Items {
			collectExprTokens(it.Expr, set)
		}
		collectStmtTokens(v.Body, set)
	case *verilog.SysCall:
		for _, e := range v.Args {
			collectExprTokens(e, set)
		}
	}
}

func collectExprTokens(e verilog.Expr, set map[string]bool) {
	switch v := e.(type) {
	case nil:
	case *verilog.Ident:
		set[v.Name] = true
	case *verilog.Number:
		set[v.Text] = true
	case *verilog.Unary:
		collectExprTokens(v.X, set)
	case *verilog.Binary:
		collectExprTokens(v.X, set)
		collectExprTokens(v.Y, set)
	case *verilog.Ternary:
		collectExprTokens(v.Cond, set)
		collectExprTokens(v.TrueE, set)
		collectExprTokens(v.FalseE, set)
	case *verilog.Concat:
		for _, p := range v.Parts {
			collectExprTokens(p, set)
		}
	case *verilog.Repl:
		collectExprTokens(v.Count, set)
		collectExprTokens(v.X, set)
	case *verilog.Index:
		collectExprTokens(v.X, set)
		collectExprTokens(v.Idx, set)
	case *verilog.RangeSel:
		collectExprTokens(v.X, set)
		collectExprTokens(v.MSB, set)
		collectExprTokens(v.LSB, set)
	case *verilog.SysFuncCall:
		for _, a := range v.Args {
			collectExprTokens(a, set)
		}
	}
}

// tokenRE matches candidate significant tokens in source order: sized
// literals, identifiers, numbers and operators/punctuation. It is the
// regex segmenter of Fig. 3.
var tokenRE = regexp.MustCompile(
	`[0-9]*'[sS]?[bodhBODH][0-9a-fA-FxXzZ?_]+` + // based literals
		`|[A-Za-z_$][A-Za-z0-9_$]*` + // identifiers & keywords
		`|[0-9][0-9_]*` + // plain numbers
		`|<<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~&|~\||~\^|\^~|\*\*` +
		`|[()+\-*/%&|^~!?=<>;]`, // single-char operators, ( ) ;
)

// Piece is one segment of source text produced by Segment.
type Piece struct {
	Text        string
	Significant bool
}

// Segment splits src into pieces, marking each significant token.
// Concatenating the piece texts reproduces src exactly.
func Segment(src string, significant map[string]bool) []Piece {
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

// InsertFrags returns src with every significant token wrapped in
// [FRAG] markers — the textual form shown in Fig. 3(C).
func InsertFrags(src string) (string, error) {
	sig, err := SignificantTokens(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, p := range Segment(src, sig) {
		if p.Significant {
			sb.WriteString("[FRAG]")
			sb.WriteString(p.Text)
			sb.WriteString("[FRAG]")
		} else {
			sb.WriteString(p.Text)
		}
	}
	return sb.String(), nil
}

// EncodeWithFrags tokenizes src into BPE ids with FragID markers around
// every significant token — the id-level form used to build training
// labels and to drive the decoder's integrity check. It shares no state
// between calls and only reads tk, so it is safe for concurrent use:
// model training prepares its examples on several goroutines at once.
func EncodeWithFrags(tk *tokenizer.Tokenizer, src string) ([]int, error) {
	sig, err := SignificantTokens(src)
	if err != nil {
		return nil, err
	}
	return EncodeSegmented(tk, Segment(src, sig)), nil
}

// EncodeSegmented encodes pre-segmented pieces, wrapping significant
// pieces with FragID.
func EncodeSegmented(tk *tokenizer.Tokenizer, pieces []Piece) []int {
	var out []int
	for _, p := range pieces {
		if p.Significant {
			out = append(out, tokenizer.FragID)
			out = append(out, tk.Encode(p.Text)...)
			out = append(out, tokenizer.FragID)
			continue
		}
		out = append(out, tk.Encode(p.Text)...)
	}
	return out
}

// StripFrags removes FragID markers from a token sequence (the cleanup
// applied to decoder output before evaluation).
func StripFrags(ids []int) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if id == tokenizer.FragID {
			continue
		}
		out = append(out, id)
	}
	return out
}
