package verilog

import (
	"strings"
	"testing"
)

// FuzzLexer feeds arbitrary source text to the lexer and checks its
// contract rather than its output: it must never panic or loop, every
// token must carry sane positions and non-empty spelling where the
// grammar promises one, and errors must be *SyntaxError with a real
// position. Lexing is the front door of the syntax pass-rate metric, so
// a crash here would take down the whole evaluation pipeline on one
// malformed generation.
func FuzzLexer(f *testing.F) {
	f.Add("")
	f.Add("module m(input a, output y); assign y = a; endmodule")
	f.Add("wire [7:0] w = 8'hFF; // comment\n")
	f.Add("/* unterminated")
	f.Add("\"string with \\\" escape\"")
	f.Add("4'b10_x0 + 'd15 ** 2")
	f.Add("`define X 1\n\\escaped$id $display(\"hi\")")
	f.Add("\x00\xff\x80 emoji: ⏚")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			se, ok := err.(*SyntaxError)
			if !ok {
				t.Fatalf("error is %T, want *SyntaxError", err)
			}
			if se.Line < 1 || se.Col < 1 {
				t.Fatalf("error position %d:%d out of range", se.Line, se.Col)
			}
		}
		prevLine, prevCol := 1, 1
		for i, tok := range toks {
			if tok.Kind == TokEOF {
				t.Fatalf("token %d: EOF leaked into the token stream", i)
			}
			if tok.Line < 1 || tok.Col < 1 {
				t.Fatalf("token %d: position %d:%d out of range", i, tok.Line, tok.Col)
			}
			if tok.Line < prevLine || (tok.Line == prevLine && tok.Col < prevCol) {
				t.Fatalf("token %d: position %d:%d precedes %d:%d", i, tok.Line, tok.Col, prevLine, prevCol)
			}
			prevLine, prevCol = tok.Line, tok.Col
			switch tok.Kind {
			case TokIdent, TokKeyword, TokNumber, TokOp, TokPunct, TokSysName, TokDirective:
				if tok.Kind != TokDirective && tok.Text == "" {
					t.Fatalf("token %d: kind %v with empty text", i, tok.Kind)
				}
			case TokString:
				// Empty strings are legal ("").
			default:
				t.Fatalf("token %d: unknown kind %v", i, tok.Kind)
			}
			if tok.Kind == TokKeyword && !IsKeyword(tok.Text) {
				t.Fatalf("token %d: keyword kind for non-keyword %q", i, tok.Text)
			}
			if tok.Kind == TokIdent && IsKeyword(tok.Text) && !tok.Escaped {
				t.Fatalf("token %d: unescaped identifier kind for keyword %q", i, tok.Text)
			}
			if tok.Escaped && tok.Kind != TokIdent {
				t.Fatalf("token %d: kind %v marked escaped", i, tok.Kind)
			}
			if tok.Kind == TokDirective && !strings.HasPrefix(tok.Text, "`") {
				t.Fatalf("token %d: directive %q missing backtick", i, tok.Text)
			}
		}
	})
}
