// Package verilog implements a lexer, abstract syntax tree and
// recursive-descent parser for a synthesizable subset of Verilog-2001,
// plus the testbench constructs needed to run self-checking benches
// (initial blocks, delays, system tasks).
//
// It is the repository's substitute for the Stagira incremental Verilog
// parser used by the paper: it performs corpus syntax checking, produces
// the ASTs from which syntactically significant tokens are extracted
// (package frag), and provides the elaboration input for the event-driven
// simulator (package verilog/sim).
package verilog

import "fmt"

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds produced by the Lexer.
const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier (possibly escaped).
	TokIdent
	// TokKeyword is a reserved Verilog keyword.
	TokKeyword
	// TokNumber is an integer literal, sized or unsized (e.g. 4'b10x0, 42).
	TokNumber
	// TokString is a double-quoted string literal.
	TokString
	// TokSysName is a system task or function name (e.g. $display).
	TokSysName
	// TokOp is an operator such as +, <=, ===, <<<.
	TokOp
	// TokPunct is punctuation: ( ) [ ] { } ; , : . # @ ?
	TokPunct
	// TokDirective is a compiler directive line (e.g. `timescale 1ns/1ps).
	TokDirective
)

// String returns a human-readable kind name.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokSysName:
		return "system-name"
	case TokOp:
		return "operator"
	case TokPunct:
		return "punctuation"
	case TokDirective:
		return "directive"
	}
	return "unknown"
}

// Token is a single lexical token with source position information.
type Token struct {
	Kind TokenKind
	Text string
	Line int // 1-based line number
	Col  int // 1-based column number
	Off  int // byte offset of the token's first byte in the source
	// Escaped marks an escaped identifier (`\name`, Text without the
	// backslash): the one way an identifier may spell a keyword.
	Escaped bool
}

// String renders the token for diagnostics.
func (t Token) String() string {
	return fmt.Sprintf("%s %q @%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// keywords is the reserved-word set recognized by the lexer. It covers
// the supported subset plus common reserved words that must not be
// treated as identifiers.
var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "integer": true,
	"parameter": true, "localparam": true, "assign": true,
	"always": true, "initial": true, "begin": true, "end": true,
	"if": true, "else": true, "case": true, "casez": true, "casex": true,
	"endcase": true, "default": true, "for": true, "while": true,
	"repeat": true, "forever": true, "posedge": true, "negedge": true,
	"or": true, "and": true, "not": true, "nand": true, "nor": true,
	"xor": true, "xnor": true, "buf": true, "signed": true,
	"unsigned": true, "function": true, "endfunction": true,
	"task": true, "endtask": true, "generate": true, "endgenerate": true,
	"genvar": true, "real": true, "time": true, "event": true,
	"wait": true, "fork": true, "join": true, "disable": true,
	"supply0": true, "supply1": true, "tri": true, "vectored": true,
	"scalared": true, "specify": true, "endspecify": true,
	"defparam": true, "primitive": true, "endprimitive": true,
	"table": true, "endtable": true,
}

// IsKeyword reports whether s is a reserved Verilog word.
func IsKeyword(s string) bool { return keywords[s] }
