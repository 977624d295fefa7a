package verilog

import (
	"fmt"
	"strings"
)

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("verilog: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer scans Verilog source text into tokens. Comments are skipped;
// compiler-directive lines are emitted as TokDirective tokens so callers
// can ignore or record them.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the entire input, excluding the final EOF token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Verilog runs about four bytes a token; a third holds most sources
	// without growing.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || c == '$' || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBaseDigit(c byte) bool {
	switch {
	case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		return true
	case c == 'x', c == 'X', c == 'z', c == 'Z', c == '?', c == '_':
		return true
	}
	return false
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments.
func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// multi-character operators, longest first.
var multiOps = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"~&", "~|", "~^", "^~", "**",
}

// Next returns the next token, or a TokEOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col, Off: l.pos}, nil
	}
	line, col, off := l.line, l.col, l.pos
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if IsKeyword(text) {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col, Off: off}, nil

	case c == '\\': // escaped identifier: backslash up to whitespace
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peek() != ' ' && l.peek() != '\t' && l.peek() != '\n' && l.peek() != '\r' {
			l.advance()
		}
		if l.pos == start {
			return Token{}, l.errf("empty escaped identifier")
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col, Off: off, Escaped: true}, nil

	case c == '$':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		if l.pos == start {
			return Token{}, l.errf("bare '$'")
		}
		return Token{Kind: TokSysName, Text: l.src[off:l.pos], Line: line, Col: col, Off: off}, nil

	case c == '`':
		// Compiler directive: consume through end of line.
		start := l.pos
		for l.pos < len(l.src) && l.peek() != '\n' {
			l.advance()
		}
		return Token{Kind: TokDirective, Text: strings.TrimSpace(l.src[start:l.pos]), Line: line, Col: col, Off: off}, nil

	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.pos >= len(l.src) {
					return Token{}, l.errf("unterminated escape in string")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				default:
					sb.WriteByte(esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: sb.String(), Line: line, Col: col, Off: off}, nil

	case isDigit(c) || c == '\'':
		return l.lexNumber(line, col, off)
	}

	// Operators and punctuation.
	rest := l.src[l.pos:]
	for _, op := range multiOps {
		if strings.HasPrefix(rest, op) {
			for range op {
				l.advance()
			}
			return Token{Kind: TokOp, Text: op, Line: line, Col: col, Off: off}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '!', '~', '&', '|', '^', '=':
		l.advance()
		return Token{Kind: TokOp, Text: string(c), Line: line, Col: col, Off: off}, nil
	case '(', ')', '[', ']', '{', '}', ';', ',', ':', '.', '#', '@', '?':
		l.advance()
		return Token{Kind: TokPunct, Text: string(c), Line: line, Col: col, Off: off}, nil
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}

// lexNumber scans decimal literals and based literals such as 4'b10_x0,
// 8'hFF, 'd15. The size part, if present, has already not been consumed.
func (l *Lexer) lexNumber(line, col, off int) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	// Optional base part.
	if l.peek() == '\'' {
		l.advance()
		if l.peek() == 's' || l.peek() == 'S' {
			l.advance()
		}
		switch l.peek() {
		case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
			l.advance()
		default:
			return Token{}, l.errf("invalid number base %q", string(l.peek()))
		}
		ndigits := 0
		for l.pos < len(l.src) && isBaseDigit(l.peek()) {
			l.advance()
			ndigits++
		}
		if ndigits == 0 {
			return Token{}, l.errf("based literal missing digits")
		}
	} else if l.pos == start {
		return Token{}, l.errf("malformed number")
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col, Off: off}, nil
}
