package verilog

// Prefix-parsability: the incremental-syntax primitives behind
// grammar-constrained drafting (internal/core/spec/grammar). A decode
// in progress is a source file cut off mid-stream; the question the
// draft pruner needs answered is not "does this parse?" but "could any
// continuation of this parse?". Two observations make that answerable
// with the existing lexer and parser, unchanged:
//
//   - The lexer fails at the very end of the input exactly when more
//     text could still complete the current token (unterminated string
//     or block comment, a based literal still missing its digits, a
//     bare '$' or '\'). A lexing error strictly before the end can
//     never be repaired by appending — LexPrefix turns that position
//     test into a Pending flag.
//
//   - The parser is LL recursive descent and never backtracks, so when
//     it errors while positioned at end-of-input the consumed tokens
//     were a viable prefix (some continuation exists), while an error
//     at an interior token condemns the stream no matter what follows.
//     ResumePrefix turns that into a PrefixStatus.
//
// The one wrinkle is the seam: a prefix may end inside what will
// become a longer token ("alw" → "always", "<" → "<="), so a final
// token that touches end-of-input and whose kind can grow is judged
// optimistically — dropped before the parse check when keeping it
// would condemn the stream. The classification is deliberately lenient
// (a handful of constant-folding errors at end-of-input report Valid
// for streams no continuation can fix); the drafting layer only ever
// uses Invalid to prune, so leniency costs pruning power, never
// correctness.

// PrefixStatus classifies a source prefix.
type PrefixStatus int

const (
	// PrefixInvalid: no continuation can make the text parse.
	PrefixInvalid PrefixStatus = iota
	// PrefixValid: the text is a viable proper prefix — it does not
	// parse as-is, but appending text may complete it.
	PrefixValid
	// PrefixComplete: the text parses as a complete source file as-is
	// (it may still be extended, e.g. with another module).
	PrefixComplete
)

// String names the status for diagnostics.
func (s PrefixStatus) String() string {
	switch s {
	case PrefixInvalid:
		return "invalid"
	case PrefixValid:
		return "valid"
	case PrefixComplete:
		return "complete"
	}
	return "unknown"
}

// PrefixLex is the result of lexing a possibly-truncated source
// prefix: the complete tokens, where each one's bytes end, and whether
// the input stops inside an unfinished token.
type PrefixLex struct {
	// Toks are the complete tokens scanned before the end (or before
	// the unfinished tail).
	Toks []Token
	// Ends holds, parallel to Toks, the byte offset just past each
	// token's spelling — the seam an incremental re-lex resumes from.
	Ends []int
	// Pending reports that the input ends inside an unfinished token
	// (unterminated string or block comment, a based literal missing
	// digits, ...) that appending more text could complete.
	Pending bool
	// Err is the lexing error when the failure cannot be repaired by
	// appending text; always nil when Pending is true.
	Err error
}

// LexPrefix scans src as a source prefix: like Lex, but a failure at
// the very end of the input is reported as Pending instead of an
// error, since more text could complete the token being scanned.
func LexPrefix(src string) PrefixLex {
	var pl PrefixLex
	pl.LexAt(src, 0, 1, 1)
	return pl
}

// LexAt lexes src as a source prefix that continues a longer text at
// byte offset off, line and column: it appends src's complete tokens to
// pl with their offsets, ends and positions in the longer text, and
// sets Pending and Err for src's end.
func (pl *PrefixLex) LexAt(src string, off, line, col int) {
	lx := &Lexer{src: src, line: line, col: col}
	pl.Pending, pl.Err = false, nil
	for {
		t, err := lx.Next()
		if err != nil {
			// The lexer stops advancing the moment a token goes wrong,
			// so "consumed everything" means the error is the cut
			// itself, not the text.
			if lx.pos >= len(src) {
				pl.Pending = true
			} else {
				pl.Err = err
			}
			return
		}
		if t.Kind == TokEOF {
			return
		}
		t.Off += off
		pl.Toks = append(pl.Toks, t)
		pl.Ends = append(pl.Ends, off+lx.pos)
	}
}

// OpenSeam states the seam rule of a prefix check: it reports whether
// the last complete token of pl, lexed from srcLen bytes, ends at the
// input's end with a kind that can still grow ("alw"+"ays", "4'b1"+"0",
// "<"+"="), so that the stream is judged without it, as an open stream.
// Punctuation is always a single rune and a closed string cannot
// reopen; every other kind can grow.
func (pl *PrefixLex) OpenSeam(srcLen int) bool {
	n := len(pl.Toks)
	if pl.Pending || n == 0 || pl.Ends[n-1] != srcLen {
		return false
	}
	k := pl.Toks[n-1].Kind
	return k != TokPunct && k != TokString
}

// CheckPrefix classifies src as a prefix of a parsable source file.
func CheckPrefix(src string) PrefixStatus {
	pl := LexPrefix(src)
	if pl.Err != nil {
		return PrefixInvalid
	}
	return ResumePrefix(Checkpoint{}, pl.Toks, pl.Pending, pl.OpenSeam(len(src)), nil, 0)
}

// A Checkpoint is a prefix check's parser state between modules, or
// before a module item or port-list name; the zero one is the start.
// The parser reads one token ahead and never moves back, so the state
// at Pos depends on tokens [0, Pos], Pos included (the item before may
// end only on seeing it: an if without else), and resuming there
// classifies any stream that agrees through token Pos exactly.
type Checkpoint struct {
	Pos    int // stream index of the token the parse resumes at
	site   cpSite
	params map[string]int64 // the module's parameters; never written once held here
}

// cpSite is where in the grammar a checkpoint stands.
type cpSite uint8

const (
	siteStart   cpSite = iota // before any module is complete
	siteBetween               // between modules, after at least one
	sitePorts                 // before a name in a module's port list
	siteItems                 // before a module item or endmodule
)

// ResumePrefix classifies the stream resumed at cp whose tokens from
// cp.Pos on are toks: open reports that its text is still growing
// (it ended inside an unfinished token), and seam that its last token
// can (PrefixLex.OpenSeam), so a stream it condemns is judged again
// without that token. When marks is non-nil, each checkpoint the parse
// passes after cp.Pos and below stream index below is appended to it.
func ResumePrefix(cp Checkpoint, toks []Token, open, seam bool, marks *[]Checkpoint, below int) PrefixStatus {
	p := &Parser{toks: toks, quiet: true, base: cp.Pos, below: below, marks: marks}
	_, err := p.sourceFrom(cp)
	switch {
	case err == nil && !open:
		return PrefixComplete
	case err == nil || p.pos >= len(p.toks):
		// Every parse error raised while positioned at end-of-input —
		// "unexpected end of input inside module", "unterminated
		// begin/end block", "expected ';', found end of input" — means
		// the tokens consumed so far were viable.
		return PrefixValid
	case seam && p.pos == len(toks)-1:
		// A failure before the last token would fail the stream without
		// it at the same token; one at the last token is worth a look.
		return ResumePrefix(cp, toks[:len(toks)-1], true, false, nil, 0)
	}
	return PrefixInvalid
}
