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
//     CheckTokenPrefix turns that into a PrefixStatus.
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
	lx := NewLexer(src)
	var pl PrefixLex
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
			return pl
		}
		if t.Kind == TokEOF {
			return pl
		}
		pl.Toks = append(pl.Toks, t)
		pl.Ends = append(pl.Ends, lx.pos)
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
	st := CheckTokenPrefix(pl.Toks, pl.Pending)
	if st == PrefixInvalid && pl.OpenSeam(len(src)) {
		st = CheckTokenPrefix(pl.Toks[:len(pl.Toks)-1], true)
	}
	return st
}

// CheckTokenPrefix reports whether toks could begin a parsable source
// file. open marks a stream whose tail is still growing (the source
// ended mid-token, or the caller dropped an extendable final token):
// an open stream that parses completely is only Valid, since the text
// behind it is not complete as written.
func CheckTokenPrefix(toks []Token, open bool) PrefixStatus {
	p := &Parser{toks: toks}
	_, err := p.parseSourceFile()
	switch {
	case err == nil && !open:
		return PrefixComplete
	case err == nil:
		return PrefixValid
	case p.pos >= len(p.toks):
		// Every parse error raised while positioned at end-of-input —
		// "unexpected end of input inside module", "unterminated
		// begin/end block", "expected ';', found end of input" — means
		// the tokens consumed so far were viable.
		return PrefixValid
	}
	return PrefixInvalid
}
