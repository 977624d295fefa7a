// Package grammar is the incremental Verilog syntax oracle behind
// grammar-constrained drafting: per decoding step it classifies draft
// continuations of the generated-so-far text as viable or doomed
// (verilog.CheckPrefix semantics), and synthesizes whole idiomatic
// constructs — sensitivity lists, always-block skeletons,
// end/endmodule closer chains, port-list continuations — conditioned
// on the partial parse context.
//
// A State carries the oracle across one decode's steps. It holds the
// generated text (prompt excluded); the frozen tokens — every complete
// token but a final one that could still grow ("alw" → "always") — with
// absolute positions; the context scan over them; and parser
// checkpoints (verilog.Checkpoint) between modules and before every
// module item and port-list name. Begin lexes only the bytes after the
// last frozen token and parses from the latest checkpoint; so does each
// Check(ext), over the unstable tail plus ext, memoized per extension.
// A step costs what it added and the item in progress, not the text.
//
// A checkpoint at token P is used only while token P is frozen: the
// parser's state at P depends on tokens [0, P], P included, as the item
// before it may end only on seeing token P (an if an else may still
// extend). A text that does not extend the held one starts the state
// over. The state is only a cache: every answer is a fresh State's on
// the same text — Begin(base) is new(State).Begin(base) — so the oracle
// stays a pure function of the decoded text.
//
// The oracle only ever prunes on PrefixInvalid, inheriting the prefix
// layer's leniency guarantee: a branch the model is entitled to take is
// never condemned. When the text itself cannot be classified (the
// model emitted something unlexable, or the stream is already doomed),
// the step disables itself and Check passes everything — grammar
// drafting degrades to plain drafting rather than fighting the decode.
//
// A State is NOT safe for concurrent use; it belongs to one decode.
package grammar

import (
	"iter"
	"maps"
	"strings"

	"repro/internal/verilog"
)

// State is one decode's oracle, carried across its steps; between two
// Begins it answers for the step the first opened. The zero State
// holds no text.
type State struct {
	text    string               // the generated text
	lex     verilog.PrefixLex    // frozen tokens, then the last Begin's unfrozen ones
	frozen  int                  // frozen token count
	scan    scanner              // context scan over the frozen tokens
	cps     []verilog.Checkpoint // usable checkpoints, Pos < frozen, ascending
	tail    string               // the text after the last frozen token
	probe   verilog.PrefixLex    // a probe's tail tokens
	toks    []verilog.Token      // a probe's stream from its checkpoint
	enabled bool                 // the text is a viable prefix; else Check passes everything and Constructs proposes nothing
	ctx     Context              // partial-parse context scanned from every complete token
	memo    map[string]verilog.PrefixStatus
}

// Begin builds the oracle for one decoding step over a fresh State.
func Begin(base string) *State { return new(State).Begin(base) }

// Begin opens the oracle for one decoding step. base is the generated
// text so far — everything after the prompt, including tokens already
// accepted this step — as decoded cleaned code. A base that does not
// extend the last one starts the state over.
func (s *State) Begin(base string) *State {
	if !strings.HasPrefix(base, s.text) {
		s.frozen, s.cps, s.scan = 0, s.cps[:0], scanner{}
	}
	s.text = base
	return s.open()
}

// open lexes the text after the last frozen token, freezes what is
// settled, re-parses from the latest checkpoint and opens the step.
func (s *State) open() *State {
	// Lexing resumes at the last frozen token, whose start position is
	// known, and freezes it again.
	n, from, line, col := max(s.frozen-1, 0), 0, 1, 1
	if n < s.frozen {
		t := s.lex.Toks[n]
		from, line, col = t.Off, t.Line, t.Col
	}
	pl := &s.lex
	pl.Toks, pl.Ends = pl.Toks[:n], pl.Ends[:n]
	src := strings.Clone(s.text[from:]) // the frozen tokens keep no step's whole text alive
	pl.LexAt(src, from, line, col)
	complete, freeze := len(pl.Toks), len(pl.Toks)
	if pl.Err == nil && complete > s.frozen && pl.OpenSeam(len(s.text)) {
		// The extension's first bytes may grow the final token: keep it
		// in the re-lexed tail, not the frozen stream.
		freeze--
	}
	for _, t := range pl.Toks[s.frozen:freeze] {
		s.scan.step(t)
	}
	s.frozen = freeze
	// Probes re-lex from the last frozen token's end, not the text's: a
	// trailing comment or unfinished token re-lexes with the probe.
	s.tail = src
	if freeze > 0 {
		s.tail = src[pl.Ends[freeze-1]-from:]
	}
	s.enabled, s.ctx = false, Context{}
	if s.memo == nil {
		s.memo = map[string]verilog.PrefixStatus{}
	}
	clear(s.memo)
	if pl.Err != nil {
		return s // unlexable beyond repair: disabled, passes everything
	}
	cp := s.checkpoint()
	if verilog.ResumePrefix(cp, pl.Toks[cp.Pos:freeze], true, false, &s.cps, freeze) == verilog.PrefixInvalid {
		return s // base already doomed: disabled
	}
	s.enabled = true
	// Constructs condition on every complete token — including a final
	// extendable one the Check seam keeps out of the frozen stream (a
	// base ending exactly at "always" should still draft its
	// sensitivity list; Check re-validates each proposal through the
	// seam anyway). The scan itself advances over frozen tokens only.
	sc := s.scan
	if freeze < complete {
		sc.step(pl.Toks[freeze])
	}
	s.ctx = sc.context()
	return s
}

// checkpoint is the latest usable checkpoint.
func (s *State) checkpoint() verilog.Checkpoint {
	if n := len(s.cps); n > 0 {
		return s.cps[n-1]
	}
	return verilog.Checkpoint{}
}

// Check classifies base+ext as a prefix of a parsable source file,
// re-lexing only the unstable tail plus ext. Results are memoized per
// extension. A disabled step reports every extension Valid.
func (s *State) Check(ext string) verilog.PrefixStatus {
	if !s.enabled {
		return verilog.PrefixValid
	}
	if st, ok := s.memo[ext]; ok {
		return st
	}
	st := s.check(ext)
	s.memo[ext] = st
	return st
}

// Probes yields every extension this step has classified, with its
// status, in no particular order.
func (s *State) Probes() iter.Seq2[string, verilog.PrefixStatus] { return maps.All(s.memo) }

func (s *State) check(ext string) verilog.PrefixStatus {
	tail := s.tail + ext
	pl := &s.probe
	pl.Toks, pl.Ends = pl.Toks[:0], pl.Ends[:0]
	pl.LexAt(tail, 0, 1, 1)
	if pl.Err != nil {
		return verilog.PrefixInvalid
	}
	cp := s.checkpoint()
	toks := append(s.toks[:0], s.lex.Toks[cp.Pos:s.frozen]...)
	toks = append(toks, pl.Toks...)
	s.toks = toks
	return verilog.ResumePrefix(cp, toks, pl.Pending, pl.OpenSeam(len(tail)), nil, 0)
}
