// Package grammar is the incremental Verilog syntax oracle behind
// grammar-constrained drafting: per decoding step it classifies draft
// continuations of the generated-so-far text as viable or doomed
// (verilog.CheckPrefix semantics) without re-lexing the whole base on
// every probe, and synthesizes whole idiomatic constructs — sensitivity
// lists, always-block skeletons, end/endmodule closer chains, port-list
// continuations — conditioned on the partial parse context.
//
// A Step is created once per decoding step from the text decoded so
// far (prompt excluded). Begin lexes that base once and freezes the
// stable token stream: every complete token except a final one that
// touches the end of the text and could still grow ("alw" → "always").
// Check(ext) then re-lexes only the unstable tail plus the probe
// extension — O(|ext|) per probe instead of O(|base|+|ext|) — and runs
// the prefix-parsability check over stable tokens + tail tokens. The
// result is memoized per extension, since tree drafters probe the same
// path prefixes repeatedly.
//
// The oracle only ever prunes on PrefixInvalid, inheriting the prefix
// layer's leniency guarantee: a branch the model is entitled to take is
// never condemned. When the base itself cannot be classified (the model
// emitted something unlexable, or the stream is already doomed), the
// Step disables itself and Check passes everything — grammar drafting
// degrades to plain drafting rather than fighting the decode.
//
// A Step is NOT safe for concurrent use; it is per-step, per-request
// scratch state.
package grammar

import "repro/internal/verilog"

// Step is one decoding step's oracle state over a fixed base text.
type Step struct {
	base      string
	tailStart int // byte offset the unstable tail begins at
	stable    []verilog.Token
	enabled   bool    // base is a viable prefix; else Check passes everything and Constructs proposes nothing
	ctx       Context // partial-parse context scanned from the stable tokens
	memo      map[string]verilog.PrefixStatus
	scratch   []verilog.Token
}

// Begin builds the oracle for one decoding step. base is the generated
// text so far — everything after the prompt, including tokens already
// accepted this step — as decoded cleaned code.
func Begin(base string) *Step {
	s := &Step{base: base, memo: map[string]verilog.PrefixStatus{}}
	pl := verilog.LexPrefix(base)
	if pl.Err != nil {
		return s // unlexable beyond repair: disabled, passes everything
	}
	toks, ends := pl.Toks, pl.Ends
	if pl.OpenSeam(len(base)) {
		// The extension's first bytes may grow the final token: keep it
		// in the re-lexed tail, not the frozen stream.
		toks, ends = toks[:len(toks)-1], ends[:len(ends)-1]
	}
	s.stable = toks
	if n := len(ends); n > 0 {
		// Resume from the last stable token's end, not len(base): a
		// trailing comment or unfinished token re-lexes with the probe.
		s.tailStart = ends[n-1]
	}
	if verilog.CheckTokenPrefix(s.stable, true) == verilog.PrefixInvalid {
		return s // base already doomed: disabled
	}
	s.enabled = true
	// Constructs condition on every complete token — including a final
	// extendable one the Check seam keeps out of the frozen stream (a
	// base ending exactly at "always" should still draft its
	// sensitivity list; Check re-validates each proposal through the
	// seam anyway).
	s.ctx = scanContext(pl.Toks)
	return s
}

// Check classifies base+ext as a prefix of a parsable source file,
// re-lexing only the unstable tail plus ext. Results are memoized per
// extension. A disabled Step reports every extension Valid.
func (s *Step) Check(ext string) verilog.PrefixStatus {
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

func (s *Step) check(ext string) verilog.PrefixStatus {
	tail := s.base[s.tailStart:] + ext
	pl := verilog.LexPrefix(tail)
	if pl.Err != nil {
		return verilog.PrefixInvalid
	}
	toks := append(s.scratch[:0], s.stable...)
	toks = append(toks, pl.Toks...)
	s.scratch = toks
	st := verilog.CheckTokenPrefix(toks, pl.Pending)
	if st == verilog.PrefixInvalid && pl.OpenSeam(len(tail)) {
		st = verilog.CheckTokenPrefix(toks[:len(toks)-1], true)
	}
	return st
}
