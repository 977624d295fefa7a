package core

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core/spec"
	"repro/internal/core/spec/grammar"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// This file is the step-wise decode API: the decoding loop, exposed one
// verification sweep at a time so an external scheduler can interleave
// many decodes — step every in-flight request once, retire the
// finished, admit the queued into the freed slots — instead of
// dedicating a goroutine to each from start to finish. All
// loop state lives in the DecodeState, including its own immutable
// session (*Gen) and the Memo of what its model calls computed, so a
// decode can sit unstepped for any number of sweeps and continue with
// byte-identical output: the sequence of (Forward, sample, accept,
// finalize) operations is exactly the one the monolithic loop would
// have run, however the steps of many decodes interleave. Generate
// itself is just BeginDecode + Step-to-completion + Finish, which makes
// that identity true by construction rather than by test alone (the
// interleaving differential gate in internal/experiments pins it
// anyway).

// DecodeState is one in-flight decode. Create with Decoder.BeginDecode,
// advance with Step until it reports completion, collect with Finish.
// It holds its prompt session for its whole life, so eviction from the
// session cache never touches it. A DecodeState is not safe for
// concurrent use; the scheduler steps each state from one goroutine at
// a time.
type DecodeState struct {
	d      *Decoder
	ctx    context.Context
	opts   Options
	strat  spec.Strategy
	onStep StepFn
	rng    *rand.Rand
	gen    *model.Gen
	// memo is what this decode's model calls already computed (nil
	// once finished); weights is its sampling scratch; oracle is its
	// syntax oracle, advanced by each step's text (emptied once
	// finished).
	memo    *model.Memo
	weights []float64
	oracle  grammar.State

	seq      []int
	res      *Result
	stepCost float64
	maxLen   int
	tail     string
	rep      repState

	done     bool
	finished bool
	err      error

	// Tracing state: nil when the request context carries no trace, in
	// which case every use below is a single nil check. Draft/verify
	// time is accumulated locally per sweep and folded into the
	// tracer's phase sums once, at Finish; clock is the sweep's draft
	// clock.
	tr       *trace.Trace
	span     *trace.Span
	clock    draftClock
	draftDur time.Duration
	verifDur time.Duration
}

// BeginDecode prepares a resumable decode from explicit prompt token
// ids; it is the one entry into a decode that takes a context (polled
// once per Step: cancellation ends the decode with its partial Result
// and the context's error) or an onStep observer (called after every
// Step with the tokens it emitted; NDJSON streaming is built on it).
// The only error is an unknown Options.Strategy name. The prompt
// session is prepared (or taken from the session cache) immediately,
// so the first Step pays no preparation cost.
func (d *Decoder) BeginDecode(ctx context.Context, promptIDs []int, opts Options, onStep StepFn) (*DecodeState, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults(d.m)
	strat, err := ResolveStrategy(opts.Strategy)
	if err != nil {
		return nil, err
	}
	s := &DecodeState{
		d:        d,
		ctx:      ctx,
		opts:     opts,
		strat:    strat,
		onStep:   onStep,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		seq:      append([]int(nil), promptIDs...),
		res:      &Result{},
		stepCost: d.stepCostMS(strat),
		rep:      repState{seen: map[uint64]bool{}},
		memo:     new(model.Memo),
	}
	s.memo.NextStep(s.seq)
	if tr := trace.FromContext(ctx); tr != nil {
		s.tr = tr
		s.span = tr.Start(trace.SpanFromContext(ctx), trace.KindDecode, opts.Strategy)
		prep := tr.Start(s.span, trace.KindSessionPrep, "")
		var depth int
		s.gen, depth = d.sessionGen(promptIDs)
		prep.SetAttrInt("prompt_tokens", int64(len(promptIDs)))
		if d.sessions != nil {
			prep.SetAttrInt("trie_hit_depth", int64(depth))
		}
		prep.End()
	} else {
		s.gen, _ = d.sessionGen(promptIDs)
	}
	s.maxLen = len(promptIDs) + opts.MaxNewTokens
	if cfgMax := d.m.Config().MaxTokens; s.maxLen > cfgMax+len(promptIDs) {
		s.maxLen = cfgMax + len(promptIDs)
	}
	return s, nil
}

// budgetLeft reports whether the decode may emit more tokens.
func (s *DecodeState) budgetLeft() bool {
	return len(s.seq) < s.maxLen && len(s.res.Tokens) < s.opts.MaxNewTokens
}

// Step runs one verification sweep — one simulated forward pass with
// drafting, acceptance screening and finalization — and reports
// whether the decode is complete (end token, budget exhausted, or
// context cancelled). After Step returns true, Finish collects the
// Result; further Steps are no-ops.
func (s *DecodeState) Step() bool {
	if s.done || s.finished || !s.budgetLeft() {
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		s.done = true
		return true
	}
	d, gen, opts, res, tk := s.d, s.gen, s.opts, s.res, s.d.m.Tokenizer()

	// A traced sweep splits its model work in two: drafting (the
	// drafter's Draft and every head it builds, on the draft clock) and
	// verification (the base posterior, every per-position posterior
	// and the rest of the exchange).
	var sweep *trace.Span
	var clk *draftClock
	var phaseT0 time.Time
	if s.tr != nil {
		sweep = s.tr.Start(s.span, trace.KindSweep, "")
		s.clock = draftClock{}
		clk = &s.clock
		phaseT0 = time.Now()
	}

	// Strategies that do not draft from heads (NTP, prompt lookup) get a
	// base-only pass; the others get heads built as the drafter reads
	// them.
	var fw model.Forward
	if s.strat.Drafter.NeedsHeads() {
		fw = gen.ForwardMemo(s.seq, s.memo)
	} else {
		fw = model.Forward{Base: gen.BaseDistMemo(s.seq, s.memo)}
	}
	res.Steps++
	res.SimulatedMS += s.stepCost

	// The base model's own prediction is always kept.
	base := d.sampleBase(fw.Base, opts, s.rng, &s.rep, &s.weights)
	accepted := []int{base}

	prunedBefore := res.GrammarPruned
	if base != tokenizer.EosID {
		var nodes int
		var gs spec.DraftStats
		accepted, nodes, gs = d.accept(gen, s.memo, &s.oracle, s.seq, accepted, fw, s.strat, opts, clk)
		res.TreeNodes += nodes
		res.GrammarPruned += gs.PrunedNodes
		res.GrammarDraftTokens += gs.GrammarTokens
		if spec.IsTree(s.strat.Drafter) {
			res.TreeBudget += opts.TreeBudget
		}
	}
	heads := fw.HeadCalls()
	res.HeadCalls += heads
	if sweep != nil {
		draft := clk.d
		verif := time.Since(phaseT0) - draft
		s.draftDur += draft
		s.verifDur += verif
		sweep.SetAttrInt("verify_us", verif.Microseconds())
		sweep.SetAttrInt("draft_us", draft.Microseconds())
		if heads > 0 {
			sweep.SetAttrInt("head_calls", int64(heads))
		}
		if pruned := res.GrammarPruned - prunedBefore; pruned > 0 {
			sweep.SetAttrInt("grammar_pruned", int64(pruned))
		}
	}
	// Drafts that would extend a repeated n-gram are cut too.
	probe := s.rep.win
	for i, id := range accepted {
		if tokenizer.IsSpecial(id) {
			continue
		}
		if i > 0 && s.rep.repeatsAfter(&probe, id) {
			accepted = accepted[:i]
			break
		}
		probe.push(id)
	}

	// Finalize the accepted run (the [FRAG] integrity truncation of
	// paper §III-B, when the verifier carries it).
	kept, truncated := s.strat.Verifier.Finalize(accepted)
	res.TruncatedTokens += truncated
	accepted = kept

	emittedAt := len(res.Tokens)
	for _, id := range accepted {
		if id == tokenizer.EosID {
			s.done = true
			break
		}
		s.seq = append(s.seq, id)
		res.Tokens = append(res.Tokens, id)
		if !tokenizer.IsSpecial(id) {
			s.rep.push(id)
			s.tail += tk.Token(id)
			if len(s.tail) > 32 {
				s.tail = s.tail[len(s.tail)-32:]
			}
			// Generation is one module per prompt: stop after
			// endmodule (the trained <eos> usually follows, but a
			// derailed tail must not burn the token budget).
			if strings.Contains(s.tail, "endmodule") {
				s.done = true
				break
			}
		}
		if len(res.Tokens) >= opts.MaxNewTokens {
			break
		}
	}
	res.AcceptedPerStep = append(res.AcceptedPerStep, len(accepted))
	s.memo.NextStep(s.seq)
	if sweep != nil {
		sweep.SetAttrInt("accepted", int64(len(accepted)))
		sweep.End()
	}
	if s.onStep != nil {
		step := res.Tokens[emittedAt:]
		s.onStep(StepEvent{Step: res.Steps, Tokens: step, Text: tk.DecodeClean(step)})
	}
	return s.done || !s.budgetLeft()
}

// Finish seals the decode and returns its Result — partial, with the
// context's error, when a Step observed cancellation. Finish is
// idempotent.
func (s *DecodeState) Finish() (*Result, error) {
	if !s.finished {
		s.finished = true
		s.memo, s.weights, s.oracle = nil, nil, grammar.State{}
		s.res.CleanTokens = stripSpecials(s.res.Tokens)
		s.res.Text = s.d.m.Tokenizer().DecodeClean(s.res.Tokens)
		if s.span != nil {
			s.span.SetAttrInt("sweeps", int64(s.res.Steps))
			s.span.SetAttrInt("tokens", int64(len(s.res.Tokens)))
			if s.res.GrammarPruned > 0 {
				s.span.SetAttrInt("grammar_pruned", int64(s.res.GrammarPruned))
			}
			if s.err != nil {
				s.span.SetAttr("error", s.err.Error())
			}
			s.span.End()
			s.tr.AddPhase(trace.KindDraft, s.draftDur)
			s.tr.AddPhase(trace.KindVerify, s.verifDur)
		}
	}
	return s.res, s.err
}

// TraceSpan exposes the decode's span (nil when untraced) so the
// scheduler can close it for a decode that faulted before Finish.
func (s *DecodeState) TraceSpan() *trace.Span { return s.span }

// sessionGen prepares the prompt session, through the session cache
// when one is attached, and reports how many leading prompt tokens the
// cache already held (0 without a cache).
func (d *Decoder) sessionGen(promptIDs []int) (*model.Gen, int) {
	if d.sessions != nil {
		return d.sessions.GenDepth(d.m, promptIDs)
	}
	return d.m.NewGen(promptIDs), 0
}
