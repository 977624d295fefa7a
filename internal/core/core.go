// Package core implements the paper's primary contribution: a
// Medusa-style speculative decoder for Verilog whose decoding stops are
// aligned with syntactically significant tokens.
//
// One decoding step is one simulated forward pass (base model + heads).
// The base model's next token is always kept (lossless floor); head
// proposals for offsets t+2..t+n+1 are screened by the typical
// acceptance rule (paper eq. 1)
//
//	p_base(x) > min(ε, δ·exp(−H(p_base)))
//
// evaluated against the base model's distribution with all previously
// accepted tokens in context — the analogue of Medusa's verification
// pass. In "Ours" mode an integrity check then truncates the accepted
// run at the last [FRAG] marker so every decoding step ends on a
// complete syntactic fragment (paper §III-B).
//
// The decoding loop itself is strategy-agnostic: drafting and
// acceptance live behind the Drafter/Verifier interfaces of
// internal/core/spec, and the paper's three methods are rows of its
// registry. Options.Strategy selects any registered pairing by name —
// including self-speculative prompt lookup, which needs no trained
// heads at all, and the tree-drafting lifts (medusa-tree, lookup-tree,
// ours-tree, grammar-tree, grammar-lookup-tree). Every step's draft is
// one spec.Draft, an optional tree plus a chain, screened by one walk
// (accept): the tree in one sweep, the chain adaptively below each
// surviving leaf — or from the root when there is no tree, which is
// linear drafting as the width-1 case of the same walk.
//
// A latency cost model (per-forward-pass milliseconds, calibrated so
// the NTP baselines match the paper's tokens/s) converts step counts
// into the simulated generation speeds reported by the benchmark
// harness; wall-clock throughput of the engine itself is measured
// separately by testing.B benchmarks.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core/spec"
	"repro/internal/core/spec/grammar"
	"repro/internal/core/spec/tree"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// ResolveStrategy resolves a strategy name ("ntp", "medusa", "ours",
// "prompt-lookup", ... or a display name — see spec.Named) to its
// pairing. The paper's "without integrity" ablation is a name too:
// "medusa" is "ours" without the [FRAG] integrity check, decoded on
// whichever model the caller trained.
func ResolveStrategy(name string) (spec.Strategy, error) {
	s, ok := spec.Named(name)
	if !ok {
		return spec.Strategy{}, fmt.Errorf("unknown strategy %q (want one of %v)", name, spec.Names())
	}
	return s, nil
}

// StrategyListing renders the registered decoding strategies as a
// human-readable table — the output behind the CLIs' -list-strategies
// flag, derived from the spec registry so it can never drift from what
// ResolveStrategy accepts.
func StrategyListing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %-13s %-18s %-5s %s\n",
		"name", "display", "drafter", "verifier", "tree", "heads")
	for _, in := range spec.Registered() {
		fmt.Fprintf(&b, "%-14s %-14s %-13s %-18s %-5v %v\n",
			in.Canonical, in.Display, in.Drafter, in.Verifier, in.Tree, in.NeedsHeads)
	}
	return b.String()
}

// Options controls one decode call. Zero values select defaults.
type Options struct {
	// Strategy selects the decoding strategy by name ("ntp", "medusa",
	// "ours", "prompt-lookup"; see spec.Named). Empty selects the
	// model's own method (see ForModel).
	Strategy string
	// Temperature 0 decodes greedily; >0 samples the base token.
	Temperature float64
	// MaxNewTokens bounds generated tokens (default: model MaxTokens).
	MaxNewTokens int
	// TopK is the number of candidate tokens considered per head
	// position (the paper "maintains several candidates comprising the
	// top-k predictions"). Default 3.
	TopK int
	// Epsilon and Delta are the typical-acceptance hyper-parameters of
	// eq. 1 (threshold = min(ε, δ·exp(−H))). Defaults ε=0.3, δ=1.2 are
	// calibrated for the statistical backbone: δ well above Medusa's
	// GPU value keeps the entropy-dependent branch from rubber-stamping
	// drafts in mid-entropy contexts, where an n-gram's backoff mass
	// (unlike an LLM's posterior) inflates junk-token probabilities.
	Epsilon, Delta float64
	// TreeBudget caps draft-tree nodes per decoding step for
	// tree-drafting strategies (medusa-tree, lookup-tree, ours-tree);
	// <= 0 selects spec.DefaultTreeBudget. Linear strategies ignore it.
	TreeBudget int
	// Seed drives the sampling RNG; decodes are fully deterministic
	// given (model, prompt, options).
	Seed int64
}

// withDefaults fills every unset knob the decoder defaults, the
// strategy and the token budget from the model.
func (o Options) withDefaults(m *model.Model) Options {
	o = o.ForModel(m)
	if o.MaxNewTokens == 0 {
		o.MaxNewTokens = m.Config().MaxTokens
	}
	return o.knobDefaults()
}

// ForModel resolves an empty Strategy to the method m was trained for,
// as the paper's Table II pairs them: an NTP model decodes with "ntp",
// a Medusa model with "medusa", an Ours model (mask ablation included)
// with "ours". A named strategy is kept as it is. This is the one place
// a default strategy is stated; the decoder and the serving engine's
// cache key both apply it.
func (o Options) ForModel(m *model.Model) Options {
	if o.Strategy != "" {
		return o
	}
	switch m.Scheme() {
	case model.SchemeMedusa:
		o.Strategy = "medusa"
	case model.SchemeOurs, model.SchemeOursNoMask:
		o.Strategy = "ours"
	default:
		o.Strategy = "ntp"
	}
	return o
}

// knobDefaults fills the model-independent defaults. Each is stated
// here once: withDefaults decodes with them and Canonical folds them.
func (o Options) knobDefaults() Options {
	if o.TopK == 0 {
		o.TopK = 3
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.3
	}
	if o.Delta == 0 {
		o.Delta = 1.2
	}
	if o.TreeBudget <= 0 {
		o.TreeBudget = spec.DefaultTreeBudget
	}
	return o
}

// StrategyLabel returns the canonical display name of the strategy
// these options select ("NTP", "Medusa", "Ours", "PromptLookup") —
// the key serving metrics and benchmark tables group by. An unknown
// (or empty) Strategy name is returned verbatim so the error stays
// visible.
func (o Options) StrategyLabel() string {
	if s, ok := spec.Named(o.Strategy); ok {
		return s.Name
	}
	return o.Strategy
}

// Canonical rewrites the options so equivalent decodes compare equal:
// the strategy is expressed by its canonical display name (both of its
// spellings, in any case, collapse onto it), unset knobs take the
// defaults the decoder would apply, and a knob the strategy ignores —
// TreeBudget without a tree drafter — is zeroed. Decoding behaviour is
// unchanged — the serving layer canonicalizes before using Options as
// a cache key so "prompt-lookup" and "PromptLookup" (or top_k 3 and no
// top_k) share one entry. An empty strategy names no model's method
// yet (resolve it with ForModel first); it and unknown names pass
// through untouched, and an unknown one fails at decode time.
func (o Options) Canonical() Options {
	s, ok := spec.Named(o.Strategy)
	if !ok {
		return o
	}
	o = o.knobDefaults()
	o.Strategy = s.Name
	if !spec.IsTree(s.Drafter) {
		o.TreeBudget = 0
	}
	return o
}

// Result describes one completed generation.
type Result struct {
	// Tokens is the raw generated sequence (may contain [FRAG]).
	Tokens []int
	// CleanTokens is Tokens with special markers removed — the paper's
	// "cleaned code", and the length used in the speed formula (eq. 3).
	CleanTokens []int
	// Text is the decoded cleaned code.
	Text string
	// Steps is the number of forward passes (decoding steps).
	Steps int
	// SimulatedMS is the cost-model inference time.
	SimulatedMS float64
	// AcceptedPerStep records how many tokens each step emitted
	// (including the base token), before integrity truncation is
	// reported separately via TruncatedTokens.
	AcceptedPerStep []int
	// TruncatedTokens counts draft tokens discarded by the integrity
	// check over the whole decode.
	TruncatedTokens int
	// TreeNodes totals the draft-tree nodes proposed across all steps
	// (zero for linear strategies). With TreeBudget it yields the
	// node-budget utilization serving metrics report.
	TreeNodes int
	// TreeBudget totals the per-step node budget across the steps of a
	// tree-drafting decode (steps × Options.TreeBudget; zero for linear
	// strategies) — the utilization denominator.
	TreeBudget int
	// GrammarPruned totals the draft nodes the grammar oracle withheld
	// across the decode (zero for non-grammar strategies).
	GrammarPruned int
	// GrammarDraftTokens totals the draft nodes contributed by
	// synthesized grammar constructs across the decode.
	GrammarDraftTokens int
	// HeadCalls totals the head distributions built across the decode.
	// A step builds only the heads its drafter reads, so this is at
	// most Steps × the model's head count (zero for headless
	// strategies).
	HeadCalls int
}

// TokensPerSecond returns the simulated generation speed for this
// result (eq. 3 numerator/denominator for a single output).
func (r *Result) TokensPerSecond() float64 {
	if r.SimulatedMS <= 0 {
		return 0
	}
	return float64(len(r.CleanTokens)) / (r.SimulatedMS / 1000)
}

// MeanAccepted returns the average tokens emitted per decoding step.
func (r *Result) MeanAccepted() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(len(r.Tokens)) / float64(r.Steps)
}

// TreeUtilization returns the fraction of the draft-tree node budget
// actually proposed across the decode (0 for linear strategies).
func (r *Result) TreeUtilization() float64 {
	if r.TreeBudget == 0 {
		return 0
	}
	return float64(r.TreeNodes) / float64(r.TreeBudget)
}

// noRepeatN is the no-repeat-ngram window (in clean tokens): a token
// that would complete a clean n-gram already present in the generated
// region is demoted. RTL legitimately repeats long runs (case arms,
// port lists), so the window is wide; it exists to break exact line
// cycles, the canonical degeneracy of footgun samplers.
const noRepeatN = 10

// StepEvent describes one completed decoding step as it happens —
// the unit of streaming for the serving layer. Tokens are the ids
// actually appended to the sequence this step (after acceptance
// screening, integrity truncation and budget clipping); Text is their
// cleaned decoding (special markers stripped), which for the "ours"
// strategy is a run of complete syntactic fragments.
type StepEvent struct {
	// Step is the 1-based forward-pass index.
	Step int
	// Tokens are the raw ids emitted this step (may include [FRAG]).
	Tokens []int
	// Text is the cleaned text of this step's tokens.
	Text string
}

// StepFn observes decoding steps. It is called synchronously from the
// decoding loop, so a slow callback slows generation (the serving layer
// relies on this for flow control).
type StepFn func(StepEvent)

// Decoder generates Verilog from a trained model.
//
// A Decoder is stateless: all per-decode state (RNG, generation
// session, repetition tracker) lives on the stack of each call, so a
// single Decoder — or many Decoders sharing one Model — may decode
// concurrently. An optional model.TrieCache (WithSessionCache) shares
// prompt-derived session state across decodes: identical prompts reuse
// one session and prompts sharing a token prefix fork it mid-prompt.
// Gen values are immutable after construction and a forked session
// equals a fresh build, so the cache changes nothing about outputs.
type Decoder struct {
	m        *model.Model
	sessions *model.TrieCache // nil: every decode prepares its own session
}

// repWindow holds the last noRepeatN−1 clean tokens, oldest first; n
// counts how many are filled. It is a value, so a probe that extends the
// history hypothetically is a copy on the stack.
type repWindow struct {
	toks [noRepeatN - 1]int
	n    int
}

// push slides id into the window.
func (w *repWindow) push(id int) {
	if w.n < len(w.toks) {
		w.toks[w.n] = id
		w.n++
		return
	}
	copy(w.toks[:], w.toks[1:])
	w.toks[len(w.toks)-1] = id
}

// gram hashes the n-gram the window completes with id (FNV-1a), or
// reports false while the window is not yet full.
func (w *repWindow) gram(id int) (uint64, bool) {
	if w.n < len(w.toks) {
		return 0, false
	}
	h := uint64(14695981039346656037)
	for _, t := range w.toks {
		h ^= uint64(t)
		h *= 1099511628211
	}
	h ^= uint64(id)
	h *= 1099511628211
	return h, true
}

// repState tracks generated clean-token n-grams for the no-repeat rule.
type repState struct {
	win  repWindow
	seen map[uint64]bool
}

// wouldRepeat reports whether appending id creates a duplicate n-gram.
func (r *repState) wouldRepeat(id int) bool { return r.repeatsAfter(&r.win, id) }

// repeatsAfter reports whether id, following the window w (the history
// plus tokens not yet pushed), completes an n-gram already generated.
func (r *repState) repeatsAfter(w *repWindow, id int) bool {
	h, ok := w.gram(id)
	return ok && r.seen[h]
}

// push records a clean token.
func (r *repState) push(id int) {
	if h, ok := r.win.gram(id); ok {
		r.seen[h] = true
	}
	r.win.push(id)
}

// NewDecoder wraps a model for decoding.
func NewDecoder(m *model.Model) *Decoder { return &Decoder{m: m} }

// WithSessionCache attaches a shared prompt-state cache: decodes of a
// prompt already seen (by any decoder sharing the cache) reuse its
// prepared generation session instead of re-deriving keyword seeds,
// copy sets and code-line marks, and decodes of a prompt sharing a
// token prefix with an earlier one fork the cached prefix session and
// prepare only the suffix. nil detaches it. Returns the decoder for
// chaining.
func (d *Decoder) WithSessionCache(c *model.TrieCache) *Decoder {
	d.sessions = c
	return d
}

// Generate produces a completion for a natural-language description.
// The prompt is wrapped in the same Alpaca-style template used in
// training, and the decode runs to completion on the background
// context: BeginDecode, Step until done, Finish. It panics on an
// unknown Options.Strategy name — the only error the background
// context can produce — so the error-less convenience API cannot
// silently return an empty Result; BeginDecode, the one entry that
// takes a context or a StepFn, returns the error instead.
func (d *Decoder) Generate(desc string, opts Options) *Result {
	st, err := d.BeginDecode(context.Background(), model.CanonicalPromptIDs(d.m.Tokenizer(), desc), opts, nil)
	if err != nil {
		panic(err)
	}
	for !st.Step() {
	}
	res, _ := st.Finish() // the background context is never cancelled
	return res
}

// sampleBase draws the base token (greedy at temperature 0), demoting
// candidates that would complete a repeated n-gram. weights is the
// decode's sampling scratch.
func (d *Decoder) sampleBase(dist model.Dist, opts Options, rng *rand.Rand, rep *repState, weights *[]float64) int {
	pick := func() int {
		if opts.Temperature <= 0 {
			return dist.Argmax()
		}
		return dist.Sample(opts.Temperature, rng.Float64(), weights)
	}
	id := pick()
	if tokenizer.IsSpecial(id) || !rep.wouldRepeat(id) {
		return id
	}
	// Walk the top candidates for the best non-repeating choice.
	for _, c := range dist.TopK(8) {
		if c == id {
			continue
		}
		if tokenizer.IsSpecial(c) || !rep.wouldRepeat(c) {
			return c
		}
	}
	return id // everything repeats: let it through rather than deadlock
}

// accept runs one step's draft/verify exchange and appends the
// accepted draft tokens to prefix (the tokens accepted so far this
// step, base token first). It also returns the number of tree nodes
// proposed, for the budget-utilization metrics, and the draft's
// grammar stats.
//
// Without a tree the chain is walked from the root — linear drafting:
// each position's candidates are screened against the base posterior
// with everything accepted so far in context (the analogue of Medusa's
// verification pass), and the first outright rejection ends the walk.
// The whole accepted chain is kept.
//
// With a tree, one verification sweep scores it: for every node whose
// ancestry survived, the children are screened (best-first, each on its
// own) against the base posterior conditioned on the root-to-parent
// path, exactly the path each candidate claims to extend. A rejection
// prunes one subtree instead of killing the step. The chain then grows
// below every surviving leaf, so the walk the linear loop would have
// taken is always among the tree's paths. The winning path maximizes
// the verifier's POST-Finalize kept length (first-discovered on ties):
// for plain verifiers that is the deepest accepted root path; under the
// [FRAG] integrity wrapper a deep path ending mid-fragment loses to a
// shallower one ending on a fragment boundary, so tree search composes
// with the paper's §III-B check instead of fighting it. A tree with no
// draft nodes proposes nothing, chain or not.
//
// On real hardware the tree is one batched forward pass over all tree
// positions (tree attention); here rejected subtrees short-circuit,
// which changes nothing about outputs — their scores could only be
// discarded. The simulated cost model charges the step exactly like
// its linear counterpart.
func (d *Decoder) accept(gen *model.Gen, memo *model.Memo, oracle *grammar.State, seq, prefix []int, fw model.Forward, strat spec.Strategy, opts Options, clk *draftClock) ([]int, int, spec.DraftStats) {
	if _, none := strat.Drafter.(spec.NoDraft); none {
		return prefix, 0, spec.DraftStats{} // nothing to draft, nothing to time
	}
	t0 := clk.start()
	dr := strat.Drafter.Draft(spec.DraftCtx{
		Gen:     gen,
		Seq:     seq,
		Prefix:  prefix,
		Forward: fw,
		TopK:    opts.TopK,
		Grammar: oracle,
	}, opts.TreeBudget)
	clk.stop(t0)
	t := dr.Tree
	if t == nil && dr.Chain.Empty() || t != nil && t.DraftNodes() == 0 {
		return prefix, 0, dr.Stats // nothing proposed
	}
	params := spec.VerifyParams{Epsilon: opts.Epsilon, Delta: opts.Delta}
	// ctx is the hypothetical sequence including accepted tokens; walks
	// extend it in its spare capacity, which never disturbs ctx itself.
	ctx := append(append([]int(nil), seq...), prefix...)

	if t == nil {
		// Candidates the verifier rejects never become nodes (they would
		// be dead weight on the serving hot path), so the chain is the
		// whole tree, and its length is bounded by the drafter's.
		t = tree.New(0)
		var buf [16]int
		ids := walkChain(gen, memo, t, tree.Root, ctx, dr.Chain, strat.Verifier, params, clk, buf[:0])
		if len(ids) == 0 {
			return prefix, 0, dr.Stats
		}
		return t.PathTokens(ids[len(ids)-1], prefix), 0, dr.Stats
	}

	// Sweep the static tree: accepted nodes in discovery order, leaves
	// (accepted nodes with no accepted children) remembered for the
	// chain.
	accepted := []int{}
	var leaves []int
	queue := []int{tree.Root}
	var kids, path []int
	cand := []int{0} // the child being screened
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		kept := 0
		if n == tree.Root || t.Node(n).Token != tokenizer.EosID {
			kids = t.Children(n, kids[:0])
		} else {
			kids = kids[:0] // nothing extends past <eos>
		}
		if len(kids) > 0 {
			// One verification distribution per surviving parent: the
			// base posterior after the path its children would extend.
			path = t.PathTokens(n, path[:0])
			ver := gen.BaseDistMemo(append(ctx, path...), memo)
			for _, c := range kids {
				cand[0] = t.Node(c).Token
				if strat.Verifier.Accept(ver, cand, params) < 0 {
					continue
				}
				kept++
				accepted = append(accepted, c)
				queue = append(queue, c)
			}
		}
		if n != tree.Root && kept == 0 {
			leaves = append(leaves, n)
		}
	}

	if !dr.Chain.Empty() {
		for _, leaf := range leaves {
			if t.Node(leaf).Token != tokenizer.EosID {
				accepted = walkChain(gen, memo, t, leaf, t.PathTokens(leaf, ctx), dr.Chain, strat.Verifier, params, clk, accepted)
			}
		}
	}

	// Pick the path whose finalized run keeps the most tokens.
	best := tree.Root
	bestKept := finalizedLen(strat.Verifier, prefix, nil)
	for _, n := range accepted {
		path = t.PathTokens(n, path[:0])
		if kept := finalizedLen(strat.Verifier, prefix, path); kept > bestKept {
			best, bestKept = n, kept
		}
	}
	return t.PathTokens(best, prefix), t.DraftNodes(), dr.Stats
}

// walkChain is the adaptive chain walk: starting below node from, whose
// context (sequence, accepted prefix and root path) is walk, it screens
// the chain's candidates for each next position against the base
// posterior, adds the verifier's choice to the tree, and ends at the
// first rejection, <eos>, an exhausted chain or a full tree. The
// accepted node ids are appended to out. Reading a position's
// candidates may build a head: that is drafting, on clk.
func walkChain(gen *model.Gen, memo *model.Memo, t *tree.Tree, from int, walk []int, chain spec.Chain, v spec.Verifier, params spec.VerifyParams, clk *draftClock, out []int) []int {
	for cur := from; ; {
		t0 := clk.start()
		cands := chain.Candidates(t.Depth(cur))
		clk.stop(t0)
		if len(cands) == 0 {
			return out
		}
		choice := v.Accept(gen.BaseDistMemo(walk, memo), cands, params)
		if choice < 0 {
			return out
		}
		if cur, _ = t.Add(cur, choice, tree.OriginLinear); cur < 0 {
			return out // budget exhausted
		}
		out = append(out, cur)
		walk = append(walk, choice)
		if choice == tokenizer.EosID {
			return out
		}
	}
}

// draftClock sums the wall time one traced step spends drafting: the
// drafter's Draft call and every read of the chain's candidates, which
// builds the heads the walk reaches. A nil clock (an untraced decode)
// reads no time at all.
type draftClock struct{ d time.Duration }

func (c *draftClock) start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

func (c *draftClock) stop(t0 time.Time) {
	if c != nil {
		c.d += time.Since(t0)
	}
}

// finalizedLen probes how many tokens the verifier's Finalize keeps of
// prefix+path — the tree walk's path-selection score.
func finalizedLen(v spec.Verifier, prefix, path []int) int {
	run := make([]int, 0, len(prefix)+len(path))
	run = append(run, prefix...)
	run = append(run, path...)
	kept, _ := v.Finalize(run)
	return len(kept)
}

// stepCostMS is the simulated cost of one forward pass under the given
// strategy: the backbone, plus every head's cost when the drafter
// consumes heads (Medusa-style drafting; NTP and self-speculative
// lookup add nothing). Exposed for the cost-model tests.
func (d *Decoder) stepCostMS(strat spec.Strategy) float64 {
	cfg := d.m.Config()
	if !strat.Drafter.NeedsHeads() {
		return cfg.StepLatencyMS
	}
	// The conversion rounds the head cost before the sum, so no platform
	// fuses a multiply-add and SimulatedMS stays bit-identical everywhere.
	heads := float64(float64(d.m.NumHeads()) * cfg.HeadLatencyMS)
	return cfg.StepLatencyMS + heads
}

// stripSpecials removes all reserved special tokens from ids.
func stripSpecials(ids []int) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if tokenizer.IsSpecial(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}
