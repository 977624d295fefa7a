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
// internal/core/spec, and the paper's three methods are canned pairings
// in its registry. Options.Strategy selects any registered pairing by
// name — including self-speculative prompt lookup, which needs no
// trained heads at all, and the tree-drafting lifts (medusa-tree,
// lookup-tree, ours-tree), whose branching draft trees are verified in
// one pass per step with the deepest surviving root path accepted
// (acceptTree); linear drafting is the width-1 special case of the
// same walk (acceptDrafts).
//
// A latency cost model (per-forward-pass milliseconds, calibrated so
// the NTP baselines match the paper's tokens/s) converts step counts
// into the simulated generation speeds reported by the benchmark
// harness; wall-clock throughput of the engine itself is measured
// separately by testing.B benchmarks.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core/spec"
	"repro/internal/core/spec/tree"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// ResolveStrategy resolves a strategy name ("ntp", "medusa", "ours",
// "prompt-lookup" or an alias — see spec.Named) to its pairing,
// honouring the integrity ablation for strategies that carry the check.
func ResolveStrategy(name string, disableIntegrity bool) (spec.Strategy, error) {
	s, ok := spec.Named(name)
	if !ok {
		return spec.Strategy{}, fmt.Errorf("unknown strategy %q (want one of %v)", name, spec.Names())
	}
	if disableIntegrity {
		s = spec.WithoutIntegrity(s)
	}
	return s, nil
}

// StrategyListing renders the registered decoding strategies as a
// human-readable table — the output behind the CLIs' -list-strategies
// flag, derived from the spec registry so it can never drift from what
// ResolveStrategy accepts.
func StrategyListing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %-13s %-18s %-5s %-6s %s\n",
		"name", "display", "drafter", "verifier", "tree", "heads", "aliases")
	for _, in := range spec.Registered() {
		fmt.Fprintf(&b, "%-14s %-14s %-13s %-18s %-5v %-6v %s\n",
			in.Canonical, in.Display, in.Drafter, in.Verifier, in.Tree, in.NeedsHeads,
			strings.Join(in.Aliases, ", "))
	}
	return b.String()
}

// Options controls one decode call. Zero values select defaults.
type Options struct {
	// Strategy selects the decoding strategy by name ("ntp", "medusa",
	// "ours", "prompt-lookup"; see spec.Named). Empty selects "ntp".
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
	// DisableIntegrity ablates the [FRAG] integrity check of the
	// strategies that carry it (used by the ablation benchmarks).
	DisableIntegrity bool
	// Seed drives the sampling RNG; decodes are fully deterministic
	// given (model, prompt, options).
	Seed int64
}

func (o Options) withDefaults(m *model.Model) Options {
	if o.MaxNewTokens == 0 {
		o.MaxNewTokens = m.Config().MaxTokens
	}
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

// strategyName is the name the options select: Strategy, or "ntp" when
// it is empty.
func (o Options) strategyName() string { return cmp.Or(o.Strategy, "ntp") }

// StrategyLabel returns the canonical display name of the strategy
// these options select ("NTP", "Medusa", "Ours", "PromptLookup") —
// the key serving metrics and benchmark tables group by. An unknown
// Strategy name is returned verbatim so the error stays visible.
func (o Options) StrategyLabel() string {
	if s, ok := spec.Named(o.strategyName()); ok {
		return s.Name
	}
	return o.Strategy
}

// Canonical rewrites the options so equivalent decodes compare equal:
// the strategy is expressed by its canonical display name (aliases and
// the empty spelling of "ntp" collapse onto it). Decoding behaviour is
// unchanged — the serving layer canonicalizes before using Options as
// a cache or single-flight key so "pl", "prompt-lookup" and
// "PromptLookup" share one entry. Unknown strategy names pass through
// untouched and fail at decode time as before.
func (o Options) Canonical() Options {
	if s, ok := spec.Named(o.strategyName()); ok {
		o.Strategy = s.Name
		// TreeBudget canonicalizes too, so requests that decode
		// identically share one cache entry and one flight: linear
		// strategies ignore the field entirely (zeroed), and for tree
		// strategies an unset budget means exactly the decoder default
		// (see withDefaults).
		if _, isTree := s.Drafter.(spec.TreeDrafter); isTree {
			if o.TreeBudget <= 0 {
				o.TreeBudget = spec.DefaultTreeBudget
			}
		} else {
			o.TreeBudget = 0
		}
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
// concurrently, provided the Model is no longer being trained. An
// optional model.TrieCache (WithSessionCache) shares prompt-derived
// session state across decodes: identical prompts reuse one session
// and prompts sharing a token prefix fork it mid-prompt. Gen values
// are immutable after construction and a forked session equals a
// fresh build, so the cache changes nothing about outputs.
type Decoder struct {
	m        *model.Model
	sessions *model.TrieCache // nil: every decode prepares its own session
}

// repState tracks generated clean-token n-grams for the no-repeat rule.
type repState struct {
	clean []int
	seen  map[uint64]bool
}

func (r *repState) key(last []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range last {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}

// wouldRepeat reports whether appending id creates a duplicate n-gram.
func (r *repState) wouldRepeat(id int) bool {
	if len(r.clean) < noRepeatN-1 {
		return false
	}
	gram := append(append([]int{}, r.clean[len(r.clean)-(noRepeatN-1):]...), id)
	return r.seen[r.key(gram)]
}

// push records a clean token.
func (r *repState) push(id int) {
	r.clean = append(r.clean, id)
	if len(r.clean) >= noRepeatN {
		r.seen[r.key(r.clean[len(r.clean)-noRepeatN:])] = true
	}
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
// training. It panics on an unknown Options.Strategy name — the only
// error the background context can produce — so the error-less
// convenience API cannot silently return an empty Result; use
// GenerateCtx to receive the error instead.
func (d *Decoder) Generate(desc string, opts Options) *Result {
	res, err := d.GenerateCtx(context.Background(), desc, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// GenerateCtx is Generate with cancellation: if ctx is cancelled
// mid-decode the partial Result generated so far is returned together
// with the context's error.
func (d *Decoder) GenerateCtx(ctx context.Context, desc string, opts Options) (*Result, error) {
	return d.GenerateStream(ctx, desc, opts, nil)
}

// GenerateStream is GenerateCtx with per-step observation: onStep (if
// non-nil) is invoked after every decoding step with the tokens that
// step emitted. Serving-layer NDJSON streaming is built on this.
func (d *Decoder) GenerateStream(ctx context.Context, desc string, opts Options, onStep StepFn) (*Result, error) {
	promptIDs := model.CanonicalPromptIDs(d.m.Tokenizer(), desc)
	return d.generate(ctx, promptIDs, opts, onStep)
}

// GenerateFrom decodes starting from explicit prompt token ids. Like
// Generate it panics on an unknown Options.Strategy name.
func (d *Decoder) GenerateFrom(promptIDs []int, opts Options) *Result {
	res, err := d.generate(context.Background(), promptIDs, opts, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// generate is the decoding loop shared by all entry points, expressed
// through the step-wise API: BeginDecode, Step to completion, Finish.
// The loop itself — strategy-agnostic drafting, acceptance screening,
// repetition guard, budget and stop conditions, streaming — lives in
// DecodeState.Step (stepwise.go), so the monolithic path and a
// scheduler driving steps one at a time are the same code and produce
// byte-identical output by construction. The context is polled once
// per forward pass: cancellation surfaces after at most one simulated
// step, with the partial Result intact.
func (d *Decoder) generate(ctx context.Context, promptIDs []int, opts Options, onStep StepFn) (*Result, error) {
	st, err := d.BeginDecode(ctx, promptIDs, opts, onStep)
	if err != nil {
		return &Result{}, err
	}
	for !st.Step() {
	}
	return st.Finish()
}

// sampleBase draws the base token (greedy at temperature 0), demoting
// candidates that would complete a repeated n-gram.
func (d *Decoder) sampleBase(dist model.Dist, opts Options, rng *rand.Rand, rep *repState) int {
	pick := func() int {
		if opts.Temperature <= 0 {
			return dist.Argmax()
		}
		return dist.Sample(opts.Temperature, rng.Float64())
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

// acceptDrafts runs a linear strategy's draft/verify exchange for one
// step as the width-1 special case of the tree walk: each draft
// position's candidates become the children of the single frontier
// node, the verifier picks at most one of them against the base
// model's posterior with all previously accepted tokens in context —
// the analogue of Medusa's verification pass — and the accepted chain
// is the (trivially deepest) root path. The walk ends at the first
// position the verifier rejects outright (the "longest accepted prefix
// among all candidates"). Returned tokens exclude the base token.
func (d *Decoder) acceptDrafts(gen *model.Gen, seq, prefix []int, fw model.Forward, strat spec.Strategy, opts Options) []int {
	src := strat.Drafter.BeginStep(spec.DraftCtx{
		Gen:     gen,
		Seq:     seq,
		Prefix:  prefix,
		Forward: fw,
		TopK:    opts.TopK,
	})
	if src == nil {
		return nil
	}
	params := spec.VerifyParams{Epsilon: opts.Epsilon, Delta: opts.Delta}
	// The accepted chain is the whole tree here: candidates the
	// verifier rejects never become nodes (they would be dead weight on
	// the serving hot path), so each position contributes at most one
	// Add — the width-1 frontier.
	t := tree.New(0) // the chain's length is bounded by the drafter's run
	cur := tree.Root
	// ctx is the hypothetical sequence including accepted tokens.
	ctx := append(append([]int(nil), seq...), prefix...)
	for i := 0; ; i++ {
		cands := src.Candidates(i)
		if len(cands) == 0 {
			break
		}
		// Verification distribution: the base model's posterior at
		// this position given everything accepted so far.
		ver := gen.BaseDist(ctx)
		choice := strat.Verifier.Accept(ver, cands, params)
		if choice < 0 {
			break
		}
		cur, _ = t.Add(cur, choice, tree.OriginLinear)
		ctx = append(ctx, choice)
		if choice == tokenizer.EosID {
			break
		}
	}
	return t.PathTokens(cur, nil)
}

// acceptTree runs a tree strategy's draft/verify exchange for one
// step: the drafter proposes a branching candidate tree, and one
// verification sweep scores it — for every node whose ancestry
// survived, the children are screened (best-first, each on its own)
// against the base model's posterior conditioned on the root-to-parent
// path, exactly the path each candidate claims to extend. A rejection
// prunes one subtree instead of killing the step, which is the whole
// point of drafting a tree. Drafters with position-conditioned
// candidates (spec.ChainExtender: Medusa heads) then grow a chain tail
// below every surviving leaf — the same adaptive longest-prefix walk
// linear drafting runs once, here run once per survivor, so the walk
// the linear loop would have taken is always among the tree's paths.
//
// The winning path maximizes the verifier's POST-Finalize kept length
// (first-discovered on ties): for plain verifiers that is simply the
// deepest accepted root path; under the [FRAG] integrity wrapper a
// deep path ending mid-fragment loses to a shallower one ending on a
// fragment boundary, so tree search composes with the paper's §III-B
// check instead of fighting it.
//
// On real hardware this is one batched forward pass over all tree
// positions (tree attention); here rejected subtrees short-circuit,
// which changes nothing about outputs — their scores could only be
// discarded. The simulated cost model charges the step exactly like
// its linear counterpart. Also returns the number of draft nodes
// proposed, for the budget-utilization metrics, and the grammar draft
// stats when the drafter reports them (spec.StatsTreeDrafter).
func (d *Decoder) acceptTree(gen *model.Gen, seq, prefix []int, fw model.Forward, strat spec.Strategy, td spec.TreeDrafter, opts Options) ([]int, int, spec.DraftStats) {
	dc := spec.DraftCtx{
		Gen:     gen,
		Seq:     seq,
		Prefix:  prefix,
		Forward: fw,
		TopK:    opts.TopK,
	}
	var gs spec.DraftStats
	var t *tree.Tree
	if std, ok := td.(spec.StatsTreeDrafter); ok {
		t, gs = std.BuildTreeStats(dc, opts.TreeBudget)
	} else {
		t = td.BuildTree(dc, opts.TreeBudget)
	}
	if t == nil || t.DraftNodes() == 0 {
		return nil, 0, gs
	}
	params := spec.VerifyParams{Epsilon: opts.Epsilon, Delta: opts.Delta}
	ctx := append(append([]int(nil), seq...), prefix...)

	// Sweep the static tree: accepted nodes in discovery order, leaves
	// (accepted nodes with no accepted children) remembered for the
	// chain tails.
	accepted := []int{}
	var leaves []int
	queue := []int{tree.Root}
	var kids, path []int
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
			ver := gen.BaseDist(append(ctx, path...))
			for _, c := range kids {
				tok := t.Node(c).Token
				if strat.Verifier.Accept(ver, []int{tok}, params) < 0 {
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

	// Grow the adaptive chain tails below every surviving leaf.
	if ext, ok := td.(spec.ChainExtender); ok {
		for _, leaf := range leaves {
			accepted = append(accepted, d.extendChain(gen, t, leaf, ctx, ext, dc, strat, params)...)
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
	return t.PathTokens(best, nil), t.DraftNodes(), gs
}

// extendChain continues drafting below an accepted tree leaf with the
// extender's position-conditioned candidates — the width-1 adaptive
// walk of the linear loop, rooted at the leaf's path. New nodes land
// in the tree (budget permitting) so the node accounting stays honest;
// the accepted chain node ids are returned for path selection.
func (d *Decoder) extendChain(gen *model.Gen, t *tree.Tree, leaf int, ctx []int, ext spec.ChainExtender, dc spec.DraftCtx, strat spec.Strategy, params spec.VerifyParams) []int {
	if t.Node(leaf).Token == tokenizer.EosID {
		return nil
	}
	cur := leaf
	walk := append([]int(nil), ctx...)
	walk = t.PathTokens(cur, walk)
	var out []int
	for depth := t.Depth(cur); ; depth++ {
		cands := ext.Extend(dc, depth)
		if len(cands) == 0 {
			return out
		}
		ver := gen.BaseDist(walk)
		choice := strat.Verifier.Accept(ver, cands, params)
		if choice < 0 {
			return out
		}
		id, _ := t.Add(cur, choice, tree.OriginHead)
		if id < 0 {
			return out // budget exhausted
		}
		cur = id
		out = append(out, id)
		walk = append(walk, choice)
		if choice == tokenizer.EosID {
			return out
		}
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
// strategy: the backbone plus the drafter's extra cost (all heads for
// Medusa-style drafting, nothing for NTP or self-speculative lookup).
// Exposed for the cost-model tests.
func (d *Decoder) stepCostMS(strat spec.Strategy) float64 {
	cfg := d.m.Config()
	return cfg.StepLatencyMS + strat.Drafter.ExtraCostMS(cfg, d.m.NumHeads())
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
