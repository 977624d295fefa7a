// Package spec decomposes speculative decoding into two orthogonal,
// composable pieces:
//
//   - a Drafter proposes one step's Draft for the positions after the
//     base model's own next token: Medusa heads, self-speculative prompt
//     lookup, a branching draft tree, or nothing at all for
//     conventional decoding;
//   - a Verifier screens those proposals against the base model's
//     posterior (typical acceptance, greedy-exact) and finalizes the
//     accepted run (optionally truncating it at the last [FRAG] marker —
//     the paper's integrity check).
//
// A Strategy is one named (Drafter, Verifier) pairing. The paper's three
// decoding modes are registry rows (see Named): NTP = NoDraft, Medusa
// = MedusaHeads × TypicalAcceptance, Ours = MedusaHeads ×
// Integrity(TypicalAcceptance). New strategies compose without touching
// the decoding loop in internal/core — PromptLookup is the first:
// a drafter that needs no trained heads at all.
//
// A Draft is an optional tree plus a chain. The tree (over the arena in
// internal/core/spec/tree) fans top-k candidates out per position, so
// one verification sweep screens every branch and a rejection prunes a
// subtree instead of killing the step; the five tree strategies are
// values of one tree drafter (see IsTree). The chain proposes
// position-conditioned candidates — head i's top-k, or the i-th token
// of a lookup run — and is walked adaptively, from the root when there
// is no tree and below every surviving tree leaf when there is: a
// linear draft is the width-1 case of the same walk. Every verifier
// composes unchanged.
//
// Implementations must be stateless and safe for concurrent use: one
// Strategy value is shared by every decoder worker in a serving pool.
// Per-step state lives in the Draft a Drafter returns; per-decode state
// — the syntax oracle's grammar.State — lives in the DraftCtx, owned by
// the decode like its model.Memo.
package spec

import (
	"sort"
	"strings"

	"repro/internal/core/spec/grammar"
	"repro/internal/core/spec/tree"
	"repro/internal/model"
)

// DraftCtx is the read-only per-step context handed to a Drafter: the
// generation session, the sequence so far, the tokens already accepted
// this step (base token first), and the decoding knobs proposals may
// honour. Drafters must not mutate any slice reachable from it.
type DraftCtx struct {
	// Gen is the generation session (prompt conditioning state).
	Gen *model.Gen
	// Seq is prompt + generated tokens, before this step's emissions.
	Seq []int
	// Prefix holds the tokens accepted so far this step — the sampled
	// base token, at minimum. Draft position i proposes the token at
	// sequence offset len(Seq)+len(Prefix)+i.
	Prefix []int
	// Forward is this step's forward pass. It has heads only when the
	// strategy's Drafter reports NeedsHeads; a head is built the first
	// time a drafter reads its candidates (Forward.Cands), so a drafter
	// pays for the heads it reads. (Prompt metadata such as the prompt
	// length is available through Gen.)
	Forward model.Forward
	// TopK bounds candidates per draft position (Options.TopK).
	TopK int
	// Grammar is the decode's syntax oracle, which grammar drafters
	// advance by each step's text (nil: they draft ungated).
	Grammar *grammar.State
}

// Draft is one step's proposal. With a nil Tree the Chain is walked
// from the root; otherwise the tree is screened first and the Chain
// continues below each surviving leaf, and a tree with no draft nodes
// proposes nothing at all.
type Draft struct {
	Tree  *tree.Tree
	Chain Chain
	// Stats reports what grammar constraint did to the tree.
	Stats DraftStats
}

// Chain supplies position-conditioned candidates: at most one of Heads
// and Run is set. The zero Chain proposes nothing.
type Chain struct {
	// Heads is the step's forward pass; position i proposes head i's
	// top TopK tokens, best first (Heads.Cands(i, TopK)). A walk that
	// stops at position i never builds the heads past it.
	Heads model.Forward
	TopK  int
	// Run is a lookup continuation; position i proposes Run[i] alone.
	Run []int
}

// Candidates returns the proposals for draft position i (0-based, the
// depth below the root), best first; empty ends the walk.
func (c Chain) Candidates(i int) []int {
	if i < len(c.Run) {
		return c.Run[i : i+1]
	}
	if i < c.Heads.NumHeads() {
		return c.Heads.Cands(i, c.TopK)
	}
	return nil
}

// Empty reports whether the chain proposes nothing at any position.
func (c Chain) Empty() bool { return len(c.Run) == 0 && c.Heads.NumHeads() == 0 }

// DraftStats reports what grammar constraint did to one step's draft
// tree — the numerators behind the serve/cluster grammar metrics.
type DraftStats struct {
	// PrunedNodes counts draft tokens withheld because the syntax
	// oracle classified their path as a doomed continuation (the
	// verification budget they would have burned).
	PrunedNodes int
	// GrammarTokens counts draft nodes contributed by synthesized
	// construct chains (origin grammar, dedup-adjusted).
	GrammarTokens int
}

// Drafter proposes each step's draft.
type Drafter interface {
	// Name identifies the drafter in docs and diagnostics.
	Name() string
	// NeedsHeads reports whether the drafter consumes head candidates:
	// when false the decoder's forward pass is base-only, and the cost
	// model charges no heads.
	NeedsHeads() bool
	// Draft proposes this step's draft; a tree holds at most budget
	// draft nodes (>= 1) and never extends past an <eos> token.
	Draft(dc DraftCtx, budget int) Draft
}

// VerifyParams carries the acceptance hyper-parameters (Options.Epsilon
// and Options.Delta, already defaulted).
type VerifyParams struct {
	Epsilon, Delta float64
}

// Verifier is an acceptance policy: it screens draft candidates against
// the base model's verification distribution, and finalizes the
// accepted run once the step's screening is over.
type Verifier interface {
	// Name identifies the policy in docs and diagnostics.
	Name() string
	// Accept picks the accepted token among cands (tried best-first)
	// given the base model's posterior at the draft position, or
	// returns -1 to reject the position and end the step's drafting.
	Accept(ver model.Dist, cands []int, p VerifyParams) int
	// Finalize post-processes the whole accepted run of one step (base
	// token first, may be empty): it returns the tokens to keep and the
	// count it truncated. The identity policy returns (accepted, 0).
	Finalize(accepted []int) (kept []int, truncated int)
}

// Strategy is one named drafter/verifier pairing — everything the core
// decoding loop needs to know about how a decode speculates.
type Strategy struct {
	// Name is the canonical display name ("NTP", "Medusa", "Ours",
	// "PromptLookup") used in tables, metrics labels and the API.
	Name     string
	Drafter  Drafter
	Verifier Verifier
}

// IsTree reports whether d drafts branching trees — the tree
// strategies' node budget applies to it.
func IsTree(d Drafter) bool {
	_, ok := d.(treeDrafter)
	return ok
}

// registry is the single source of truth for named strategies: one
// row per strategy with its canonical lookup name. A strategy answers
// to exactly two spellings, in any case: that name and its display name
// (Strategy.Name).
//
// ntp is conventional next-token decoding: no drafts, one token per
// forward pass. medusa is vanilla Medusa: trained heads draft, typical
// acceptance screens. ours is the paper's method: medusa with the
// accepted run truncated at the last [FRAG] marker so every step ends
// on a complete syntactic fragment.
//
// prompt-lookup is self-speculative decoding without heads, screened
// greedy-exact so greedy decodes stay lossless versus NTP on any
// trained model. At temperature > 0 only the base positions sample;
// accepted draft positions carry the argmax, so sampled outputs skew
// greedier than NTP sampling (a sampling-aware acceptance rule is a
// ROADMAP item).
//
// The tree rows lift those pairings into branching form (see
// treeDrafter); the integrity check acts on the accepted path after the
// tree walk picks it, so it composes unchanged, and the greedy-exact
// rows stay byte-identical to NTP at temperature 0.
var registry = []struct {
	canonical string
	strategy  Strategy
}{
	{"ntp", Strategy{"NTP", NoDraft{}, AcceptNone{}}},
	{"medusa", Strategy{"Medusa", MedusaHeads{}, TypicalAcceptance{}}},
	{"ours", Strategy{"Ours", MedusaHeads{}, Integrity{TypicalAcceptance{}}}},
	{"prompt-lookup", Strategy{"PromptLookup", PromptLookup{}, GreedyExact{}}},
	{"medusa-tree", Strategy{"MedusaTree", medusaTree, TypicalAcceptance{}}},
	{"lookup-tree", Strategy{"LookupTree", lookupTree, GreedyExact{}}},
	{"ours-tree", Strategy{"OursTree", hybridTree, Integrity{TypicalAcceptance{}}}},
	{"grammar-tree", Strategy{"GrammarTree", grammarTree, Integrity{TypicalAcceptance{}}}},
	{"grammar-lookup-tree", Strategy{"GrammarLookupTree", grammarLookupTree, GreedyExact{}}},
}

// named maps normalized strategy names to strategies, derived from
// registry.
var named = func() map[string]Strategy {
	out := map[string]Strategy{}
	for _, e := range registry {
		out[e.canonical] = e.strategy
		out[strings.ToLower(e.strategy.Name)] = e.strategy
	}
	return out
}()

// Named resolves a strategy by name, case-insensitively. Canonical
// names are listed by Names; display names ("Ours", "PromptLookup")
// are accepted too.
func Named(name string) (Strategy, bool) {
	s, ok := named[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// Names returns the canonical strategy names, sorted — the vocabulary
// accepted by Named (display names excluded). Derived from the registry, so
// new strategies appear here (and in error messages) automatically.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.canonical)
	}
	sort.Strings(out)
	return out
}

// Info describes one registered strategy — the discoverability record
// behind the CLIs' -list-strategies flag.
type Info struct {
	// Canonical is the registry lookup name ("lookup-tree").
	Canonical string
	// Display is the strategy's display name ("LookupTree"), also
	// accepted by Named.
	Display string
	// Drafter and Verifier name the pairing's halves.
	Drafter, Verifier string
	// Tree reports a tree drafter (branching multi-candidate drafts).
	Tree bool
	// NeedsHeads reports whether the drafter consumes trained heads.
	NeedsHeads bool
}

// Registered returns every strategy's Info, sorted by canonical name.
func Registered() []Info {
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		s := e.strategy
		out = append(out, Info{
			Canonical:  e.canonical,
			Display:    s.Name,
			Drafter:    s.Drafter.Name(),
			Verifier:   s.Verifier.Name(),
			Tree:       IsTree(s.Drafter),
			NeedsHeads: s.Drafter.NeedsHeads(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Canonical < out[j].Canonical })
	return out
}
