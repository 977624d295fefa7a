package spec

import (
	"slices"
	"strings"

	"repro/internal/core/spec/grammar"
	"repro/internal/core/spec/tree"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/verilog"
)

// DefaultTreeBudget is the default per-step draft-tree node cap
// (core.Options.TreeBudget when unset). Sized so the Medusa tree's
// default shape — two full top-k levels (k + k² static nodes) plus a
// chain tail below every surviving branch — fits without clipping at
// k=3 with 10 heads: 12 static + 9·8 tail = 84 nodes.
const DefaultTreeBudget = 96

// staticHeadLevels is how many draft positions the head fan-out
// branches at full top-k width before handing over to the adaptive
// chain tail. Two levels keep the static tree a superset of every path
// the linear walk can take through its first two positions — the
// containment that makes tree acceptance never shorter than linear
// acceptance — at k + k² nodes.
const staticHeadLevels = 2

// Tree lookup shape: lookupBranches caps how many distinct n-gram
// match continuations branch from the root (more just spends budget on
// stale history, since matches are collected newest-first). Grammar
// drafting deepens the lookup half: pruning doomed branches pays for
// deeper speculation, so each surviving run may extend further and more
// matches branch.
const (
	lookupBranches  = 4
	grammarSpan     = 16
	grammarBranches = 6
)

// treeDrafter proposes a branching draft tree, laid out in one budget
// in this order so shared paths dedup into shared nodes: lookup match
// runs (span > 0), synthesized grammar construct chains (grammar), and
// the first staticHeadLevels head positions at full top-k width
// (heads). With heads, the head chain then continues below every
// surviving leaf — the same adaptive walk linear Medusa runs, once per
// survivor instead of once in total. Lookup continuations are
// path-conditioned and laid into the tree in full, so they carry no
// chain.
//
// With grammar set, every branch is screened by the incremental Verilog
// syntax oracle (internal/core/spec/grammar) before it spends
// verification budget: a path that cannot lex/parse as a continuation
// of the generated text is withheld. The oracle is a pure function of
// the decoded generated text, so the drafter stays deterministic given
// (Seq, Prefix); when that text cannot be classified the oracle
// disables itself and the drafter degrades to its ungated form.
type treeDrafter struct {
	name     string
	span     int // lookup tokens per branch; 0 disables the lookup half
	branches int // distinct lookup continuations
	heads    bool
	grammar  bool
}

// The five tree drafters.
var (
	// medusaTree lifts MedusaHeads into branching form. The heads are
	// position-conditioned, so the token sets per position are the
	// linear drafter's; but each path is verified against its own
	// path-conditioned posterior, the static levels contain every
	// prefix the linear walk could accept, and branches the linear walk
	// would have abandoned run their own tails.
	medusaTree = treeDrafter{name: "medusa-tree", heads: true}
	// lookupTree lifts PromptLookup: every sufficiently long
	// re-occurrence of the current suffix proposes its continuation,
	// led by the linear drafter's run whenever that drafts at all.
	// Screened greedy-exact, greedy decodes stay byte-identical to
	// linear prompt lookup and to NTP however the branches fare.
	lookupTree = treeDrafter{name: "lookup-tree", span: lookupSpan, branches: lookupBranches}
	// hybridTree unions both: lookup runs first (deep template echoes —
	// RTL is template-heavy, so a match usually survives deepest), then
	// head branches fill the remaining budget, and surviving lookup
	// chains get head-guided tails past their span.
	hybridTree = treeDrafter{name: "hybrid-tree", span: lookupSpan, branches: lookupBranches, heads: true}
	// grammarTree is hybridTree with oracle pruning, construct chains
	// (sensitivity lists, begin/closer skeletons, port-list
	// continuations) and the deeper lookup half the freed budget funds.
	grammarTree = treeDrafter{name: "grammar-tree", span: grammarSpan, branches: grammarBranches, heads: true, grammar: true}
	// grammarLookupTree is the headless form for NTP backbones: the
	// deepened, pruned lookup tree plus construct chains.
	grammarLookupTree = treeDrafter{name: "grammar-lookup-tree", span: grammarSpan, branches: grammarBranches, grammar: true}
)

// Name identifies the drafter.
func (td treeDrafter) Name() string { return td.name }

// NeedsHeads reports whether the head half is on; the lookup half and
// the oracle run beside the model and cost nothing in the cost model.
func (td treeDrafter) NeedsHeads() bool { return td.heads }

// Draft builds the step's budgeted tree and reports what the oracle
// pruned and contributed. With nothing to draft from it returns the
// zero Draft, which proposes nothing.
func (td treeDrafter) Draft(dc DraftCtx, budget int) Draft {
	var runs [][]int
	if td.span > 0 {
		runs = lookupRuns(dc.sequence(), lookupMinMatch, td.span, td.branches)
	}
	var heads model.Forward
	if td.heads {
		heads = dc.Forward
	}
	if len(runs) == 0 && heads.NumHeads() == 0 && (!td.grammar || dc.Gen == nil) {
		return Draft{}
	}
	var oracle *grammar.State
	var tok *tokenizer.Tokenizer
	if td.grammar {
		oracle, tok = beginOracle(dc)
	}
	t := tree.New(budget)
	d := Draft{Tree: t, Chain: Chain{Heads: heads, TopK: dc.TopK}}

	// Lookup runs, each truncated at the first token whose path the
	// oracle condemns (the rest of the run could only be verified
	// against a continuation that cannot parse). A full tree admits no
	// new node, so budget exhaustion ends the whole build.
	for _, run := range runs {
		parent := tree.Root
		ext := ""
		for i, id := range run {
			if oracle != nil {
				next := ext + tokenText(tok, id)
				if oracle.Check(next) == verilog.PrefixInvalid {
					d.Stats.PrunedNodes += len(run) - i
					break
				}
				ext = next
			}
			node, _ := t.Add(parent, id, tree.OriginLookup)
			if node < 0 {
				return d
			}
			parent = node
			if id == tokenizer.EosID {
				break
			}
		}
	}

	// Synthesized construct chains from the root — whole idiomatic
	// continuations the verifier screens like any other branch.
	if oracle != nil {
		for _, text := range oracle.Constructs() {
			parent := tree.Root
			for _, id := range tok.Encode(text) {
				node, added := t.Add(parent, id, tree.OriginGrammar)
				if node < 0 {
					return d
				}
				if added {
					d.Stats.GrammarTokens++
				}
				parent = node
			}
		}
	}

	growHeads(t, heads, dc.TopK, oracle, tok, &d.Stats)
	return d
}

// growHeads expands the root through the first staticHeadLevels heads
// at full top-k width, honouring the budget, never extending past
// <eos>, and (with an oracle) withholding candidates whose path text
// cannot parse. Deeper positions belong to the chain.
func growHeads(t *tree.Tree, heads model.Forward, topK int, oracle *grammar.State, tok *tokenizer.Tokenizer, st *DraftStats) {
	type extNode struct {
		id  int
		ext string
	}
	frontier := []extNode{{tree.Root, ""}}
	for d := range min(heads.NumHeads(), staticHeadLevels) {
		cands := heads.Cands(d, topK)
		if len(cands) == 0 {
			return
		}
		next := make([]extNode, 0, len(frontier)*len(cands))
		for _, p := range frontier {
			if p.id != tree.Root && t.Node(p.id).Token == tokenizer.EosID {
				continue
			}
			for _, c := range cands {
				ext := p.ext
				if oracle != nil {
					ext += tokenText(tok, c)
					if oracle.Check(ext) == verilog.PrefixInvalid {
						st.PrunedNodes++
						continue
					}
				}
				id, added := t.Add(p.id, c, tree.OriginHead)
				if id < 0 {
					return // budget exhausted
				}
				if added {
					next = append(next, extNode{id, ext})
				}
			}
		}
		if len(next) == 0 {
			return
		}
		frontier = next
	}
}

// lookupRuns is the tree's lookup half: the first maxBranches distinct
// non-empty continuations of the scan, in its order, so whenever
// lookupRun returns a run, that run is runs[0]. The one divergence is
// deliberate: an occurrence with an empty continuation (its history is
// all <bos> boundary) makes lookupRun give up, while this scan skips it
// and keeps looking — the tree may draft where linear gives up, never
// the reverse.
func lookupRuns(seq []int, minMatch, maxSpan, maxBranches int) (runs [][]int) {
	lookupScan(seq, minMatch, maxSpan, func(run []int) bool {
		if len(run) > 0 && !slices.ContainsFunc(runs, func(r []int) bool { return slices.Equal(r, run) }) {
			runs = append(runs, run)
		}
		return len(runs) < maxBranches
	})
	return runs
}

// beginOracle decodes the generated region (everything after the
// prompt, plus the tokens already accepted this step) back into text
// and opens the decode's syntax oracle over it, returning it with the
// tokenizer that renders candidate text. Both are nil when the context
// carries no session, tokenizer or oracle (pure-drafter unit tests).
func beginOracle(dc DraftCtx) (*grammar.State, *tokenizer.Tokenizer) {
	if dc.Gen == nil {
		return nil, nil
	}
	tok := dc.Gen.Tokenizer()
	if tok == nil || dc.Grammar == nil {
		return nil, nil
	}
	start := min(dc.Gen.PromptLen(), len(dc.Seq))
	var sb strings.Builder
	sb.Grow(8 * (len(dc.Seq) - start + len(dc.Prefix)))
	for _, id := range dc.Seq[start:] {
		sb.WriteString(tokenText(tok, id))
	}
	for _, id := range dc.Prefix {
		sb.WriteString(tokenText(tok, id))
	}
	return dc.Grammar.Begin(sb.String()), tok
}

// tokenText renders one token id's surface text; specials ([FRAG],
// <eos>, ...) render empty — they carry no bytes the oracle sees.
func tokenText(tok *tokenizer.Tokenizer, id int) string {
	if tokenizer.IsSpecial(id) {
		return ""
	}
	return tok.Token(id)
}
