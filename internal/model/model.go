package model

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/frag"
	"repro/internal/parallel"
	"repro/internal/tokenizer"
)

// Scheme selects the training strategy compared in the paper.
type Scheme int

// Training schemes (paper §IV-A).
const (
	// SchemeNTP is conventional next-token-prediction fine-tuning:
	// base model only, no decoding heads.
	SchemeNTP Scheme = iota
	// SchemeMedusa is the original Medusa-2 method: joint fine-tuning
	// of base and heads on plain shifted labels.
	SchemeMedusa
	// SchemeOurs is the paper's method: joint fine-tuning on
	// [FRAG]-enriched sequences with [IGNORE]-masked labels.
	SchemeOurs
	// SchemeOursNoMask is an ablation: [FRAG]-enriched sequences but
	// vanilla (unmasked) Medusa labels. It isolates the contribution
	// of the [IGNORE] masking to head quality and backbone cleanliness.
	SchemeOursNoMask
)

// String names the scheme as in the paper's tables.
func (s Scheme) String() string {
	switch s {
	case SchemeNTP:
		return "NTP"
	case SchemeMedusa:
		return "Medusa"
	case SchemeOurs:
		return "Ours"
	case SchemeOursNoMask:
		return "Ours-nomask"
	}
	return "?"
}

// UsesFrags reports whether the scheme trains on [FRAG]-enriched code.
func (s Scheme) UsesFrags() bool { return s == SchemeOurs || s == SchemeOursNoMask }

// Config describes a simulated backbone model. The two presets mirror
// the paper's CodeLlama-7b and CodeT5p-220m in relative capacity and
// per-step cost.
type Config struct {
	// Name appears in reports ("CodeLlama-sim", "CodeT5p-sim").
	Name string
	// Order is the base model's maximum context length in tokens
	// (n-gram order minus one).
	Order int
	// HeadCtx is the context length available to decoding heads
	// (heads are small MLPs in Medusa; shorter context models that).
	HeadCtx int
	// NumHeads is the number of decoding heads appended (paper: 10), at
	// most 255.
	NumHeads int
	// VocabSize is the BPE vocabulary target for this model.
	VocabSize int
	// Lambda is the effective average of the paper's sine-growth
	// joint-loss weight λ (0→0.2 ⇒ mean ≈ 0.2·2/π ≈ 0.127).
	Lambda float64
	// Gamma is the per-head loss decay γ (paper: 0.8).
	Gamma float64
	// CopyStrength scales the induction-copy mechanism (how strongly
	// the model echoes identifiers from its prompt/context).
	CopyStrength float64
	// PromptBlend is the exponent of the keyword-conditioned expert in
	// the product-of-experts combination with the base table — the
	// model's prompt-attention analogue (0 disables, 1 full strength).
	// The base table contributes positional structure, the keyword
	// expert contributes task identity; multiplying them keeps both.
	PromptBlend float64
	// PromptCopyBoost multiplies the probability of content tokens that
	// appear in the prompt (identifier copying — fine-tuned LLMs
	// strongly prefer echoing the names their prompt spelled out).
	PromptCopyBoost float64
	// StepLatencyMS is the simulated cost of one forward pass of the
	// backbone — the GPU cost model. Calibrated so the NTP baseline
	// reproduces the paper's tokens/s (83.13 for CodeLlama ⇒ 12.03 ms).
	StepLatencyMS float64
	// HeadLatencyMS is the additional per-head cost of a forward pass.
	HeadLatencyMS float64
	// MaxTokens bounds generation length (8192 / 2048 in the paper).
	MaxTokens int
}

// CodeLlamaSim mirrors CodeLlama-7b-Instruct: larger context, larger
// vocabulary, higher per-step cost.
func CodeLlamaSim() Config {
	return Config{
		Name: "CodeLlama-sim", Order: 12, HeadCtx: 3, NumHeads: 10,
		VocabSize: 2048, Lambda: 0.127, Gamma: 0.8, CopyStrength: 0.55,
		PromptBlend: 0.6, PromptCopyBoost: 4.0,
		StepLatencyMS: 12.03, HeadLatencyMS: 0.07, MaxTokens: 2000,
	}
}

// CodeT5pSim mirrors CodeT5p-220m-bimodal: shorter context, smaller
// vocabulary, lower per-step cost, weaker heads.
func CodeT5pSim() Config {
	return Config{
		Name: "CodeT5p-sim", Order: 4, HeadCtx: 2, NumHeads: 10,
		VocabSize: 1024, Lambda: 0.127, Gamma: 0.8, CopyStrength: 0.35,
		PromptBlend: 0.4, PromptCopyBoost: 2.2,
		StepLatencyMS: 10.91, HeadLatencyMS: 0.06, MaxTokens: 1200,
	}
}

// Example is one Alpaca-style training sample: a natural-language
// description and its Verilog implementation.
type Example struct {
	Prompt string
	Code   string
}

// FormatPrompt renders the instruction wrapper shared by training and
// inference (the Alpaca style of §IV-A1).
func FormatPrompt(desc string) string {
	return "### Instruction:\n" + desc + "\n### Response:\n"
}

// tokenizerSample is how many of the corpus's first examples a BPE
// vocabulary trains on: the merges converge long before the full
// corpus.
const tokenizerSample = 1500

// TrainTokenizer trains cfg's BPE vocabulary the way every model is
// built: on FormatPrompt(prompt)+code of the first 1,500 examples.
func TrainTokenizer(cfg Config, examples []Example) *tokenizer.Tokenizer {
	examples = examples[:min(len(examples), tokenizerSample)]
	texts := make([]string, len(examples))
	for i, ex := range examples {
		texts[i] = FormatPrompt(ex.Prompt) + ex.Code
	}
	return tokenizer.Train(texts, cfg.VocabSize)
}

// ParseScheme reads a scheme by its command-line name: ours, medusa or
// ntp.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "ours":
		return SchemeOurs, nil
	case "medusa":
		return SchemeMedusa, nil
	case "ntp":
		return SchemeNTP, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want ours, medusa or ntp)", name)
}

// Model is a trained simulated LM: a base table, per-head tables and a
// keyword-conditioned table for prompt attention.
type Model struct {
	cfg    Config
	scheme Scheme
	tok    *tokenizer.Tokenizer
	base   *ngramTable
	heads  []*ngramTable
	kw     *ngramTable // seeded by prompt-keyword hashes, split into parts by seed
	// kwDF counts, per keyword, the number of training examples whose
	// prompt contained it (document frequency for inference-time IDF
	// filtering of uninformative keywords such as clk or rst).
	kwDF map[string]int
	// trained counts the examples the model trained on; an example the
	// scheme cannot parse does not count.
	trained int
	// kwFloorPow is the keyword factor of an id no keyword supports,
	// Pow(kwFloor, PromptBlend).
	kwFloorPow float64
}

// newModel returns an untrained model bound to a tokenizer, every
// table empty.
func newModel(tk *tokenizer.Tokenizer, cfg Config, scheme Scheme) *Model {
	if cfg.NumHeads > math.MaxUint8 {
		panic("model: more than 255 decoding heads")
	}
	m := &Model{cfg: cfg, scheme: scheme, tok: tk,
		base: newNgramTable(cfg.Order, 0), kw: newNgramTable(kwCtx, kwPartBits),
		kwDF: map[string]int{}, kwFloorPow: math.Pow(kwFloor, cfg.PromptBlend)}
	if scheme != SchemeNTP {
		m.heads = make([]*ngramTable, cfg.NumHeads)
		for i := range m.heads {
			m.heads[i] = newNgramTable(cfg.HeadCtx, 0)
		}
	}
	return m
}

// Train builds a model over the examples. It is the only way to build
// one, and the model it returns is frozen: nothing writes it again, so
// any number of goroutines may decode with it at once.
//
// Training runs in three stages:
//  1. every example is prepared (tokenized, frag-encoded, its context
//     view, keyword seeds and head-label depths built) by
//     GOMAXPROCS workers;
//  2. one pass in example order numbers the examples — an example's
//     ordinal picks the heads it trains — and counts keyword document
//     frequencies;
//  3. the tables train in units of work, run by GOMAXPROCS workers in
//     phases (see phases). A unit owns some levels — a range of the
//     base's, one part of the keyword table, or a whole head — and the
//     tallies it counts them in; it replays its examples into them and
//     builds each level once (see trainLevels). The tallies a phase
//     drops are collected before the next phase starts.
//
// No unit reads another's levels while it trains, so each context sees
// exactly the (next, weight) sequence one pass over the examples, one
// at a time, would give it, adds its float counts in that order and
// comes out bit for bit the same at any GOMAXPROCS.
func Train(tk *tokenizer.Tokenizer, cfg Config, scheme Scheme, examples []Example) *Model {
	m := newModel(tk, cfg, scheme)
	for _, phase := range m.phases(m.prepareAll(examples)) {
		parallel.For(len(phase), func(i int) { phase[i]() })
		// The phase's tallies are garbage now and most of the heap. Left
		// to the collector's pacing, they would be freed whenever its
		// next cycle happened to start, and the process's peak memory
		// would depend on that timing; collected here, the peak is the
		// largest phase's working set, the same on every run.
		runtime.GC()
	}
	m.base.seal()
	m.kw.seal()
	for _, t := range m.heads {
		t.seal()
	}
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Scheme returns the training scheme the model was built with.
func (m *Model) Scheme() Scheme { return m.scheme }

// Tokenizer returns the model's tokenizer.
func (m *Model) Tokenizer() *tokenizer.Tokenizer { return m.tok }

// NumHeads returns the number of decoding heads (0 for NTP models).
func (m *Model) NumHeads() int { return len(m.heads) }

// prepareAll runs stages 1 and 2 of Train: it prepares every
// example in parallel, then numbers them and counts their keywords in
// example order.
func (m *Model) prepareAll(examples []Example) []prepared {
	prep := make([]prepared, len(examples))
	parallel.For(len(examples), func(i int) { prep[i] = m.prepare(examples[i]) })
	for i := range prep {
		p := &prep[i]
		if p.code == nil {
			continue
		}
		m.trained++
		if p.depth != nil {
			p.heads = m.headSubset(m.trained)
		}
		for _, w := range p.keywords {
			m.kwDF[w]++
		}
	}
	return prep
}

// kwPartBits sets the keyword table's split: 2^kwPartBits parts, a
// unit of training work each. It is a constant, so a model's layout is
// the same at any GOMAXPROCS.
const kwPartBits = 3

// kwCtx is the context length of the keyword-conditioned table.
const kwCtx = 2

// phases lists the units of training work in the phases they run in.
// The base and keyword tables carry most of the observations and most
// of the tally memory: they train first, side by side, and the heads
// train once both are frozen. The base is two units, which start
// first: the levels below the reach of joint-training interference
// (contexts of at least Order-2 ids, never the unigram level) and the
// levels it reaches. They replay one group, every example, as each
// head does. The keyword table is one unit per part, whose groups are
// its keywords; its parts are small, and fill in on whichever worker
// comes free.
func (m *Model) phases(prep []prepared) [][]func() {
	all := []group{{examples: make([]int32, len(prep))}}
	for j := range prep {
		all[0].examples[j] = int32(j)
	}
	cut, _ := slices.BinarySearch(m.base.levels, max(m.cfg.Order-2, 1))
	pollution := make([]float64, len(m.heads)+1)
	for i := 1; i < len(pollution); i++ {
		pollution[i] = m.cfg.Lambda * math.Pow(m.cfg.Gamma, float64(i))
	}
	base := func(lo, hi int) func() {
		r := baseReplay{lo, max(lo, cut), pollution}
		return func() { trainLevels(prep, m.base, 0, lo, hi, all, r.replay) }
	}
	n := len(m.base.levels)
	var first []func()
	if cut < n {
		first = append(first, base(cut, n))
	}
	first = append(first, base(0, cut))
	for p, groups := range m.kwParts(prep) {
		first = append(first, func() { trainLevels(prep, m.kw, p, 0, len(m.kw.levels), groups, replayKw) })
	}
	phases := [][]func(){first}
	if len(m.heads) == 0 {
		return phases
	}
	heads := make([]func(), len(m.heads))
	for i, t := range m.heads {
		heads[i] = func() { trainLevels(prep, t, 0, 0, len(t.levels), all, headReplay(i+1).replay) }
	}
	return append(phases, heads)
}

// group is a run of examples a unit replays under one seed, in example
// order: a keyword and the examples whose prompts hold it, or every
// example (seed 0).
type group struct {
	seed     uint64
	examples []int32
}

// trainLevels is a unit of training work: it builds levels lo ≤ i < hi
// of part p of t in tallies it owns, replay counting one example's
// observations under its group's seed at the levels of the ladder that
// fit. For each group in turn it replays the group's examples in order
// into the tallies, takes their contexts into the levels' builders and
// resets them; after the last group it builds each level once, from the
// takes and the tallies as the last group left them, so a one-group
// unit copies no record. A group's contexts are its own (their keys mix
// in its seed), so each context sees the observations one pass over the
// examples would give it, in the same order, and a one-group unit lays
// its levels out in the order its tallies first saw their contexts.
func trainLevels(prep []prepared, t *ngramTable, p, lo, hi int, groups []group,
	replay func(counts tallies, ladder []int, ex *prepared, seed uint64)) {
	ladder := t.levels[:hi] // hashing stops at the unit's longest level
	counts := make(tallies, hi)
	bufs := make([]levelBuf, hi)
	for k, g := range groups {
		for _, j := range g.examples {
			replay(counts, ladder, &prep[j], g.seed)
		}
		if k == len(groups)-1 {
			break // the levels are built from the last group's tallies
		}
		n := 0
		for i := lo; i < hi; i++ {
			n += counts[i].n
		}
		recs := make([]slot, 0, n) // the group's records at every level
		for i := lo; i < hi; i++ {
			recs = bufs[i].take(&counts[i], recs)
			counts[i].reset()
		}
	}
	for i := lo; i < hi; i++ {
		t.parts[p][i] = bufs[i].level(&counts[i])
	}
}

// prepared is one example ready to be replayed into the tables.
type prepared struct {
	// code is the code region's ids — [FRAG]-enriched under a frag
	// scheme — and <eos>. It is nil for an example the scheme cannot
	// parse (the dataset pipeline should have filtered it), which trains
	// nothing and takes no ordinal.
	code []int
	// view is the context view the tables train on: the prompt's last
	// promptAnchor tokens, then code without its [FRAG] markers.
	// Contexts are hashed over this FRAG-filtered view — markers are
	// positional decorations a transformer would attend through, and
	// keeping them in the window would halve the enriched model's
	// context reach — while markers remain first-class prediction
	// targets. Deeper prompt prose is example-specific, and long context
	// levels would latch onto coincidental phrase overlaps across
	// prompts; the constant anchor ("### Response:\n") is all of the
	// prompt a context sees.
	view   []int
	anchor int // prompt tokens at the head of view
	// depth[s] is how many heads learn a label at code position s: head
	// i (1-based) learns code[s+i] there iff i <= depth[s]. Nil without
	// heads.
	depth []uint8
	// heads[i] reports whether head i (1-based) trains on the example.
	// Nil without heads.
	heads    []bool
	keywords []string
	seeds    []uint64 // kwSeed of each keyword
}

// prepare tokenizes one example and builds everything its observations
// are replayed from.
func (m *Model) prepare(ex Example) prepared {
	var code []int
	if m.scheme.UsesFrags() {
		ids, err := frag.EncodeWithFrags(m.tok, ex.Code)
		if err != nil {
			return prepared{}
		}
		code = ids
	} else {
		code = m.tok.Encode(ex.Code)
	}
	code = append(code, tokenizer.EosID)
	// The prompt holds no [FRAG]: Encode never yields a special id.
	prompt := m.tok.AppendEncode([]int{tokenizer.BosID}, FormatPrompt(ex.Prompt))
	anchor := prompt[max(0, len(prompt)-promptAnchor):]
	p := prepared{code: code, view: make([]int, 0, len(anchor)+len(code)), anchor: len(anchor)}
	p.view = append(p.view, anchor...)
	for _, id := range code {
		if id != tokenizer.FragID {
			p.view = append(p.view, id)
		}
	}
	// The prompt's content words each condition the keyword table: the
	// model's prompt attention analogue.
	p.keywords = Keywords(ex.Prompt)
	for _, w := range p.keywords {
		p.seeds = append(p.seeds, kwSeed(w))
	}
	if len(m.heads) == 0 {
		return p
	}
	// Heads: the label matrix over the code region (paper Fig. 4). A
	// position keeps only how many head rows hold a label there; the
	// masking of SchemeOurs is all SchemeOursNoMask ablates.
	p.depth = frag.HeadDepths(code, len(m.heads), m.scheme == SchemeOurs)
	return p
}

// contexts yields each code position s with the context the tables
// learn code[s] in: the view before s plus its trailing run of [FRAG]
// markers, capped at 2. The tables must tell "just opened/closed a
// fragment" states apart, or a generated marker would not change the
// context and decoding could loop on markers forever. Every ladder
// level reaches at most maxReach tokens back, so the view is cut to its
// last maxReach tokens: each level hashes the same context and fits it
// exactly when it fits the whole. The context is valid until the next
// position.
func (p *prepared) contexts() iter.Seq2[int, []int] {
	return func(yield func(int, []int) bool) {
		var buf [maxReach + 2]int
		v, trail := p.anchor, 0
		for s, id := range p.code {
			ctx := p.view[max(0, v-maxReach):v]
			if trail > 0 {
				ctx = append(append(buf[:0], ctx...), tokenizer.FragID)
				if trail > 1 {
					ctx = append(ctx, tokenizer.FragID)
				}
			}
			if !yield(s, ctx) {
				return
			}
			if id == tokenizer.FragID {
				trail++
			} else {
				v, trail = v+1, 0
			}
		}
	}
}

// baseReplay replays the base table's observations at levels lo ≤ i:
// each example's code tokens (targets are code-region only — the Alpaca
// format masks loss on the instruction), then its heads' interference
// at levels polluted ≤ i, head i's weighing pollution[i].
type baseReplay struct {
	lo, polluted int
	pollution    []float64
}

func (r baseReplay) replay(counts tallies, ladder []int, p *prepared, _ uint64) {
	hi := len(ladder)
	for s, ctx := range p.contexts() {
		hs := hashLevels(ladder, ctx)
		counts.observe(&hs, p.code[s], 1, r.lo, hi, 0)
	}
	if p.depth == nil || r.polluted >= hi {
		return
	}
	// Medusa-2 joint training: the head loss also moves the backbone
	// (weight λ·γ^i, eq. 2). For the syntax-enriched scheme the
	// [IGNORE] mask removes most of this cross-fragment interference
	// — exactly the paper's explanation of its quality advantage.
	// Interference lands on the longest context orders only: it
	// perturbs specific contexts rather than global token statistics.
	for s, ctx := range p.contexts() {
		if p.depth[s] == 0 {
			continue
		}
		hs := hashLevels(ladder, ctx)
		for i := 1; i <= int(p.depth[s]); i++ {
			if p.heads[i] {
				counts.observe(&hs, p.code[s+i], r.pollution[i], r.polluted, hi, 0)
			}
		}
	}
}

// kwParts groups the examples by keyword seed, the seeds in order of
// first occurrence, and deals each group to its seed's keyword part.
func (m *Model) kwParts(prep []prepared) [][]group {
	var groups []group
	at := map[uint64]int{}
	for j := range prep {
		for _, seed := range prep[j].seeds {
			g, ok := at[seed]
			if !ok {
				g = len(groups)
				at[seed] = g
				groups = append(groups, group{seed: seed})
			}
			groups[g].examples = append(groups[g].examples, int32(j))
		}
	}
	parts := make([][]group, len(m.kw.parts))
	for _, g := range groups {
		p := m.kw.partOf(fmix(g.seed))
		parts[p] = append(parts[p], g)
	}
	return parts
}

// replayKw replays the keyword table's observations under a keyword's
// seed. The keyword table learns each keyword's successor statistics
// over the content-only view (a trailing [FRAG] would collapse every
// fragment boundary into the same two-token context) and content
// targets only: it is the task-identity expert, agnostic about marker
// machinery.
func replayKw(counts tallies, ladder []int, p *prepared, seed uint64) {
	for s, ctx := range p.contexts() {
		if p.code[s] == tokenizer.FragID {
			continue
		}
		for len(ctx) > 0 && ctx[len(ctx)-1] == tokenizer.FragID {
			ctx = ctx[:len(ctx)-1]
		}
		hs := hashLevels(ladder, ctx)
		counts.observe(&hs, p.code[s], 1, 0, len(counts), seed)
	}
}

// headReplay replays head i's (1-based) observations: the label i
// tokens ahead, wherever the position keeps one, in the examples the
// head trains on.
type headReplay int

func (i headReplay) replay(counts tallies, ladder []int, p *prepared, _ uint64) {
	if p.heads == nil || !p.heads[i] {
		return
	}
	for s, ctx := range p.contexts() {
		if headReplay(p.depth[s]) >= i {
			hs := hashLevels(ladder, ctx)
			counts.observe(&hs, p.code[s+int(i)], 1, 0, len(counts), 0)
		}
	}
}

// headSubset reports, indexed by head (1-based), which heads train on
// the example with the given ordinal. The γ^i loss decay (eq. 2) barely
// trains deep heads; the count-based analogue is per-head example
// subsampling: head i sees a γ^(i-1) fraction of the data. The
// syntax-enriched scheme tolerates this (its [IGNORE]-masked deep-head
// task is small and easy — the paper's "more robust heads" claim);
// vanilla Medusa's deep heads stay underfit and noisy.
func (m *Model) headSubset(ordinal int) []bool {
	heads := make([]bool, len(m.heads)+1)
	for i := 1; i < len(heads); i++ {
		h := uint64(ordinal)*2654435761 + uint64(i)*97
		heads[i] = float64(h%1000) < 1000*math.Pow(m.cfg.Gamma, float64(i-1))
	}
	return heads
}

// maxInduction is the longest suffix the induction-copy mechanism
// attempts to match in the prompt region.
const maxInduction = 8

// minInduction is the shortest suffix worth matching; shorter matches
// fire on purely structural patterns and derail generation.
const minInduction = 3

// Gen is a generation session: the model plus the prompt-derived
// conditioning state (keyword seeds, the prompt token set for copy
// boosting, and the prompt region boundary for induction copying).
// Create one per decode with NewGen.
type Gen struct {
	m         *Model
	promptLen int
	seeds     []uint64
	// promptToks are content tokens present in the prompt, eligible
	// for the copy boost.
	promptToks idSet
	// codePos marks prompt token positions that lie on code-like lines
	// (verbatim module headers in VGen-style prompts). Induction
	// proposals from these positions may bypass the support gate.
	codePos []bool
	// fork is the resumable preparation tail for copy-on-extend forks.
	fork forkState
}

// NewGen prepares a generation session for a prompt (token ids). The
// prompt text is recovered via the tokenizer to extract conditioning
// keywords (with an IDF filter: keywords present in a large fraction of
// training prompts — clk, rst, q, widths — retrieve a soup of every
// family and only dilute the informative ones).
//
// NewGen is defined as a copy-on-extend Fork of the empty session, so
// a session built fresh and a session assembled through any chain of
// mid-prompt forks are the same computation — the property the prefix
// trie cache's byte-identical guarantee rests on.
func (m *Model) NewGen(promptIDs []int) *Gen {
	return m.emptyGen().Fork(promptIDs)
}

// isContentOrCodePunct accepts identifier-like pieces plus the
// punctuation that appears inside module headers. Whitespace is
// excluded deliberately: indentation tokenizes differently in prompt
// text than in code bodies, so echoed whitespace derails decoding —
// the table owns all whitespace decisions.
func isContentOrCodePunct(text string) bool {
	if isContentToken(text) {
		return true
	}
	switch strings.TrimSpace(text) {
	case "(", ")", ",", ";", "[", "]", ":":
		return strings.TrimSpace(text) == text
	}
	return false
}

// isWhitespaceTok reports whether a token is pure whitespace.
func isWhitespaceTok(text string) bool { return strings.TrimSpace(text) == "" }

// isContentToken reports whether a token piece carries identifier-like
// content (worth copy-boosting). Whitespace and punctuation are not.
func isContentToken(text string) bool {
	for i := 0; i < len(text); i++ {
		c := text[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' {
			return true
		}
	}
	return false
}

// Forward is one step's pass of the model over a sequence: the base
// posterior, and the decoding heads' candidates. In the paper (§III) a
// head is a small layer over the backbone's last hidden state; here
// each head is its own n-gram table, walked over the step's filtered
// context view and blended with the base's induction match. A drafter
// reads a head only through its top candidates, and a linear walk
// stops at its first rejection, so each head is built the first time
// Cands asks for it and a head nobody asks for costs nothing. The zero
// Forward has no heads.
type Forward struct {
	Base  Dist
	heads *headSet
}

// NumHeads returns the number of heads the pass drafts from (0 for a
// base-only pass or a model without heads).
func (f Forward) NumHeads() int {
	if f.heads == nil {
		return 0
	}
	return len(f.heads.cands)
}

// Cands returns head i's k most probable token ids, best first with
// ties by ascending id: the TopK(k) of head i's distribution. The head
// is built the first time it is asked for. The slice belongs to the
// pass (to its Memo, through ForwardMemo) and stays valid until the
// next ForwardMemo on that Memo; callers must not modify it.
func (f Forward) Cands(i, k int) []int { return f.heads.topK(i, k) }

// HeadCalls returns how many head distributions the pass has built.
func (f Forward) HeadCalls() int {
	if f.heads == nil {
		return 0
	}
	return f.heads.calls
}

// NewForward builds a pass from explicit distributions, for tests and
// tools; its Cands read the given heads.
func NewForward(base Dist, heads ...Dist) Forward {
	return Forward{Base: base, heads: &headSet{fixed: heads, cands: make([]headCands, len(heads))}}
}

// headSet is one pass's heads: what building one needs (the step's
// sequence, its filtered view and induction match) and each head's
// candidates once built.
type headSet struct {
	g              *Gen
	seq            []int // the step's sequence; finish reads its prompt part
	view           []int // the step's filtered context view, owned
	matchJ, matchK int
	fixed          []Dist // NewForward's heads; nil for a model pass
	cands          []headCands
	calls          int // head distributions built
}

// headCands is one head's top candidates: ids is its TopK(k), and k is
// 0 until the head is built.
type headCands struct {
	k   int
	ids []int
}

// reset points h at a new step, keeping its storage.
func (h *headSet) reset(g *Gen, seq, view []int, matchJ, matchK int) {
	h.g, h.seq, h.matchJ, h.matchK = g, seq, matchJ, matchK
	h.view = append(h.view[:0], view...)
	n := len(g.m.heads)
	if cap(h.cands) < n {
		h.cands = make([]headCands, n)
	}
	h.cands = h.cands[:n]
	for i := range h.cands {
		h.cands[i].k = 0
	}
	h.calls = 0
}

// topK returns head i's top k candidates, building the head when it
// has not been built for k yet. TopK's order is total, so the top k of
// a head built for a larger k are a prefix of its candidates.
func (h *headSet) topK(i, k int) []int {
	if k <= 0 {
		return nil
	}
	c := &h.cands[i]
	if c.k == 0 || k > c.k && len(c.ids) == c.k {
		var d Dist
		if h.fixed != nil {
			d = h.fixed[i]
		} else {
			sc := scratchPool.Get().(*scratch)
			defer scratchPool.Put(sc) // d lives in sc until TopKTo has read it
			d = Dist{e: h.g.headAt(sc, i, h.seq, h.view, h.matchJ, h.matchK)}
			h.calls++
		}
		c.ids, c.k = d.TopKTo(slices.Grow(c.ids[:0], min(k, len(d.e))), k), k
	}
	return c.ids[:min(k, len(c.ids))]
}

// filterCap bounds the filtered context view (must exceed the longest
// ladder level plus the keyword context).
const filterCap = 40

// promptAnchor is how many trailing prompt tokens remain visible to
// contexts (the constant "### Response:\n" tail — identical across all
// examples, so it anchors the response start without leaking
// example-specific prose into long context levels).
const promptAnchor = 4

// filterTail appends to dst the context view all tables are trained on:
// the last filterCap non-FRAG tokens of seq, oldest first, with the
// trailing run of FRAG markers (capped at 2) retained so fragment
// open/close states remain distinguishable.
func filterTail(dst, seq []int) []int {
	trail := 0
	for i := len(seq) - 1; i >= 0 && seq[i] == tokenizer.FragID && trail < 2; i-- {
		trail++
	}
	start := len(dst)
	for i := len(seq) - 1 - trailIdx(seq); i >= 0 && len(dst)-start < filterCap; i-- {
		if seq[i] != tokenizer.FragID {
			dst = append(dst, seq[i])
		}
	}
	slices.Reverse(dst[start:])
	for t := 0; t < trail; t++ {
		dst = append(dst, tokenizer.FragID)
	}
	return dst
}

// trailIdx counts trailing FRAG markers (uncapped) on seq.
func trailIdx(seq []int) int {
	n := 0
	for i := len(seq) - 1; i >= 0 && seq[i] == tokenizer.FragID; i-- {
		n++
	}
	return n
}

// scratch is one prediction call's working memory. It cannot live on
// Gen, which the prefix trie shares across concurrent decodes, so each
// model call and each head build takes one from scratchPool and returns
// it.
type scratch struct {
	view []int    // the filtered context view
	acc  accum    // predict's and kwFactors' accumulator
	tbl  []entry  // the distribution being built
	pows powCache // the keyword factors computed lately
}

// powCache is a direct-mapped cache of math.Pow, keyed by the bits of
// both arguments, so what it returns is math.Pow's result bit for bit.
// Keyword probabilities repeat across a decode's runs and across
// decodes: under an offline_linear-shaped served load, 67 % of factor
// calls hit its 1,024 slots (73 % at 4,096, 84 % at 16,384, each slot
// 24 B in every pooled scratch). Its arguments' bits are never both
// zero (the keyword factor's base is at least kwFloor), so an empty slot
// matches no call. One cache serves models of every exponent:
// scratchPool is shared.
type powCache [powSlots]struct{ x, y, r uint64 }

const powBits = 10
const powSlots = 1 << powBits

// slot returns the index of the slot that caches Pow(x, y), given the
// bits of x and y.
func (*powCache) slot(xb, yb uint64) uint64 { return ((xb ^ yb) * fibMul) >> (64 - powBits) }

// pow returns math.Pow(x, y).
func (c *powCache) pow(x, y float64) float64 {
	xb, yb := math.Float64bits(x), math.Float64bits(y)
	s := &c[c.slot(xb, yb)]
	if s.x != xb || s.y != yb {
		s.x, s.y, s.r = xb, yb, math.Float64bits(math.Pow(x, y))
	}
	return math.Float64frombits(s.r)
}

// factor returns the keyword factor of a keyword run's value,
// Pow(kwFloor+p, eta), computing it on first use. The value is the id's
// best keyword probability p >= 0 until then and the factor negated from
// then on: every factor is positive, and negation is exact, so the
// factor is read back bit for bit.
func (sc *scratch) factor(v *float64, eta float64) float64 {
	if *v >= 0 {
		*v = -sc.pows.pow(kwFloor+*v, eta)
	}
	return -*v
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// clippedView builds the context view respecting the prompt clip into
// sc.view.
func (g *Gen) clippedView(sc *scratch, seq []int) []int {
	if g.promptLen > promptAnchor {
		// Tokens before promptLen-promptAnchor are invisible to contexts.
		seq = seq[g.promptLen-promptAnchor:]
	}
	sc.view = filterTail(sc.view[:0], seq)
	return sc.view
}

// fullPassTopK is the candidate width Forward builds every head to:
// the decoders' default.
const fullPassTopK = 3

// Forward is the full pass over seq (prompt + generated) on a fresh
// Memo: the base posterior and every head built to its top fullPassTopK
// candidates.
func (g *Gen) Forward(seq []int) Forward {
	mm := new(Memo)
	mm.NextStep(seq)
	fw := g.ForwardMemo(seq, mm)
	for i := range fw.NumHeads() {
		fw.Cands(i, fullPassTopK)
	}
	return fw
}

// ForwardMemo returns the pass over seq remembering into mm. The base
// posterior may be one mm kept; the heads are built on demand into mm's
// storage, which the next ForwardMemo on mm reuses.
func (g *Gen) ForwardMemo(seq []int, mm *Memo) Forward {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	mm.bind(g)
	matchJ, matchK := g.findInduction(seq)
	view := g.clippedView(sc, seq)
	mm.heads.reset(g, seq, view, matchJ, matchK)
	fw := Forward{heads: &mm.heads}
	if d, ok := mm.posterior(seq); ok {
		fw.Base = d
		return fw
	}
	fw.Base = newPosterior(g.baseAt(sc, mm, seq, view, matchJ, matchK))
	mm.keep(seq, fw.Base)
	return fw
}

// BaseDistMemo returns the base model's next-token distribution over
// seq, remembering into mm.
func (g *Gen) BaseDistMemo(seq []int, mm *Memo) Dist {
	mm.bind(g)
	if d, ok := mm.posterior(seq); ok {
		return d
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	matchJ, matchK := g.findInduction(seq)
	d := newPosterior(g.baseAt(sc, mm, seq, g.clippedView(sc, seq), matchJ, matchK))
	mm.keep(seq, d)
	return d
}

// kwFloor is the probability floor applied to the keyword expert so
// tokens outside its support are damped rather than zeroed.
const kwFloor = 0.02

// baseAt combines the base table with keyword conditioning (product of
// experts) and the shared induction match. The result lives in sc.tbl.
func (g *Gen) baseAt(sc *scratch, mm *Memo, seq, fview []int, matchJ, matchK int) []entry {
	table := g.m.base.predict(&sc.acc, sc.tbl[:0], fview, 0)
	// Strip trailing FRAG markers for the keyword view.
	kwView := fview
	for len(kwView) > 0 && kwView[len(kwView)-1] == tokenizer.FragID {
		kwView = kwView[:len(kwView)-1]
	}
	if len(g.seeds) > 0 && g.m.cfg.PromptBlend > 0 && len(table) > 1 {
		if fac := g.kwFactors(sc, mm, kwView); len(fac) > 0 {
			// Pool-preserving product of experts: conditioning
			// redistributes mass WITHIN content tokens; the base's
			// structural balance (probability of [FRAG]/<eos>
			// machinery vs content) is its own to decide.
			contentMass, newMass := 0.0, 0.0
			ids := mm.kw.ids // fac's ids
			j := 0           // both are id-sorted: one merge pass
			for i, e := range table {
				if tokenizer.IsSpecial(int(e.id)) {
					continue
				}
				contentMass += e.v
				for j < len(ids) && ids[j] < e.id {
					j++
				}
				f := g.m.kwFloorPow
				if j < len(ids) && ids[j] == e.id {
					f = sc.factor(&fac[j], g.m.cfg.PromptBlend)
				}
				table[i].v = e.v * f
				newMass += table[i].v
			}
			if newMass > 0 {
				scale := contentMass / newMass
				for i, e := range table {
					if !tokenizer.IsSpecial(int(e.id)) {
						table[i].v *= scale
					}
				}
			}
		}
	}
	g.copyBoost(table)
	sc.tbl = g.finish(table, seq, matchJ, matchK, 1)
	return sc.tbl
}

// copyBoost multiplies the probability of prompt content tokens — the
// identifier-copying bias of instruction-tuned code models. Like the
// keyword expert it is pool-preserving: boosted mass is taken from
// other content tokens, never from structural machinery.
func (g *Gen) copyBoost(table []entry) {
	boost := g.m.cfg.PromptCopyBoost
	if boost <= 1 || len(g.promptToks) == 0 {
		return
	}
	contentMass, newMass := 0.0, 0.0
	changed := false
	for i, e := range table {
		if tokenizer.IsSpecial(int(e.id)) {
			continue
		}
		contentMass += e.v
		if g.promptToks.has(int(e.id)) {
			table[i].v = e.v * boost
			changed = true
		}
		newMass += table[i].v
	}
	if !changed || newMass <= 0 {
		return
	}
	scale := contentMass / newMass
	for i, e := range table {
		if !tokenizer.IsSpecial(int(e.id)) {
			table[i].v *= scale
		}
	}
}

// headAt builds head i's distribution: its table's prediction, copy
// boosted, blended with the step's induction match at the head's
// offset. The result lives in sc.tbl.
func (g *Gen) headAt(sc *scratch, i int, seq, fview []int, matchJ, matchK int) []entry {
	table := g.m.heads[i].predict(&sc.acc, sc.tbl[:0], fview, 0)
	g.copyBoost(table)
	sc.tbl = g.finish(table, seq, matchJ, matchK, i+2)
	return sc.tbl
}

// inductionSupportGate is the minimum table probability an induction
// proposal needs to be blended in. Without it, prompt echoes inject
// natural-language tokens into code contexts and the decoder parrots
// the prompt verbatim.
const inductionSupportGate = 0.005

// finish blends the induction proposal into an id-sorted table, in
// place where it can, and returns the final distribution's entries.
func (g *Gen) finish(table []entry, seq []int, matchJ, matchK, offset int) []entry {
	if matchJ >= 0 && matchJ+offset < g.promptLen {
		proposal := seq[matchJ+offset]
		// For [FRAG]-trained models, induction proposals (which come
		// from the FRAG-free prompt) only make sense at content
		// positions; when the table says a [FRAG] marker is due, let
		// the table speak. The support gate keeps echoes inside the
		// model's own code distribution.
		propText := ""
		if !tokenizer.IsSpecial(proposal) {
			propText = g.m.tok.Token(proposal)
		}
		d := Dist{e: table}
		fromCode := matchJ+offset < len(g.codePos) && g.codePos[matchJ+offset]
		supported := d.Prob(proposal) >= inductionSupportGate ||
			(fromCode && isContentOrCodePunct(propText))
		if d.Prob(tokenizer.FragID) < 0.5 && supported && !isWhitespaceTok(propText) {
			// Confidence grows with match length: a minimal match
			// mixes at CopyStrength, an 8-token match approaches
			// certainty — long verbatim echoes of the prompt (module
			// headers) must override sparse short-context table hits.
			gw := 1 - math.Pow(1-g.m.cfg.CopyStrength, float64(matchK-1)/2)
			// Mix (1-gw)·table + gw·[proposal], normalized.
			for i := range table {
				table[i].v = (1 - gw) * table[i].v
			}
			if i, ok := d.find(proposal); ok {
				table[i].v += gw
			} else {
				table = slices.Insert(table, i, entry{int32(proposal), gw})
			}
			normalize(table)
			return table
		}
	}
	if len(table) == 0 {
		// Cold start: escape to <eos> so generation terminates.
		return append(table, entry{tokenizer.EosID, 1})
	}
	return table
}

// findInduction locates the longest (k >= minInduction) re-occurrence
// of the sequence suffix inside the prompt region; returns the match
// end position and length, or (-1, 0). Of equally long matches the
// latest one wins. One pass walks the end j down from the last
// candidate, counting at each j how far back the prompt agrees with the
// suffix, and stops once no earlier j can match longer.
//
// Two deliberate choices: the search is restricted to the prompt
// (matching self-generated text replays structural patterns and derails
// decoding, while echoing module headers from the prompt is exactly the
// useful behaviour), and [FRAG] markers are skipped when forming the
// suffix (the prompt never contains them, but an enriched model's
// generated suffix is full of them).
func (g *Gen) findInduction(seq []int) (int, int) {
	n := len(seq)
	// Collect up to maxInduction trailing content tokens, newest last.
	var suffix [maxInduction]int
	sn := 0
	for i := n - 1; i >= 0 && sn < maxInduction; i-- {
		if seq[i] == tokenizer.FragID {
			continue
		}
		sn++
		suffix[maxInduction-sn] = seq[i]
	}
	if sn < minInduction {
		return -1, 0
	}
	// A match must beat bestK; one ending at j is at most j+1 long, and
	// none is longer than sn.
	bestJ, bestK := -1, 0
	for j := min(g.promptLen-1, n-2); j >= bestK && bestK < sn; j-- {
		k := 0
		for k < sn && k <= j && seq[j-k] == suffix[maxInduction-1-k] {
			k++
		}
		if k >= minInduction && k > bestK {
			bestJ, bestK = j, k
		}
	}
	return bestJ, bestK
}

// PromptLen reports the number of prompt tokens the session was
// prepared with (drafters use it to tell prompt from generated text).
func (g *Gen) PromptLen() int { return g.promptLen }

// Tokenizer exposes the model's tokenizer — grammar-aware drafters
// decode the generated region back into text to consult the syntax
// oracle, and encode synthesized constructs into draft chains.
func (g *Gen) Tokenizer() *tokenizer.Tokenizer { return g.m.tok }
