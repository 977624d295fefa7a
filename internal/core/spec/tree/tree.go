// Package tree provides the draft-tree arena of token-tree speculative
// drafting: a compact, parent-indexed node store a spec.Draft carries
// with branching candidate continuations and the decoder's accept walk
// screens in one pass.
//
// Linear speculative drafting proposes ONE continuation run per step;
// the first verifier rejection kills the whole tail, wasting the rest
// of the verification batch. A draft tree instead branches top-k
// candidates per position (per Medusa head, per prompt-lookup match),
// so a rejection only prunes one subtree — the verifier accepts the
// deepest surviving root path, raising mean accepted length without
// changing output quality ("A Theoretical Perspective for Speculative
// Decoding Algorithm": multi-candidate verification strictly dominates
// single-draft at equal acceptance rates).
//
// The arena is deliberately minimal: nodes are append-only, identified
// by dense indices (parents always precede children), with sibling
// links preserving best-first insertion order and per-parent dedup so
// drafters composing branches (the hybrid drafter unions Medusa heads
// with lookup matches) cannot propose the same path twice. It has no
// model or strategy dependencies — drafting policy lives in
// internal/core/spec, verification in internal/core.
package tree

import "fmt"

// Origin records which drafting mechanism proposed a node — branch
// provenance for diagnostics, tree dumps and the bench harness.
type Origin uint8

// Node provenance values.
const (
	// OriginRoot marks the root sentinel only.
	OriginRoot Origin = iota
	// OriginLinear marks nodes grown by the chain walk: a linear
	// draft from the root, or the chain below a surviving tree leaf.
	OriginLinear
	// OriginHead marks nodes drafted from a Medusa head's top-k.
	OriginHead
	// OriginLookup marks nodes drafted from a prompt-lookup n-gram match.
	OriginLookup
	// OriginGrammar marks nodes drafted from a synthesized grammar
	// construct (sensitivity list, closer chain, ...).
	OriginGrammar
)

// String names the provenance.
func (o Origin) String() string {
	switch o {
	case OriginRoot:
		return "root"
	case OriginLinear:
		return "linear"
	case OriginHead:
		return "head"
	case OriginLookup:
		return "lookup"
	case OriginGrammar:
		return "grammar"
	}
	return "?"
}

// none is the nil node index for child/sibling links.
const none = int32(-1)

// Root is the index of the root sentinel every tree is created with.
// The root carries no token: its children propose draft position 0.
const Root = 0

// Node is one draft proposal: the token, its parent, its depth (root =
// 0, so depth d proposes the token at draft offset d-1) and its branch
// provenance. Child links are arena-internal.
type Node struct {
	Token  int
	Parent int32
	Depth  int32
	Origin Origin

	firstChild  int32
	lastChild   int32
	nextSibling int32
}

// Tree is a compact parent-indexed draft-tree arena. The zero value is
// not usable; create trees with New.
type Tree struct {
	nodes  []Node
	budget int
}

// New returns an empty tree (root only). budget caps the number of
// draft nodes (root excluded): Add refuses insertions past it. A
// budget <= 0 is unbounded — a linear draft's walk uses that, since its
// chain is already bounded by the drafter's own run length.
func New(budget int) *Tree {
	t := &Tree{budget: budget}
	t.nodes = append(t.nodes, Node{Token: -1, Parent: none, Origin: OriginRoot, firstChild: none, lastChild: none, nextSibling: none})
	return t
}

// DraftNodes returns the number of draft proposals (root excluded) —
// the node-budget numerator the serving metrics report.
func (t *Tree) DraftNodes() int { return len(t.nodes) - 1 }

// Full reports whether the node budget is exhausted.
func (t *Tree) Full() bool { return t.budget > 0 && t.DraftNodes() >= t.budget }

// Node returns node id by value. It panics on an out-of-range id, like
// a slice index — ids only come from Add and the walk helpers.
func (t *Tree) Node(id int) Node { return t.nodes[id] }

// Add inserts token as a child of parent with the given provenance and
// returns the child's id. Children dedup per (parent, token): a
// duplicate insertion returns the existing child (added=false) with
// its original provenance and sibling position intact, so composed
// drafters converge on shared paths instead of forking them. When the
// tree is at budget and the child does not already exist, Add returns
// (-1, false).
func (t *Tree) Add(parent, token int, origin Origin) (id int, added bool) {
	if parent < 0 || parent >= len(t.nodes) {
		panic(fmt.Sprintf("tree: Add to invalid parent %d (len %d)", parent, len(t.nodes)))
	}
	for c := t.nodes[parent].firstChild; c != none; c = t.nodes[c].nextSibling {
		if t.nodes[c].Token == token {
			return int(c), false
		}
	}
	if t.Full() {
		return -1, false
	}
	id = len(t.nodes)
	t.nodes = append(t.nodes, Node{
		Token:  token,
		Parent: int32(parent),
		Depth:  t.nodes[parent].Depth + 1,
		Origin: origin,

		firstChild:  none,
		lastChild:   none,
		nextSibling: none,
	})
	p := &t.nodes[parent]
	if p.firstChild == none {
		p.firstChild = int32(id)
	} else {
		t.nodes[p.lastChild].nextSibling = int32(id)
	}
	p.lastChild = int32(id)
	return id, true
}

// Children appends node id's children to buf in insertion (best-first)
// order and returns it.
func (t *Tree) Children(id int, buf []int) []int {
	for c := t.nodes[id].firstChild; c != none; c = t.nodes[c].nextSibling {
		buf = append(buf, int(c))
	}
	return buf
}

// Depth returns node id's depth (root = 0).
func (t *Tree) Depth(id int) int { return int(t.nodes[id].Depth) }

// PathTokens appends the tokens along the root→id path (root's
// tokenless sentinel excluded) to buf and returns it — the draft run a
// verifier accepts when id is the deepest surviving node.
func (t *Tree) PathTokens(id int, buf []int) []int {
	start := len(buf)
	for n := int32(id); n != Root; n = t.nodes[n].Parent {
		buf = append(buf, t.nodes[n].Token)
	}
	for l, r := start, len(buf)-1; l < r; l, r = l+1, r-1 {
		buf[l], buf[r] = buf[r], buf[l]
	}
	return buf
}

// Validate checks the arena invariants — parent precedes child, depth
// increments, sibling lists are consistent and duplicate-free, budget
// respected — and returns the first violation. Tests and the fuzz
// harness call it after every mutation batch.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 || t.nodes[Root].Parent != none || t.nodes[Root].Depth != 0 {
		return fmt.Errorf("tree: malformed root")
	}
	if t.budget > 0 && t.DraftNodes() > t.budget {
		return fmt.Errorf("tree: %d draft nodes exceed budget %d", t.DraftNodes(), t.budget)
	}
	for i := 1; i < len(t.nodes); i++ {
		n := t.nodes[i]
		if n.Parent < 0 || int(n.Parent) >= i {
			return fmt.Errorf("tree: node %d parent %d not an earlier node", i, n.Parent)
		}
		if n.Depth != t.nodes[n.Parent].Depth+1 {
			return fmt.Errorf("tree: node %d depth %d under parent depth %d", i, n.Depth, t.nodes[n.Parent].Depth)
		}
		if n.Origin == OriginRoot {
			return fmt.Errorf("tree: node %d carries the root origin", i)
		}
	}
	for i := 0; i < len(t.nodes); i++ {
		seen := map[int]bool{}
		count := 0
		last := none
		for c := t.nodes[i].firstChild; c != none; c = t.nodes[c].nextSibling {
			if int(t.nodes[c].Parent) != i {
				return fmt.Errorf("tree: node %d in node %d's child list but parented to %d", c, i, t.nodes[c].Parent)
			}
			if seen[t.nodes[c].Token] {
				return fmt.Errorf("tree: node %d has duplicate child token %d", i, t.nodes[c].Token)
			}
			seen[t.nodes[c].Token] = true
			last = c
			if count++; count > len(t.nodes) {
				return fmt.Errorf("tree: node %d sibling list cycles", i)
			}
		}
		if t.nodes[i].lastChild != last {
			return fmt.Errorf("tree: node %d lastChild %d, want %d", i, t.nodes[i].lastChild, last)
		}
	}
	return nil
}
