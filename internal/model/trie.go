package model

import (
	"container/list"
	"sync"
)

// TrieCache is a token-prefix trie of prepared generation sessions
// (*Gen). Preparing a Gen walks the whole prompt — keyword extraction
// with IDF filtering, the copy-boost token set, code-line marking — so
// the trie keys sessions on true token prefixes: a lookup returns the
// longest cached prefix of the requested prompt, and the missing suffix
// is prepared by a copy-on-extend Gen.Fork over only the uncached
// tokens. Sessions returned are identical to m.NewGen's, so the cache
// never changes decode outputs, only the work of preparing them. On
// fleets where the affinity router concentrates shared-prefix traffic,
// this turns "miss, rebuild everything" into "partial hit, extend the
// stem" — the tokens-recomputed-per-request drop PrefixBench measures.
//
// Structure: a compressed (radix) trie over token ids. Nodes are
// immutable from a reader's point of view — sessions (*Gen) never
// mutate after construction, edges only change under the cache lock —
// so one session is safely shared by any number of concurrent decoders
// and forks. Sessions live at every previously-requested prompt and,
// crucially, at every divergence point between prompts: when a new
// prompt splits an existing edge, the shared stem's session is
// materialized so future siblings fork from the stem instead of from a
// much shallower ancestor.
//
// Eviction is staleness-aware: session-bearing nodes form an LRU by
// last touch, and when the estimated retained bytes exceed the budget
// the stalest sessions are dropped (and structural nodes that no
// longer lead anywhere are pruned). Unlike an entry-count LRU this
// accounts long prompts as costing more than short ones. A decode
// holds its own *Gen, which stays valid after eviction, so the trie
// can evict any session at any time: eviction only costs a later
// lookup a rebuild.
//
// A TrieCache binds to the first Model it serves; sessions are
// model-specific, so lookups with a different model bypass the cache
// rather than cross-contaminate.
type TrieCache struct {
	mu       sync.Mutex
	m        *Model
	maxBytes int64
	bytes    int64
	root     *trieNode
	lru      *list.List // session-bearing nodes; front = most recently touched
	clock    uint64     // logical last-touch clock

	hits, partialHits, misses uint64
	tokensSaved               uint64
	depthHits                 [TrieDepthBuckets]uint64
}

// DefaultTrieBytes is the byte budget selected by NewTrieCache(0).
const DefaultTrieBytes = 64 << 20

// TrieDepthBuckets sizes the per-depth hit histogram: bucket i counts
// hits whose matched prefix depth d satisfies 2^i <= d < 2^(i+1)
// (bucket 0 additionally holds d == 1; the last bucket is open-ended).
const TrieDepthBuckets = 12

// trieNode is one radix-trie node: the edge span from its parent, the
// cumulative prefix depth, and optionally the prepared session for the
// prefix ending here. Nodes without a session are structural — shared
// stems whose session was evicted or never materialized.
type trieNode struct {
	parent   *trieNode
	span     []int // edge label from parent (root: empty)
	depth    int   // prefix length through span
	children map[int]*trieNode

	gen      *Gen
	genBytes int64
	el       *list.Element // LRU slot while gen != nil
	touch    uint64
}

// NewTrieCache creates a prefix trie holding sessions within an
// estimated byte budget (0 selects DefaultTrieBytes).
func NewTrieCache(maxBytes int64) *TrieCache {
	if maxBytes <= 0 {
		maxBytes = DefaultTrieBytes
	}
	return &TrieCache{
		maxBytes: maxBytes,
		root:     &trieNode{children: map[int]*trieNode{}},
		lru:      list.New(),
	}
}

// spanBytes is the accounted weight of an edge label.
func spanBytes(span []int) int64 { return int64(len(span))*8 + 48 }

// depthBucket maps a matched prefix depth to its histogram bucket.
func depthBucket(d int) int {
	b := 0
	for d > 1 {
		d >>= 1
		b++
	}
	if b >= TrieDepthBuckets {
		b = TrieDepthBuckets - 1
	}
	return b
}

// Gen returns the prepared session for promptIDs: the cached session on
// an exact prefix hit, a copy-on-extend fork of the longest cached
// prefix on a partial hit, or a fresh build on a miss — in every case
// identical to m.NewGen(promptIDs). Safe for concurrent use; the
// returned *Gen is shared and immutable.
func (c *TrieCache) Gen(m *Model, promptIDs []int) *Gen {
	g, _ := c.GenDepth(m, promptIDs)
	return g
}

// GenDepth is Gen that also reports how many leading prompt tokens the
// cache already held a session for: len(promptIDs) on an exact hit,
// the forked prefix's length on a partial hit, 0 on a miss (and for a
// foreign model, which bypasses the cache).
func (c *TrieCache) GenDepth(m *Model, promptIDs []int) (*Gen, int) {
	c.mu.Lock()
	if c.m == nil {
		c.m = m
	} else if c.m != m {
		// Foreign model: sessions would be wrong, skip the cache.
		c.mu.Unlock()
		return m.NewGen(promptIDs), 0
	}
	best, depth := c.lookupLocked(promptIDs)
	c.clock++
	if best != nil {
		best.touch = c.clock
		c.lru.MoveToFront(best.el)
	}
	switch {
	case best != nil && depth == len(promptIDs):
		c.hits++
		c.tokensSaved += uint64(depth)
		c.depthHits[depthBucket(depth)]++
		g := best.gen
		c.mu.Unlock()
		return g, depth
	case best != nil:
		c.partialHits++
		c.tokensSaved += uint64(depth)
		c.depthHits[depthBucket(depth)]++
	default:
		c.misses++
	}
	var parent *Gen
	if best != nil {
		parent = best.gen
	}
	c.mu.Unlock()

	// Build outside the lock: session preparation is the expensive part
	// and must not serialize concurrent decoders. Forking reads only the
	// parent's immutable state. Duplicate concurrent builds of one
	// prompt are benign: insertLocked keeps the first session attached
	// and every caller returns whatever the node holds.
	var g *Gen
	if parent != nil {
		g = parent.Fork(promptIDs[depth:])
	} else {
		g = m.NewGen(promptIDs)
	}

	c.mu.Lock()
	leaf, split := c.insertLocked(promptIDs, g)
	g = leaf.gen
	stemDepth := 0
	if split != nil && split.gen == nil {
		stemDepth = split.depth
	}
	c.evictLocked(leaf)
	c.mu.Unlock()

	if stemDepth > 0 {
		// The insert split an existing edge: promptIDs[:stemDepth] is a
		// prefix shared by at least two distinct prompts — exactly the
		// stem future siblings will want to fork from. Materialize its
		// session now (again outside the lock). Usually the looked-up
		// parent covers a prefix of the stem and the fork is over stem
		// tokens only — but depth was captured in the earlier critical
		// section, and between the two the matched path may have been
		// evicted and re-formed shallower by concurrent traffic, leaving
		// stemDepth < depth; build the stem from scratch then.
		var gs *Gen
		if parent != nil && stemDepth >= depth {
			gs = parent.Fork(promptIDs[depth:stemDepth])
		} else {
			gs = m.NewGen(promptIDs[:stemDepth])
		}
		c.mu.Lock()
		if n := c.nodeAtLocked(promptIDs[:stemDepth]); n != nil && n.gen == nil {
			c.clock++
			n.gen, n.genBytes, n.touch = gs, gs.MemBytes(), c.clock
			n.el = c.lru.PushFront(n)
			c.bytes += n.genBytes
			c.evictLocked(nil)
		}
		c.mu.Unlock()
	}
	return g, depth
}

// lookupLocked walks the trie along promptIDs and returns the deepest
// session-bearing node whose prefix the prompt extends (possibly the
// whole prompt), with its depth. Returns (nil, 0) when no cached
// prefix exists.
func (c *TrieCache) lookupLocked(ids []int) (*trieNode, int) {
	n := c.root
	pos := 0
	var best *trieNode
	for {
		if n.gen != nil {
			best = n
		}
		if pos == len(ids) {
			break
		}
		child := n.children[ids[pos]]
		if child == nil || len(child.span) > len(ids)-pos {
			// No edge, or the edge overshoots the prompt: any session at
			// or below child covers a prefix longer than the prompt and
			// cannot seed it.
			break
		}
		matched := true
		for i, id := range child.span {
			if ids[pos+i] != id {
				matched = false
				break
			}
		}
		if !matched {
			break
		}
		pos += len(child.span)
		n = child
	}
	if best == nil {
		return nil, 0
	}
	return best, best.depth
}

// nodeAtLocked returns the node whose prefix is exactly ids, nil if the
// trie has no node at that boundary (e.g. it was pruned meanwhile).
func (c *TrieCache) nodeAtLocked(ids []int) *trieNode {
	n := c.root
	pos := 0
	for pos < len(ids) {
		child := n.children[ids[pos]]
		if child == nil || len(child.span) > len(ids)-pos {
			return nil
		}
		for i, id := range child.span {
			if ids[pos+i] != id {
				return nil
			}
		}
		pos += len(child.span)
		n = child
	}
	return n
}

// insertLocked attaches g at the node for ids (creating and splitting
// nodes as needed) and returns that node plus the edge-split node, if
// the insert created one — the shared stem the caller should
// materialize a session for. If the node already holds a session (a
// concurrent duplicate build won the race), the existing session is
// kept: first writer wins, and callers return the node's session.
func (c *TrieCache) insertLocked(ids []int, g *Gen) (leaf, split *trieNode) {
	n := c.root
	pos := 0
	for pos < len(ids) {
		child := n.children[ids[pos]]
		if child == nil {
			nn := &trieNode{
				parent:   n,
				span:     append([]int(nil), ids[pos:]...),
				depth:    len(ids),
				children: map[int]*trieNode{},
			}
			n.children[ids[pos]] = nn
			c.bytes += spanBytes(nn.span)
			n = nn
			pos = len(ids)
			break
		}
		k := 0
		for k < len(child.span) && pos+k < len(ids) && child.span[k] == ids[pos+k] {
			k++
		}
		if k == len(child.span) {
			n = child
			pos += k
			continue
		}
		// Diverged (or ran out of prompt) mid-edge: split the edge at k.
		mid := &trieNode{
			parent:   n,
			span:     append([]int(nil), child.span[:k]...),
			depth:    child.depth - len(child.span) + k,
			children: map[int]*trieNode{},
		}
		child.span = append([]int(nil), child.span[k:]...)
		child.parent = mid
		mid.children[child.span[0]] = child
		n.children[mid.span[0]] = mid
		c.bytes += spanBytes(nil) // net new node overhead; span tokens just moved
		if pos+k < len(ids) {
			// True divergence: mid is a shared stem of two prompts.
			split = mid
			nn := &trieNode{
				parent:   mid,
				span:     append([]int(nil), ids[pos+k:]...),
				depth:    len(ids),
				children: map[int]*trieNode{},
			}
			mid.children[ids[pos+k]] = nn
			c.bytes += spanBytes(nn.span)
			n = nn
		} else {
			// The prompt ends exactly at the split: mid IS its node.
			n = mid
		}
		pos = len(ids)
		break
	}
	c.clock++
	n.touch = c.clock
	if n.gen == nil {
		n.gen, n.genBytes = g, g.MemBytes()
		c.bytes += n.genBytes
		n.el = c.lru.PushFront(n)
	} else {
		c.lru.MoveToFront(n.el)
	}
	return n, split
}

// evictLocked drops the stalest sessions until the byte budget holds,
// never touching keep (the session just inserted — the cache must stay
// useful even when one session exceeds the budget), which is skipped in
// place so stale sessions behind it are still reclaimed. Structural
// nodes left childless and session-less are pruned upward;
// single-child structural chains are kept un-merged (re-merging edges
// buys little once spans are shared, and keeps eviction O(evicted)).
func (c *TrieCache) evictLocked(keep *trieNode) {
	for e := c.lru.Back(); e != nil && c.bytes > c.maxBytes; {
		node := e.Value.(*trieNode)
		prev := e.Prev()
		if node == keep {
			e = prev
			continue
		}
		c.lru.Remove(e)
		c.bytes -= node.genBytes
		node.gen, node.genBytes, node.el = nil, 0, nil
		for n := node; n != c.root && n.gen == nil && len(n.children) == 0; {
			p := n.parent
			delete(p.children, n.span[0])
			c.bytes -= spanBytes(n.span)
			n.parent = nil
			n = p
		}
		e = prev
	}
}

// SessionStats snapshots the cache's counters.
func (c *TrieCache) SessionStats() SessionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SessionStats{
		Hits:        c.hits,
		PartialHits: c.partialHits,
		Misses:      c.misses,
		TokensSaved: c.tokensSaved,
		Entries:     c.lru.Len(),
		Bytes:       c.bytes,
	}
}

// DepthHits returns the per-depth histogram of prefix reuse: bucket i
// counts hits (exact and partial) whose matched depth d had
// 2^i <= d < 2^(i+1), with depth 1 in bucket 0.
func (c *TrieCache) DepthHits() [TrieDepthBuckets]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depthHits
}

// Len reports the current number of cached sessions.
func (c *TrieCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the cache's estimated retained memory.
func (c *TrieCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Walk visits every session-bearing node as (prefix token ids, session)
// — diagnostics for tests (the concurrency soak re-derives each node's
// prefix and checks the stored session against a fresh build). The
// callback runs under the cache lock; it must not call back in.
func (c *TrieCache) Walk(fn func(prefix []int, g *Gen)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rec func(n *trieNode, prefix []int)
	rec = func(n *trieNode, prefix []int) {
		prefix = append(prefix, n.span...)
		if n.gen != nil {
			fn(append([]int(nil), prefix...), n.gen)
		}
		for _, child := range n.children {
			rec(child, prefix)
		}
	}
	rec(c.root, nil)
}
