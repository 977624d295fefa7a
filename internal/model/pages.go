package model

// Paged session residency. A decode that runs for thousands of steps —
// or is preempted and parked mid-flight by the continuous scheduler —
// must not have the prompt session it is conditioned on evicted out
// from under its working set, or every resume pays a full session
// rebuild. The trie cache therefore exposes a leasing layer: Acquire
// returns the prompt's session like Gen does, but additionally pins
// ("takes a page reference on") every session-bearing trie node along
// the prompt's prefix path. Pinned nodes are skipped by byte-budget
// eviction until the last lease drops its references, so the pages
// backing in-flight and parked decodes stay resident while stale,
// unreferenced traffic is still reclaimed.
//
// The vocabulary maps onto the trie deliberately: fork = take page
// refs (a lease on a longer prompt pins the shared stem pages its
// session forked from), evict = drop refs (Release), preempt = park
// the page set (the scheduler holds the lease across the park).
// Leases are residency hints only — a *Gen is immutable and remains
// valid after eviction — so a dropped or missing pin can never corrupt
// a decode, it can only make a later fork rebuild more than it had to.

// SessionLease pins the trie pages backing one decode's prompt session
// for the lifetime of the decode (or its parked checkpoint). Obtained
// from TrieCache.Acquire; Release is idempotent and nil-safe, so the
// cacheless path can hold a nil lease and release it unconditionally.
type SessionLease struct {
	c     *TrieCache // nil: nothing pinned (foreign model)
	gen   *Gen
	nodes []*trieNode
	bytes int64
}

// Gen returns the leased session (nil on a nil lease).
func (l *SessionLease) Gen() *Gen {
	if l == nil {
		return nil
	}
	return l.gen
}

// Pages reports how many trie pages (session-bearing nodes) the lease
// holds references on.
func (l *SessionLease) Pages() int {
	if l == nil {
		return 0
	}
	return len(l.nodes)
}

// Bytes reports the estimated retained size of the leased pages.
func (l *SessionLease) Bytes() int64 {
	if l == nil {
		return 0
	}
	return l.bytes
}

// Release drops the lease's page references, making the pages
// evictable again once no other lease pins them. Idempotent; safe on
// nil and on leases that never pinned anything.
func (l *SessionLease) Release() {
	if l == nil || l.c == nil || l.nodes == nil {
		if l != nil {
			l.nodes = nil
		}
		return
	}
	c := l.c
	c.mu.Lock()
	for _, n := range l.nodes {
		n.pins--
		if n.pins == 0 {
			c.pinnedPages--
			c.pinnedBytes -= n.genBytes
		}
	}
	c.mu.Unlock()
	l.nodes = nil
}

// Acquire is Gen plus page pinning: fetch (or build) the prompt's
// session exactly like Gen, then pin every session-bearing node on the
// prompt's prefix path — the page set a preempted decode parks with.
// The caller must Release when the decode finishes or is dropped.
// Concurrent eviction between the fetch and the pin walk can only
// shrink the pinned set (the session pointer itself stays valid), so
// the lease is always safe, at worst smaller than ideal.
func (c *TrieCache) Acquire(m *Model, promptIDs []int) *SessionLease {
	g := c.Gen(m, promptIDs)
	l := &SessionLease{gen: g}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m != m {
		return l // foreign model: Gen bypassed the trie, nothing to pin
	}
	c.leases++
	n := c.root
	pos := 0
	for {
		if n.gen != nil {
			if n.pins == 0 {
				c.pinnedPages++
				c.pinnedBytes += n.genBytes
			}
			n.pins++
			l.nodes = append(l.nodes, n)
			l.bytes += n.genBytes
		}
		if pos == len(promptIDs) {
			break
		}
		child := n.children[promptIDs[pos]]
		if child == nil || len(child.span) > len(promptIDs)-pos {
			break
		}
		matched := true
		for i, id := range child.span {
			if promptIDs[pos+i] != id {
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
	l.c = c
	return l
}
