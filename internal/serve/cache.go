package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// cacheKey identifies one generation. Decoding is fully deterministic
// given (model, prompt, options) — see core.Options.Seed — and an
// Engine is bound to exactly one model, so the prompt plus the full
// options struct (which embeds the seed) is a complete key. The prompt
// component is the canonical packed token-id key (Engine.canonicalize via
// model.PromptKeyString), not the raw request string: spellings that
// tokenize identically decode identically and share one entry.
type cacheKey struct {
	prompt string
	opts   core.Options
}

// lruCache is a mutex-guarded LRU over completed generations. Cached
// *core.Result values are shared across callers and must be treated as
// immutable.
type lruCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *core.Result
}

func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, order: list.New(), items: map[cacheKey]*list.Element{}}
}

// get returns the cached result for key, refreshing its recency.
func (c *lruCache) get(key cacheKey) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// add inserts (or refreshes) a completed generation, evicting the
// least-recently-used entry when over capacity.
func (c *lruCache) add(key cacheKey, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached generations.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
