package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Router picks the replica that serves one request from the candidates
// that carry the requested model. Candidates are never empty and arrive
// in fleet order, so index-based tie-breaks are deterministic.
type Router interface {
	// Name is the flag/metrics spelling of the policy.
	Name() string
	// Pick chooses a replica for the routing key (the request's prompt
	// prefix — see affinityKey).
	Pick(key string, candidates []*Replica) *Replica
}

// NewRouter resolves a routing policy by its flag spelling.
func NewRouter(name string) (Router, error) {
	switch name {
	case "", "prefix-affinity":
		return newPrefixAffinity(), nil
	case "least-loaded":
		return leastLoadedRouter{}, nil
	case "round-robin":
		return &roundRobinRouter{}, nil
	case "random":
		return newRandomRouter(1), nil
	}
	return nil, fmt.Errorf("unknown router %q (want prefix-affinity, least-loaded, round-robin or random)", name)
}

// affinityPrefixLen bounds how much of the prompt feeds the routing
// hash. Hashing only a prefix sends prompts that share their opening —
// retries, n-samples-per-prompt sweeps, templated families — to the
// same replica, which is where per-replica caches (result LRU, prefix
// trie, single-flight table) can actually hit.
const affinityPrefixLen = 96

// affinityKey derives the routing key for a prompt.
func affinityKey(prompt string) string {
	if len(prompt) > affinityPrefixLen {
		return prompt[:affinityPrefixLen]
	}
	return prompt
}

// routeScore is the rendezvous weight of (key, replica): FNV-1a (the
// stdlib hasher — no crypto needed, only spread) over the key and the
// replica name with a separator byte between them.
func routeScore(key, name string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, name)
	return h.Sum64()
}

// prefixAffinity is consistent hashing in rendezvous (highest-random-
// weight) form: each (key, replica) pair gets a score and the highest
// score wins. Rendezvous gives the two properties the fleet needs with
// no ring state: a key maps to the same replica on every request, and
// adding or removing a replica remaps only the keys that hashed to it.
// A loaded-affine escape hatch falls back to the least-loaded replica
// when the affine one is drowning while siblings idle — affinity is a
// cache optimization, not a correctness rule, and pinning a hot prefix
// to a wedged replica would turn the optimization into a hotspot.
type prefixAffinity struct {
	affine atomic.Uint64 // picks that stayed on the affine replica
	spill  atomic.Uint64 // picks that fell back to least-loaded
}

func newPrefixAffinity() *prefixAffinity { return &prefixAffinity{} }

func (p *prefixAffinity) Name() string { return "prefix-affinity" }

func (p *prefixAffinity) Pick(key string, candidates []*Replica) *Replica {
	best := candidates[0]
	bestScore := routeScore(key, best.name)
	for _, r := range candidates[1:] {
		if s := routeScore(key, r.name); s > bestScore {
			best, bestScore = r, s
		}
	}
	// Spill when the affine replica has a real backlog and some sibling
	// is at most half as loaded: the handoff cost (cold caches there)
	// is then smaller than the queueing cost here.
	if load := best.load(); load > spillMinLoad {
		least := leastLoaded(candidates)
		if least != best && 2*least.load() < load {
			p.spill.Add(1)
			return least
		}
	}
	p.affine.Add(1)
	return best
}

// Stats reports how many picks stayed affine vs spilled to the
// least-loaded fallback.
func (p *prefixAffinity) Stats() (affine, spill uint64) {
	return p.affine.Load(), p.spill.Load()
}

// spillMinLoad is the backlog (queued + inflight) below which the
// affine replica is always kept: tiny queues drain faster than a cold
// cache rebuilds.
const spillMinLoad = 4

// leastLoaded returns the candidate with the smallest backlog, ties
// broken by fleet order (deterministic).
func leastLoaded(candidates []*Replica) *Replica {
	best := candidates[0]
	bestLoad := best.load()
	for _, r := range candidates[1:] {
		if l := r.load(); l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// leastLoadedRouter always picks the smallest backlog — the classic
// load balancer, blind to cache locality.
type leastLoadedRouter struct{}

func (leastLoadedRouter) Name() string { return "least-loaded" }
func (leastLoadedRouter) Pick(_ string, candidates []*Replica) *Replica {
	return leastLoaded(candidates)
}

// roundRobinRouter cycles through candidates regardless of key or load.
type roundRobinRouter struct {
	n atomic.Uint64
}

func (*roundRobinRouter) Name() string { return "round-robin" }
func (r *roundRobinRouter) Pick(_ string, candidates []*Replica) *Replica {
	return candidates[(r.n.Add(1)-1)%uint64(len(candidates))]
}

// randomRouter picks uniformly at random — the routing-policy control
// in the fleet bench (what prefix affinity must beat on cache hits).
// Seeded so bench runs are reproducible.
type randomRouter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newRandomRouter(seed int64) *randomRouter {
	return &randomRouter{rng: rand.New(rand.NewSource(seed))}
}

func (*randomRouter) Name() string { return "random" }
func (r *randomRouter) Pick(_ string, candidates []*Replica) *Replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	return candidates[r.rng.Intn(len(candidates))]
}
