package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"
)

// Router picks the replica that serves one request from the candidates
// that carry the requested model. Candidates are never empty and arrive
// in fleet order, so index-based tie-breaks are deterministic. The
// fleet routes by prefix affinity; the interface is the seam tests
// plug fixed-choice routers into.
type Router interface {
	// Pick chooses a replica for the routing key (the request's prompt
	// prefix — see affinityKey).
	Pick(key string, candidates []*Replica) *Replica
}

// routerName is the routing policy's spelling in metrics, /healthz and
// trace spans.
const routerName = "prefix-affinity"

// NewRouter returns the prefix-affinity router; "" names it too.
func NewRouter(name string) (Router, error) {
	if name != "" && name != routerName {
		return nil, fmt.Errorf("unknown router %q (want %s)", name, routerName)
	}
	return newPrefixAffinity(), nil
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
