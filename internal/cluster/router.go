package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
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
	return prefixAffinity{}, nil
}

// affinityPrefixLen bounds how much of the prompt feeds the routing
// hash. Hashing only a prefix sends prompts that share their opening —
// retries, n-samples-per-prompt sweeps, templated families — to the
// same replica, which is where per-replica caches (result LRU, prefix
// trie) can actually hit.
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
// The pick never reads load: a hot prefix is rebalanced at service
// time, by its replica's model group stealing the overflow
// (dispatch.go), not by routing it away from its warm caches.
type prefixAffinity struct{}

func (prefixAffinity) Pick(key string, candidates []*Replica) *Replica {
	best := candidates[0]
	bestScore := routeScore(key, best.name)
	for _, r := range candidates[1:] {
		if s := routeScore(key, r.name); s > bestScore {
			best, bestScore = r, s
		}
	}
	return best
}
