package cluster

import (
	"testing"

	"repro/internal/serve"
)

// Edge-case coverage for router.go: rendezvous determinism, tie
// behavior, and a pick that load never moves.

// TestRendezvousDeterministicAndOrderIndependent: the rendezvous pick
// is a pure function of (key, candidate names) — repeated calls agree,
// and the candidate ordering never matters (the property that makes
// affinity independent of how a replica list was assembled).
func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	f := newFleet(t, 5, nil, serve.Config{Workers: 1, CacheSize: -1})
	reps := f.Replicas()
	router := prefixAffinity{}
	perms := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{3, 4, 0, 2, 1},
	}
	for _, key := range []string{"", "a", "module adder(", "module adder(input a, input b", "xyzzy"} {
		want := ""
		for _, perm := range perms {
			cands := make([]*Replica, len(perm))
			for i, p := range perm {
				cands[i] = reps[p]
			}
			got := router.Pick(key, cands).Name()
			if want == "" {
				want = got
			}
			if got != want {
				t.Errorf("key %q: pick %q under order %v, want %q (order-dependent rendezvous)", key, got, perm, want)
			}
		}
		// Determinism across repeated calls.
		cands := f.Replicas()
		if a, b := router.Pick(key, cands), router.Pick(key, cands); a != b {
			t.Errorf("key %q: repeated picks disagree (%s vs %s)", key, a.Name(), b.Name())
		}
	}
}

// TestRendezvousScoreTies: routeScore ties are broken by candidate
// order (strict > keeps the earlier winner) — pinned on a synthetic
// exact tie: a replica compared against itself under two aliases.
func TestRendezvousScoreTies(t *testing.T) {
	// Same name → identical score by construction; first occurrence
	// must win for every key, whichever twin comes first.
	f := newFleet(t, 2, nil, serve.Config{Workers: 1, CacheSize: -1})
	r := f.Replicas()[0]
	twin := &Replica{name: r.Name()}
	router := prefixAffinity{}
	for _, key := range []string{"", "a", "tie-break"} {
		if got := router.Pick(key, []*Replica{r, twin}); got != r {
			t.Errorf("key %q: tie broken toward the later candidate", key)
		}
		if got := router.Pick(key, []*Replica{twin, r}); got != twin {
			t.Errorf("key %q: tie broken toward the later candidate (twin first)", key)
		}
	}
}

// TestAffinityIgnoresLoad: the pick is a function of the key and the
// candidate names alone. A drowning affine replica keeps its keys —
// rebalancing is the steal queue's job, at service time — so a prompt
// family's caches never split under load.
func TestAffinityIgnoresLoad(t *testing.T) {
	f := newFleet(t, 4, nil, serve.Config{Workers: 1, CacheSize: -1})
	reps := f.Replicas()
	router := prefixAffinity{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
		affine := router.Pick(key, reps)
		affine.inflight.Add(64)
		if got := router.Pick(key, reps); got != affine {
			t.Errorf("key %q: drowning affine replica %s lost its key to %s", key, affine.Name(), got.Name())
		}
		affine.inflight.Add(-64)
	}
}
