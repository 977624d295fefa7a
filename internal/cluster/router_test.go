package cluster

import (
	"testing"

	"repro/internal/serve"
)

// Edge-case coverage for router.go: rendezvous determinism and tie
// behavior, and the spill escape hatch at saturation.

// TestRendezvousDeterministicAndOrderIndependent: the rendezvous pick
// is a pure function of (key, candidate names) — repeated calls agree,
// and the candidate ordering never matters (the property that makes
// affinity independent of how a replica list was assembled).
func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	f := newFleet(t, 5, nil, serve.Config{Workers: 1, CacheSize: -1})
	reps := f.Replicas()
	router := newPrefixAffinity()
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
	twin := &Replica{name: r.Name(), eng: r.Engine()} // Pick reads load via the engine
	router := newPrefixAffinity()
	for _, key := range []string{"", "a", "tie-break"} {
		if got := router.Pick(key, []*Replica{r, twin}); got != r {
			t.Errorf("key %q: tie broken toward the later candidate", key)
		}
		if got := router.Pick(key, []*Replica{twin, r}); got != twin {
			t.Errorf("key %q: tie broken toward the later candidate (twin first)", key)
		}
	}
}

// TestLeastLoadedSaturationTies: with every replica equally saturated
// there is no better sibling — leastLoaded keeps fleet order and the
// affinity router stays affine rather than spilling (2*least < load
// can never hold when loads are equal).
func TestLeastLoadedSaturationTies(t *testing.T) {
	f := newFleet(t, 4, nil, serve.Config{Workers: 1, CacheSize: -1})
	reps := f.Replicas()
	for _, r := range reps {
		r.inflight.Add(int64(spillMinLoad + 4)) // uniformly saturated, above spillMinLoad
	}
	defer func() {
		for _, r := range reps {
			r.inflight.Add(-int64(spillMinLoad + 4))
		}
	}()
	if got := leastLoaded(reps); got != reps[0] {
		t.Errorf("uniform saturation: leastLoaded picked %s, want fleet-order first %s", got.Name(), reps[0].Name())
	}
	router := newPrefixAffinity()
	for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
		affineWant := router.Pick(key, reps)
		_ = affineWant
	}
	if spills := router.spill.Load(); spills != 0 {
		t.Errorf("uniformly saturated fleet spilled %d picks — spill must need an idle sibling", spills)
	}

	// And the spill fires exactly when it should: affine drowning,
	// sibling near-idle.
	spillRouter := newPrefixAffinity()
	key := "spill-me"
	affine := spillRouter.Pick(key, reps) // all equal: stays affine
	affine.inflight.Add(64)
	defer affine.inflight.Add(-64)
	least := leastLoaded(reps)
	if got := spillRouter.Pick(key, reps); got != least {
		t.Errorf("drowning affine replica not spilled (got %s, want %s)", got.Name(), least.Name())
	}
	if spills := spillRouter.spill.Load(); spills != 1 {
		t.Errorf("spill counter = %d, want 1", spills)
	}
}
