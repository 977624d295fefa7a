package cluster

import (
	"context"
	"sync"
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
	reps := f.replicas
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
			got := router.Pick(key, cands).name
			if want == "" {
				want = got
			}
			if got != want {
				t.Errorf("key %q: pick %q under order %v, want %q (order-dependent rendezvous)", key, got, perm, want)
			}
		}
		// Determinism across repeated calls.
		cands := f.replicas
		if a, b := router.Pick(key, cands), router.Pick(key, cands); a != b {
			t.Errorf("key %q: repeated picks disagree (%s vs %s)", key, a.name, b.name)
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
	r := f.replicas[0]
	twin := &Replica{name: r.name}
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
// candidate names alone. A drowning replica keeps its keys —
// rebalancing is the group queue's job, at admission — so a prompt
// family's caches never split under load. The load is real: every
// replica is wedged on one decode, and a backlog waits in the group
// queue behind the one the keys were first picked on.
func TestAffinityIgnoresLoad(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 4, serve.Config{Workers: 1, MaxBatch: 1, QueueSize: 16, CacheSize: -1})
	for _, w := range faults {
		w.on.Store(true)
	}
	reps := f.replicas
	router := prefixAffinity{}
	keys := []string{"a", "b", "c", "d", "e", "f"}
	before := make([]*Replica, len(keys))
	for i, key := range keys {
		before[i] = router.Pick(key, reps)
	}

	drowning := before[0]
	const backlog = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := range len(reps) + backlog {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = drowning.Engine().TryGenerate(ctx, serve.Request{Prompt: prompts[0], Options: testOptions(int64(i))})
		}()
	}
	waitFor(t, "no backlog formed behind the wedged replicas", func() bool {
		return drowning.Engine().QueueDepth() == backlog
	})
	for i, key := range keys {
		if got := router.Pick(key, reps); got != before[i] {
			t.Errorf("key %q: replica %s lost its key to %s under a backlog", key, before[i].name, got.name)
		}
	}
	cancel()
	wg.Wait()
}
