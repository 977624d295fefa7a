package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/serve"
)

// Satellite edge-case coverage for router.go and shed.go: rendezvous
// determinism and tie behavior, the spill escape hatch at saturation,
// admission-chain ordering, and Retry-After value bounds.

// TestRendezvousDeterministicAndOrderIndependent: the rendezvous pick
// is a pure function of (key, candidate names) — repeated calls agree,
// and the candidate ordering never matters (the property that makes
// affinity survive replica list churn from scaling).
func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	f := newFleet(t, 5, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
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
	f := newFleet(t, 2, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
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
	f := newFleet(t, 4, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
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

// recordPolicy is a fake ShedPolicy that logs its consultations.
type recordPolicy struct {
	name   string
	refuse bool
	calls  *[]string
}

func (p recordPolicy) Name() string { return p.name }
func (p recordPolicy) Admit(_ context.Context, _ serve.Request, load Load) error {
	*p.calls = append(*p.calls, p.name)
	if p.refuse {
		return &serve.ShedError{Policy: p.name, Reason: "refused by test", RetryAfter: retryAfterFor(load)}
	}
	return nil
}

// TestAdmissionChainOrdering: policies run in chain order, the first
// refusal wins (later policies are never consulted for that request),
// and the shed is accounted to the refusing policy.
func TestAdmissionChainOrdering(t *testing.T) {
	_, prompts := fixture(t)
	var calls []string
	chain := []ShedPolicy{
		recordPolicy{name: "first", calls: &calls},
		recordPolicy{name: "second", refuse: true, calls: &calls},
		recordPolicy{name: "third", calls: &calls},
	}
	f := newFleet(t, 1, nil, chain, serve.Config{Workers: 1, CacheSize: -1})

	_, err := f.TryGenerate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(0)})
	var se *serve.ShedError
	if !errors.As(err, &se) || se.Policy != "second" {
		t.Fatalf("err=%v, want shed by policy %q", err, "second")
	}
	want := []string{"first", "second"}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("admission consultations %v, want %v (first refusal must end the chain)", calls, want)
	}
	m := f.Metrics()
	if m.ShedByPolicy["second"] != 1 {
		t.Errorf("shed accounted to %v, want second=1", m.ShedByPolicy)
	}
	if m.ShedByPolicy["first"] != 0 || m.ShedByPolicy["third"] != 0 {
		t.Errorf("non-refusing policies charged: %v", m.ShedByPolicy)
	}
}

// TestRetryAfterBounds is the table-driven Retry-After contract: the
// hint is the estimated queue wait floored at one second (sub-second
// hints would round to a meaningless 0 in the header), and estWait
// itself scales backlog / workers × mean decode time.
func TestRetryAfterBounds(t *testing.T) {
	cases := []struct {
		name      string
		load      Load
		wantWait  time.Duration // estWait
		wantRetry time.Duration // retryAfterFor
	}{
		{
			name:      "no decode history yet",
			load:      Load{Inflight: 10, Workers: 2},
			wantWait:  0,
			wantRetry: time.Second, // floor
		},
		{
			name:      "no workers",
			load:      Load{Inflight: 10, MeanDecodeMS: 100},
			wantWait:  0,
			wantRetry: time.Second,
		},
		{
			name:      "light backlog stays sub-second, hint floors",
			load:      Load{Inflight: 2, Workers: 2, MeanDecodeMS: 100},
			wantWait:  100 * time.Millisecond,
			wantRetry: time.Second,
		},
		{
			name:      "zero inflight still charges one wave",
			load:      Load{Inflight: 0, Workers: 4, MeanDecodeMS: 200},
			wantWait:  50 * time.Millisecond,
			wantRetry: time.Second,
		},
		{
			name:      "deep backlog surfaces the real wait",
			load:      Load{Inflight: 40, Workers: 2, MeanDecodeMS: 150},
			wantWait:  3 * time.Second,
			wantRetry: 3 * time.Second,
		},
		{
			name:      "exactly one second floors (strict > in retryAfterFor)",
			load:      Load{Inflight: 10, Workers: 1, MeanDecodeMS: 100},
			wantWait:  time.Second,
			wantRetry: time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.load.estWait(); got != tc.wantWait {
				t.Errorf("estWait=%v, want %v", got, tc.wantWait)
			}
			got := retryAfterFor(tc.load)
			if got != tc.wantRetry {
				t.Errorf("retryAfterFor=%v, want %v", got, tc.wantRetry)
			}
			if got < time.Second {
				t.Errorf("Retry-After %v below the 1s floor", got)
			}
			// The client-facing rendering must be >= 1 as well.
			se := &serve.ShedError{RetryAfter: got}
			if se.RetryAfterSeconds() < 1 {
				t.Errorf("RetryAfterSeconds=%d < 1", se.RetryAfterSeconds())
			}
		})
	}
}
