package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// wedgeFault is one replica's StepFault hook: while on, every decode
// blocks until its context dies.
type wedgeFault struct{ on atomic.Bool }

func (w *wedgeFault) hook(ctx context.Context) error {
	if w.on.Load() {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// newFaultyFleet builds n identical replicas whose engines each carry
// a wedge hook.
func newFaultyFleet(tb testing.TB, n int, cfg Config, engCfg serve.Config) (*Fleet, []*wedgeFault) {
	tb.Helper()
	m, _ := fixture(tb)
	faults := make([]*wedgeFault, n)
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		faults[i] = &wedgeFault{}
		ec := engCfg
		ec.StepFault = faults[i].hook
		specs[i] = ReplicaSpec{Model: m, Engine: ec}
	}
	f, err := New(specs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f, faults
}

// --- work stealing ---

// TestStealRebalances: when prefix affinity concentrates a burst on
// one replica, idle siblings pull the overflow — some requests are
// served by a replica other than the routed one, and all succeed.
func TestStealRebalances(t *testing.T) {
	_, prompts := fixture(t)
	f, _ := newFaultyFleet(t, 3, Config{Steal: true}, serve.Config{Workers: 1, CacheSize: -1})

	const burst = 18
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One prompt family, distinct seeds: all affinity-routed to
			// one replica, none answerable from the result cache.
			_, errs[i] = f.Generate(context.Background(), serve.Request{Prompt: prompts[2], Options: testOptions(int64(i))})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := f.Metrics()
	if m.Steals == 0 {
		t.Fatal("hot burst produced zero steals — idle siblings never helped")
	}
	var stolen uint64
	for _, pr := range m.PerReplica {
		stolen += pr.Stolen
	}
	if stolen != m.Steals {
		t.Errorf("per-replica stolen sum %d != fleet steals %d", stolen, m.Steals)
	}
}

// TestStealJobContextCancel: a job parked on the steal queue whose
// client gives up is answered with the context error, exactly once.
func TestStealJobContextCancel(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 1, Config{Steal: true}, serve.Config{Workers: 1, QueueSize: 8, CacheSize: -1})
	// Wedge the only replica so nothing drains and jobs pile up.
	faults[0].on.Store(true)

	var wg sync.WaitGroup
	outcomes := make([]error, 6)
	ctx, cancel := context.WithCancel(context.Background())
	for i := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outcomes[i] = f.Generate(ctx, serve.Request{Prompt: prompts[3], Options: testOptions(int64(i))})
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled steal jobs never unblocked their clients")
	}
	for i, err := range outcomes {
		if err == nil {
			t.Errorf("request %d: nil error from a wedged single-replica fleet", i)
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("request %d: %v, want context.Canceled", i, err)
		}
	}
	faults[0].on.Store(false)
}

// --- a request's own error ---

// sweepFault is a StepFault hook that counts its calls — one per sweep
// of each running decode, so with one request in flight the count is
// that decode's sweep index — and fails the failAt-th (0: never).
type sweepFault struct {
	calls  atomic.Int32
	failAt int32
}

func (s *sweepFault) hook(context.Context) error {
	if n := s.calls.Add(1); n == s.failAt {
		return fmt.Errorf("injected: fault at sweep %d", n)
	}
	return nil
}

// newSweepFleet builds one replica per hook.
func newSweepFleet(tb testing.TB, cfg Config, faults ...*sweepFault) *Fleet {
	tb.Helper()
	m, _ := fixture(tb)
	specs := make([]ReplicaSpec, len(faults))
	for i, sf := range faults {
		specs[i] = ReplicaSpec{Model: m, Engine: serve.Config{Workers: 1, CacheSize: -1, StepFault: sf.hook}}
	}
	f, err := New(specs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f
}

// streamLog records the step indices a streamed request delivers and
// counts the steps that arrive after the request returned.
type streamLog struct {
	mu       sync.Mutex
	steps    []int
	returned bool
	late     int
}

func (l *streamLog) onStep(ev core.StepEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.returned {
		l.late++
	}
	l.steps = append(l.steps, ev.Step)
}

func (l *streamLog) finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.returned = true
}

// expect checks that steps 1..n arrived exactly once, in order, and
// none after the request returned.
func (l *streamLog) expect(tb testing.TB, n int) {
	tb.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	ok := len(l.steps) == n
	for i := 0; ok && i < n; i++ {
		ok = l.steps[i] == i+1
	}
	if !ok {
		tb.Errorf("streamed steps %v, want 1..%d once each", l.steps, n)
	}
	if l.late > 0 {
		tb.Errorf("%d steps delivered after the request returned", l.late)
	}
}

func streamedRequest(prompt string, log *streamLog) serve.Request {
	return serve.Request{
		Prompt:  prompt,
		Options: core.Options{Strategy: "ntp", MaxNewTokens: 48, Seed: 1},
		OnStep:  log.onStep,
	}
}

// TestFleetRequestErrorNotReplayed: every replica of a (model, scheme)
// pair decodes the same (prompt, options, seed) the same way, so a
// request that fails would fail on any sibling. A single request and a
// batch item naming an unknown strategy, and a streamed request that
// faults after its first step, each fail exactly once across the fleet
// and return their own error, and the fleet serves the next request
// normally.
func TestFleetRequestErrorNotReplayed(t *testing.T) {
	_, prompts := fixture(t)
	bad := core.Options{Strategy: "no-such-strategy", MaxNewTokens: 16, Seed: 1}
	cases := []struct {
		name   string
		failAt int32 // the fleet-wide sweep the StepFault fails (0: never)
		run    func(t *testing.T, f *Fleet) error
	}{
		{"single", 0, func(t *testing.T, f *Fleet) error {
			resp, err := f.TryGenerate(context.Background(), serve.Request{Prompt: prompts[0], Options: bad})
			return firstErr(resp, err)
		}},
		{"batch item", 0, func(t *testing.T, f *Fleet) error {
			out := f.TryGenerateBatch(context.Background(), []serve.Request{
				{Prompt: prompts[0], Options: bad},
				{Prompt: prompts[1], Options: testOptions(1)},
			})
			if out[1].Err != nil {
				t.Errorf("healthy batch item: %v", out[1].Err)
			}
			return out[0].Err
		}},
		{"streamed", 2, func(t *testing.T, f *Fleet) error {
			var log streamLog
			resp, err := f.TryGenerate(context.Background(), streamedRequest(prompts[0], &log))
			log.finish()
			log.expect(t, 1)
			return firstErr(resp, err)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sf := &sweepFault{failAt: c.failAt}
			f := newSweepFleet(t, Config{}, sf, sf)
			err := c.run(t, f)
			if err == nil {
				t.Fatalf("err = %v, want the request's own error", err)
			}
			var failed uint64
			for _, r := range f.Metrics().PerReplica {
				failed += r.Engine.Failed
			}
			if failed != 1 {
				t.Errorf("failed decodes across the fleet = %d, want 1 (the request replayed on a sibling)", failed)
			}
			resp, err := f.TryGenerate(context.Background(), serve.Request{Prompt: prompts[2], Options: testOptions(7)})
			if err = firstErr(resp, err); err != nil {
				t.Errorf("next request: %v", err)
			}
		})
	}
}
