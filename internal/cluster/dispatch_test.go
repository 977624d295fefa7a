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
	"repro/internal/model"
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

// newFaultyFleet builds n identical replicas — one steal group — whose
// engines each carry a wedge hook.
func newFaultyFleet(tb testing.TB, n int, engCfg serve.Config) (*Fleet, []*wedgeFault) {
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
	f, err := New(specs, Config{})
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
	f, _ := newFaultyFleet(t, 3, serve.Config{Workers: 1, CacheSize: -1})

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

// TestStealJobContextCancel: a job parked on its group's steal queue
// whose client gives up is answered with the context error, exactly
// once.
func TestStealJobContextCancel(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 2, serve.Config{Workers: 1, QueueSize: 8, CacheSize: -1})
	// Wedge both replicas of the group so nothing drains and jobs pile
	// up on the steal queue.
	for _, w := range faults {
		w.on.Store(true)
	}

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
			t.Errorf("request %d: nil error from a wedged fleet", i)
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("request %d: %v, want context.Canceled", i, err)
		}
	}
	for _, w := range faults {
		w.on.Store(false)
	}
}

// TestStealStaysInGroup: stealing never crosses a group. In a fleet of
// two CodeT5p-sim and two CodeLlama-sim replicas, a burst naming each
// model is served only by replicas of that model — never answered
// ErrUnknownModel by a sibling that stole it across models — and every
// result is byte-identical to a direct decode on the named model.
func TestStealStaysInGroup(t *testing.T) {
	m, prompts := fixture(t)
	engCfg := serve.Config{Workers: 1, CacheSize: -1}
	f, err := New([]ReplicaSpec{
		{Name: "t5-a", Model: m, Engine: engCfg},
		{Name: "llama-a", Model: fixLlama, Engine: engCfg},
		{Name: "t5-b", Model: m, Engine: engCfg},
		{Name: "llama-b", Model: fixLlama, Engine: engCfg},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	serves := map[string]*model.Model{"t5-a": m, "t5-b": m, "llama-a": fixLlama, "llama-b": fixLlama}

	const burst = 12
	type item struct {
		m    *model.Model
		req  serve.Request
		resp *serve.Response
		err  error
	}
	var items []*item
	for _, tc := range []struct {
		name string
		m    *model.Model
	}{{"codet5p", m}, {"codellama", fixLlama}} {
		for i := 0; i < burst; i++ {
			opts := core.Options{Strategy: "ntp", Temperature: 0.6, MaxNewTokens: 48, Seed: int64(i)}
			items = append(items, &item{m: tc.m, req: serve.Request{Prompt: prompts[4], Model: tc.name, Options: opts}})
		}
	}
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it.resp, it.err = f.Generate(context.Background(), it.req)
		}()
	}
	wg.Wait()
	decoders := map[*model.Model]*core.Decoder{m: core.NewDecoder(m), fixLlama: core.NewDecoder(fixLlama)}
	for i, it := range items {
		if err := firstErr(it.resp, it.err); err != nil {
			t.Errorf("item %d (%s): %v", i, it.req.Model, err)
			continue
		}
		if serves[it.resp.Replica] != it.m {
			t.Errorf("item %d (%s): served by %s", i, it.req.Model, it.resp.Replica)
		}
		if direct := decoders[it.m].Generate(it.req.Prompt, it.req.Options); it.resp.Result.Text != direct.Text {
			t.Errorf("item %d (%s): output diverges from a direct decode on the named model", i, it.req.Model)
		}
	}
	// Both groups rebalanced their burst: stealing ran, inside them.
	fm := f.Metrics()
	stolen := map[*model.Model]uint64{}
	for _, r := range fm.PerReplica {
		stolen[serves[r.Name]] += r.Stolen
	}
	if stolen[m] == 0 || stolen[fixLlama] == 0 {
		t.Errorf("steals per group: codet5p %d, codellama %d; want both > 0", stolen[m], stolen[fixLlama])
	}
	if fm.UnknownModel != 0 {
		t.Errorf("unknown_model=%d, want 0", fm.UnknownModel)
	}
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
func newSweepFleet(tb testing.TB, faults ...*sweepFault) *Fleet {
	tb.Helper()
	m, _ := fixture(tb)
	specs := make([]ReplicaSpec, len(faults))
	for i, sf := range faults {
		specs[i] = ReplicaSpec{Model: m, Engine: serve.Config{Workers: 1, CacheSize: -1, StepFault: sf.hook}}
	}
	f, err := New(specs, Config{})
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
			f := newSweepFleet(t, sf, sf)
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
