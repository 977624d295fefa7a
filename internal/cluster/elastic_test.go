package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// eventually polls cond until it holds or the deadline passes.
func eventually(tb testing.TB, d time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// --- autoscaler ---

// TestAutoscaleUpAndDown drives the controller by hand, without its
// ticker: sustained per-replica backlog adds a member (after
// autoscaleUpPatience ticks and not during cooldown), a sustained idle
// fleet drains the autoscaled member away again, and the configured
// floor holds.
func TestAutoscaleUpAndDown(t *testing.T) {
	f, _ := newFaultyFleet(t, 1, Config{}, serve.Config{Workers: 1, CacheSize: -1})
	a, err := newAutoscaler(f, AutoscaleConfig{Enabled: true, Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.auto = a
	ticks := func(n int) {
		for i := 0; i < n; i++ {
			a.tick()
		}
	}

	base := f.Replicas()[0]
	base.inflight.Add(4) // synthetic sustained backlog, above 2 × 1 worker

	ticks(autoscaleUpPatience - 1)
	if got := len(f.Replicas()); got != 1 {
		t.Fatalf("scaled up after %d ticks (%d replicas) — no hysteresis", autoscaleUpPatience-1, got)
	}
	ticks(1)
	if got := len(f.Replicas()); got != 2 {
		t.Fatalf("replicas=%d after sustained pressure, want 2", got)
	}
	if m := f.Metrics(); m.ScaleUps != 1 || m.AutoscaleMin != 1 || m.AutoscaleMax != 2 {
		t.Errorf("scale_ups=%d bounds=%d..%d, want 1 and 1..2", m.ScaleUps, m.AutoscaleMin, m.AutoscaleMax)
	}
	added := f.Replicas()[1]
	if !added.scaled {
		t.Error("added replica not marked autoscaled")
	}

	// At Max: further pressure, past the cooldown, must not add more.
	ticks(autoscaleCooldown + autoscaleUpPatience + 1)
	if got := len(f.Replicas()); got != 2 {
		t.Fatalf("replicas=%d, autoscaler exceeded Max=2", got)
	}

	// Idle: the autoscaled member drains away; the floor member stays.
	base.inflight.Add(-4)
	ticks(autoscaleDownPatience)
	eventually(t, 2*time.Second, "scale-down drain to finish", func() bool {
		return len(f.Replicas()) == 1
	})
	if f.Replicas()[0] != base {
		t.Error("scale-down removed the configured replica, not the autoscaled one")
	}
	if m := f.Metrics(); m.ScaleDowns != 1 || m.Drains != 1 {
		t.Errorf("scale_downs=%d drains=%d, want 1/1", m.ScaleDowns, m.Drains)
	}
	// Fully idle forever: never dips below Min.
	ticks(autoscaleCooldown + 2*autoscaleDownPatience)
	if got := len(f.Replicas()); got != 1 {
		t.Errorf("replicas=%d, autoscaler violated Min=1", got)
	}
}

// --- drain ---

// TestDrainExcludesFromRouting: a draining replica receives no new
// routes, and drain returns at once when it holds no work.
func TestDrainExcludesFromRouting(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
	r0 := f.Replicas()[0]

	r0.state.Store(stateDraining)
	if err := f.drain(r0); err != nil {
		t.Fatalf("drain of an idle replica: %v", err)
	}
	for seed := int64(0); seed < 6; seed++ {
		for p := 0; p < 4; p++ {
			if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[p], Options: testOptions(seed)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r0.routed.Load(); got != 0 {
		t.Errorf("draining replica routed %d new requests", got)
	}
	if m := f.Metrics(); m.PerReplica[0].State != "draining" {
		t.Errorf("state=%q, want draining", m.PerReplica[0].State)
	}
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
			// one replica, none collapsible by single-flight.
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
// and return their own error — not a shed, which HTTP would turn into a
// 429 asking the client to resend — and the fleet serves the next
// request normally.
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
			var shed *serve.ShedError
			if err == nil || errors.As(err, &shed) {
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

// retiringRouter picks the most recently added replica and, when that
// is an autoscaled one, retires it and lets the drain finish before
// returning it: the retirement lands exactly between the router's choice
// and the in-flight count the choice takes, the window a scale-down can
// hit under live traffic. The drain sees no work, so it removes the
// replica and closes its engine; Close is idempotent and returns once
// the engine is closed.
type retiringRouter struct{ f *Fleet }

func (rr *retiringRouter) Pick(_ string, candidates []*Replica) *Replica {
	last := candidates[len(candidates)-1]
	if last.scaled {
		rr.f.retireReplica(last)
		for slices.Contains(rr.f.Replicas(), last) {
			time.Sleep(100 * time.Microsecond)
		}
		last.Engine().Close()
	}
	return last
}

// TestDrainRaceNeverClosesUnderARequest retires replicas while clients
// keep routing at them. The router and the stealers both pick a replica
// before taking its in-flight count, and a retirement landing in
// between must not let drain close the engine under the request: across
// every retire cycle, no client sees ErrClosed.
func TestDrainRaceNeverClosesUnderARequest(t *testing.T) {
	const cycles = 200
	_, prompts := fixture(t)
	rr := &retiringRouter{}
	f, _ := newFaultyFleet(t, 1, Config{Router: rr, Steal: true}, serve.Config{Workers: 1, CacheSize: -1})
	rr.f = f

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopClients := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(stopClients)
	var served, closed atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opts := core.Options{Strategy: "ntp", MaxNewTokens: 4, Seed: int64(c*100000 + i)}
				resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[i%len(prompts)], Options: opts})
				switch err = firstErr(resp, err); {
				case errors.Is(err, serve.ErrClosed):
					closed.Add(1)
				case err != nil:
					t.Errorf("client %d: %v", c, err)
				default:
					served.Add(1)
				}
			}
		}()
	}
	for i := 0; i < cycles; i++ {
		if _, err := f.addReplica(); err != nil {
			t.Fatal(err)
		}
		eventually(t, 5*time.Second, "the added replica to be retired", func() bool {
			return f.elastic.scaleDowns.Load() == uint64(i+1)
		})
	}
	stopClients()
	if n := closed.Load(); n != 0 {
		t.Errorf("%d requests hit a closed engine across %d retire cycles", n, cycles)
	}
	t.Logf("%d requests served across %d retire cycles", served.Load(), cycles)
}
