package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// --- fault plane for in-package tests ---

// faultKind is the injectable failure mode of one replica's engine.
type faultKind int32

const (
	faultNone  faultKind = iota
	faultKill            // every decode fails immediately
	faultWedge           // every decode blocks until its context dies
)

// testFault is one replica's controllable fault, wired in as the
// engine's StepFault hook.
type testFault struct{ mode atomic.Int32 }

func (tf *testFault) set(k faultKind) { tf.mode.Store(int32(k)) }

func (tf *testFault) hook(ctx context.Context) error {
	switch faultKind(tf.mode.Load()) {
	case faultKill:
		return errors.New("injected: replica fault")
	case faultWedge:
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// newFaultyFleet builds n identical replicas whose engines each carry
// a controllable fault hook.
func newFaultyFleet(tb testing.TB, n int, cfg Config, engCfg serve.Config) (*Fleet, []*testFault) {
	tb.Helper()
	m, _ := fixture(tb)
	faults := make([]*testFault, n)
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		faults[i] = &testFault{}
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

// replicaByName finds a fleet member and its fault handle.
func replicaByName(tb testing.TB, f *Fleet, faults []*testFault, name string) (*Replica, *testFault) {
	tb.Helper()
	for i, r := range f.Replicas() {
		if r.Name() == name {
			return r, faults[i]
		}
	}
	tb.Fatalf("no replica named %q", name)
	return nil, nil
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

// --- circuit breaker ---

// TestBreakerStateMachine drives the closed/open/half-open cycle with
// an injected clock: consecutive failures trip the circuit, the
// cooldown gates the probe, the probe's outcome decides recovery, and
// neutral outcomes release the probe without judging the replica.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Second, func() time.Time { return now })

	if !b.ready() || !b.allow() {
		t.Fatal("fresh breaker must pass traffic")
	}
	b.onSuccess()

	// Two failures: still closed (threshold 3); an interleaved success
	// resets the streak.
	b.onFailure()
	b.onFailure()
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatal("success must reset the consecutive-failure streak")
	}

	// Third consecutive failure trips it.
	b.onFailure()
	if st, opens := b.snapshot(); st != BreakerOpen || opens != 1 {
		t.Fatalf("state=%v opens=%d, want open/1", st, opens)
	}
	if b.ready() || b.allow() {
		t.Fatal("open breaker inside cooldown must fail fast")
	}

	// Cooldown elapses: exactly one probe passes.
	now = now.Add(time.Second)
	if !b.ready() {
		t.Fatal("cooled-down breaker must offer a probe")
	}
	if !b.allow() {
		t.Fatal("first probe must be admitted")
	}
	if b.ready() || b.allow() {
		t.Fatal("half-open breaker must admit only one probe at a time")
	}
	// Neutral outcome (the probe was shed): slot released, state held.
	b.onNeutral()
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state after neutral probe = %v, want half-open", st)
	}
	if !b.allow() {
		t.Fatal("released probe slot must re-admit")
	}
	// Failed probe: straight back to open.
	b.onFailure()
	if st, opens := b.snapshot(); st != BreakerOpen || opens != 2 {
		t.Fatalf("state=%v opens=%d after failed probe, want open/2", st, opens)
	}

	// Second recovery: successful probe closes it for good.
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("second probe must be admitted")
	}
	b.onSuccess()
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if !b.ready() || !b.allow() {
		t.Fatal("recovered breaker must pass traffic")
	}
}

// TestBreakerRoutesAround: a killed replica's circuit opens after the
// failure threshold and the router stops sending it traffic; every
// client request still succeeds via failover. After the fault heals
// and the cooldown elapses, a probe closes the circuit and affinity
// resumes.
func TestBreakerRoutesAround(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 3,
		Config{BreakerThreshold: 2, BreakerCooldown: 300 * time.Millisecond},
		serve.Config{Workers: 1, CacheSize: -1})

	// Discover the affine replica for this prompt family.
	first, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(0)})
	if err != nil {
		t.Fatal(err)
	}
	affine, fault := replicaByName(t, f, faults, first.Replica)
	fault.set(faultKill)

	for seed := int64(1); seed <= 6; seed++ {
		resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(seed)})
		if err != nil {
			t.Fatalf("seed %d: client saw fault: %v", seed, err)
		}
		if resp.Replica == affine.Name() {
			t.Fatalf("seed %d: served by the killed replica", seed)
		}
	}
	if _, opens := affine.breaker.snapshot(); opens == 0 {
		t.Error("killed replica breaker never tripped")
	}
	m := f.Metrics()
	if m.Failovers < 2 {
		t.Errorf("failovers=%d, want >=2 (threshold failures before the trip)", m.Failovers)
	}
	// Once open, traffic routes around the dead member — at most the
	// occasional half-open probe (which fails over transparently) may
	// still land there.
	routedBefore := affine.routed.Load()
	for seed := int64(7); seed <= 9; seed++ {
		if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := affine.routed.Load(); got > routedBefore+2 {
		t.Errorf("open-circuit replica still taking traffic (%d -> %d)", routedBefore, got)
	}

	// Heal, wait out the cooldown, and confirm the probe closes the
	// circuit and affinity returns.
	fault.set(faultNone)
	time.Sleep(320 * time.Millisecond)
	eventually(t, 2*time.Second, "breaker to close and affinity to resume", func() bool {
		resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(99)})
		if err != nil {
			return false
		}
		st, _ := affine.breaker.snapshot()
		return st == BreakerClosed && resp.Replica == affine.Name()
	})
}

// TestHedgeCoversWedgedReplica: a wedged replica (decodes hang until
// cancelled) never answers, but clients don't wait for it — the hedge
// fires after HedgeAfter, a sibling serves the request, and the
// hedge-win-by-timeout signal opens the wedged member's circuit.
func TestHedgeCoversWedgedReplica(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 3,
		Config{HedgeAfter: 20 * time.Millisecond, BreakerThreshold: 2, BreakerCooldown: 150 * time.Millisecond},
		serve.Config{Workers: 1, CacheSize: -1})

	first, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[1], Options: testOptions(0)})
	if err != nil {
		t.Fatal(err)
	}
	wedged, fault := replicaByName(t, f, faults, first.Replica)
	fault.set(faultWedge)

	for seed := int64(1); seed <= 4; seed++ {
		start := time.Now()
		resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[1], Options: testOptions(seed)})
		if err != nil {
			t.Fatalf("seed %d: client saw wedge: %v", seed, err)
		}
		if resp.Replica == wedged.Name() {
			t.Fatalf("seed %d: answered by the wedged replica", seed)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("seed %d: hedge did not cover the wedge (waited %s)", seed, waited)
		}
	}
	m := f.Metrics()
	if m.Hedges == 0 || m.HedgeWins == 0 {
		t.Errorf("hedges=%d hedge_wins=%d, want both > 0", m.Hedges, m.HedgeWins)
	}
	// The circuit must have tripped on the wedge-timeout signals. (It
	// may already be half-open again at snapshot time if a cooldown
	// elapsed — probing is allowed, judging is what matters.)
	if st, opens := wedged.breaker.snapshot(); opens == 0 || st == BreakerClosed {
		t.Errorf("wedged replica breaker state=%v opens=%d, want tripped", st, opens)
	}

	// Heal and recover: after the cooldown a probe closes the circuit.
	fault.set(faultNone)
	eventually(t, 3*time.Second, "wedged replica to rejoin", func() bool {
		resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[1], Options: testOptions(50)})
		if err != nil {
			return false
		}
		return resp.Replica == wedged.Name()
	})
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
	faults[0].set(faultWedge)

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
	faults[0].set(faultNone)
}

// --- streamed and batch requests ---

// sweepFault is a StepFault hook that counts its calls — one per sweep
// of each running decode, so with one request in flight the count is
// that decode's sweep index — slows every sweep by delay, and fails
// the failAt-th (0: never).
type sweepFault struct {
	calls  atomic.Int32
	failAt int32
	delay  time.Duration
}

func (s *sweepFault) hook(ctx context.Context) error {
	n := s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if n == s.failAt {
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

// TestStreamedRequestNeverHedged: with hedging on and every sweep slow
// enough for the hedge timer to fire many times over, a streamed
// request still runs on one replica — each step reaches the client
// once, in order, and none after the request returned.
func TestStreamedRequestNeverHedged(t *testing.T) {
	_, prompts := fixture(t)
	f := newSweepFleet(t, Config{HedgeAfter: 5 * time.Millisecond},
		&sweepFault{delay: 2 * time.Millisecond}, &sweepFault{delay: 2 * time.Millisecond})
	var log streamLog
	resp, err := f.TryGenerate(context.Background(), streamedRequest(prompts[0], &log))
	log.finish()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // room for a raced attempt's late steps
	log.expect(t, resp.Result.Steps)
	if h := f.Metrics().Hedges; h != 0 {
		t.Errorf("hedges=%d for a streamed request, want 0", h)
	}
}

// TestStreamedRequestFailsOverOnlyBeforeFirstStep: a fault before any
// step streamed fails over and the sibling streams 1..n once; a fault
// after steps reached the client is returned as-is — not replayed from
// step 1 on a sibling, and not turned into a shed the HTTP layer would
// answer with a status after the stream began.
func TestStreamedRequestFailsOverOnlyBeforeFirstStep(t *testing.T) {
	_, prompts := fixture(t)
	t.Run("first sweep", func(t *testing.T) {
		f := newSweepFleet(t, Config{Router: firstRouter{}}, &sweepFault{failAt: 1}, &sweepFault{})
		var log streamLog
		resp, err := f.TryGenerate(context.Background(), streamedRequest(prompts[0], &log))
		log.finish()
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Replicas()[1].Name(); resp.Replica != want {
			t.Errorf("served by %q, want the sibling %q", resp.Replica, want)
		}
		log.expect(t, resp.Result.Steps)
		if n := f.Metrics().Failovers; n != 1 {
			t.Errorf("failovers=%d, want 1", n)
		}
	})
	t.Run("sweep 10", func(t *testing.T) {
		f := newSweepFleet(t, Config{Router: firstRouter{}}, &sweepFault{failAt: 10}, &sweepFault{})
		var log streamLog
		_, err := f.TryGenerate(context.Background(), streamedRequest(prompts[0], &log))
		log.finish()
		var shed *serve.ShedError
		if err == nil || errors.As(err, &shed) || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("err=%v, want the raw injected fault", err)
		}
		log.expect(t, 9)
		if n := f.Metrics().Failovers; n != 0 {
			t.Errorf("failovers=%d after steps streamed, want 0", n)
		}
	})
}

// TestBatchItemsFailOver: batch items take the single-request path, so
// with one replica of two killed every item is still answered — the
// items routed to the dead replica fail over like single requests do.
func TestBatchItemsFailOver(t *testing.T) {
	_, prompts := fixture(t)
	f, faults := newFaultyFleet(t, 2, Config{Router: &roundRobinRouter{}}, serve.Config{Workers: 1, CacheSize: -1})
	faults[0].set(faultKill)
	reqs := make([]serve.Request, 8)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: prompts[i], Options: testOptions(int64(i))}
	}
	dead := f.Replicas()[0]
	for i, resp := range f.TryGenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Errorf("item %d: %v", i, resp.Err)
		} else if resp.Replica == dead.Name() {
			t.Errorf("item %d answered by the killed replica", i)
		}
	}
	if got := dead.routed.Load(); got != 4 {
		t.Fatalf("killed replica routed %d of 8 items, want 4", got)
	}
	if m := f.Metrics(); m.Failovers < 4 {
		t.Errorf("failovers=%d, want >= 4 (one per item routed to the killed replica)", m.Failovers)
	}
}
