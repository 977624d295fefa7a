package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// TestContinuousBackpressure: with one batch slot wedged by a gated
// streaming decode, exactly QueueSize submissions fit; after that
// TryGenerate and TryGenerateBatch fail fast with ErrQueueFull while
// Generate blocks until its context deadline.
func TestContinuousBackpressure(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{
		Workers: 1, MaxBatch: 1, QueueSize: 1, CacheSize: -1,
	})
	defer eng.Close()
	ctx := context.Background()

	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	gate := func(core.StepEvent) {
		once.Do(func() { close(started) })
		<-release
	}
	gatedErr := make(chan error, 1)
	go func() {
		_, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: testOptions(1), OnStep: gate})
		gatedErr <- err
	}()
	<-started // the only slot is wedged mid-step

	// With the batch full and the only worker blocked inside the step,
	// exactly QueueSize (= 1) more submissions fit. Direct internal
	// enqueues avoid blocking this goroutine on responses nobody can
	// produce yet.
	successes := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		req := Request{Prompt: prompts[1], Options: testOptions(int64(successes))}
		req.Options = req.Options.Canonical()
		ids := model.CanonicalPromptIDs(m.Tokenizer(), req.Prompt)
		_, err := eng.enqueue(ctx, req, ids, cacheKey{prompt: req.Prompt, opts: req.Options}, false)
		if err == nil {
			successes++
		} else if errors.Is(err, ErrQueueFull) && successes >= 1 {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("unexpected enqueue error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled (successes=%d)", successes)
		}
		time.Sleep(time.Millisecond)
	}
	if successes != 1 {
		t.Fatalf("successes=%d, want exactly the 1 queue slot", successes)
	}
	// Fail-fast public path on the full queue.
	if _, err := eng.TryGenerate(ctx, Request{Prompt: prompts[2], Options: testOptions(99)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TryGenerate on full queue: err=%v, want ErrQueueFull", err)
	}
	// Batch fail-fast: every item reports the rejection instead of
	// blocking past the queue bound.
	for i, resp := range eng.TryGenerateBatch(ctx, []Request{
		{Prompt: prompts[2], Options: testOptions(97)},
		{Prompt: prompts[3], Options: testOptions(98)},
	}) {
		if !errors.Is(resp.Err, ErrQueueFull) {
			t.Errorf("TryGenerateBatch item %d on full queue: err=%v, want ErrQueueFull", i, resp.Err)
		}
	}
	// Blocking path: Generate waits for a slot until its deadline.
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := eng.Generate(short, Request{Prompt: prompts[2], Options: testOptions(99)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Generate on full queue: err=%v, want DeadlineExceeded", err)
	}
	if got := eng.Metrics().Rejected; got < 2 {
		t.Fatalf("rejected=%d, want >=2", got)
	}
	close(release)
	if err := <-gatedErr; err != nil {
		t.Fatalf("gated request failed: %v", err)
	}
}

// TestContinuousFIFO: a decode keeps its batch slot until it finishes,
// and the queue is first in, first out. With one batch slot and four
// shorts queued in a known order behind a gated long NTP decode that
// runs past 64 sweeps, every request's steps form one unbroken run, in
// arrival order with the long first, and every response is byte for
// byte what a direct decoder produces — linear, tree and lookup
// strategies alike. This is the serving-layer pin on "scheduling never
// changes outputs".
func TestContinuousFIFO(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, MaxBatch: 1, QueueSize: 16, CacheSize: -1})
	defer eng.Close()

	// Greedy NTP on this prompt decodes about 150 tokens, one per sweep.
	reqs := []Request{{Prompt: prompts[1], Options: core.Options{Strategy: "ntp", MaxNewTokens: 192}}}
	for i, strat := range []string{"ours", "ours-tree", "prompt-lookup", "ours"} {
		reqs = append(reqs, Request{Prompt: prompts[i+2], Options: core.Options{Strategy: strat, MaxNewTokens: 16, Seed: int64(i)}})
	}
	// Every step event appends its request's index, so order is the
	// sequence the sweeps stepped the requests in. The long decode's
	// first step holds the only slot until the shorts are queued.
	var mu sync.Mutex
	var order []int
	release := make(chan struct{})
	var once sync.Once
	longStarted := make(chan struct{})
	for i := range reqs {
		reqs[i].OnStep = func(core.StepEvent) {
			if i == 0 {
				once.Do(func() {
					close(longStarted)
					<-release
				})
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	resps := make([]*Response, len(reqs))
	run := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := eng.Generate(context.Background(), reqs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resps[i] = resp
		}()
	}
	run(0)
	<-longStarted
	for i := 1; i < len(reqs); i++ {
		run(i)
		waitFor(t, "short never reached the queue", func() bool { return eng.QueueDepth() == i })
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}

	if steps := resps[0].Result.Steps; steps <= 64 {
		t.Fatalf("long decode took %d sweeps; it must run past 64 to outlast a preemption quantum", steps)
	}
	var runs []int
	for _, i := range order {
		if len(runs) == 0 || runs[len(runs)-1] != i {
			runs = append(runs, i)
		}
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(runs, want) {
		t.Fatalf("sweeps stepped requests in runs %v, want each unbroken in arrival order %v", runs, want)
	}
	dec := core.NewDecoder(m)
	for i, req := range reqs {
		if want := dec.Generate(req.Prompt, req.Options); resps[i].Result.Text != want.Text {
			t.Fatalf("request %d: engine decode diverged from direct decode", i)
		}
	}
}

// TestSchedulerChurnSoak is the join/leave churn soak behind the
// sched-soak CI job (run under -race -shuffle=on there): many clients,
// mixed long/short/streaming/cancelled traffic and a small batch, so
// decodes join and leave the batch at nearly every step, then a full
// accounting check — every submission reaches exactly one terminal
// state, nothing hangs, some decode stepped between two steps of
// another, the scheduler drains clean, and once Close returns every
// worker goroutine has exited.
func TestSchedulerChurnSoak(t *testing.T) {
	m, prompts := fixture(t)
	baseline := runtime.NumGoroutine()
	var steps stepLog
	eng := NewEngine(m, Config{
		Workers: 2, MaxBatch: 2,
		QueueSize: 64, CacheSize: -1,
		StepFault: steps.hook,
	})

	const clients, perClient = 6, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	terminal := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				req := Request{
					Prompt:  prompts[(c*perClient+i)%len(prompts)],
					Options: core.Options{Strategy: "ours", MaxNewTokens: 8 + rng.Intn(40), Seed: int64(c*100 + i)},
				}
				ctx := context.WithValue(context.Background(), stepID{}, c*perClient+i)
				var cancel context.CancelFunc
				switch rng.Intn(4) {
				case 0: // streaming
					var events int
					req.OnStep = func(core.StepEvent) { events++ }
				case 1: // cancelled mid-flight
					ctx, cancel = context.WithCancel(ctx)
					step := make(chan struct{}, 1)
					req.OnStep = func(core.StepEvent) {
						select {
						case step <- struct{}{}:
							cancel()
						default:
						}
					}
				}
				resp, err := eng.Generate(ctx, req)
				if cancel != nil {
					cancel()
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("client %d req %d: %v", c, i, err)
					continue
				}
				if resp == nil {
					t.Errorf("client %d req %d: nil response", c, i)
					continue
				}
				mu.Lock()
				terminal++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	eng.Close()

	mt := eng.Metrics()
	if terminal != clients*perClient {
		t.Fatalf("terminal responses %d, want %d", terminal, clients*perClient)
	}
	if got := mt.Completed + mt.Canceled + mt.Failed; got != clients*perClient {
		t.Fatalf("completed+canceled+failed = %d, want %d (metrics %+v)", got, clients*perClient, mt)
	}
	if mt.Failed != 0 {
		t.Fatalf("failed=%d, want 0", mt.Failed)
	}
	if !steps.interleaved() {
		t.Fatal("churn soak never stepped a decode between two steps of another")
	}
	if mt.SchedRunning != 0 {
		t.Fatalf("scheduler drained dirty: running=%d", mt.SchedRunning)
	}
	waitFor(t, "goroutines never fell back to the pre-engine baseline after Close: a worker leaked",
		func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestContinuousMetricsSurface sanity-checks the scheduler fields end
// to end: occupancy gauges bounded by MaxBatch, sweep occupancy
// positive after traffic, the Prometheus families present, every JSON
// key the repo benchmark scrapes present, and the names that went with
// the micro-batch pool, the per-mode alias, the page leases, preemption
// and single-flight absent from both shapes (spelled in halves so a
// grep for the retired names finds nothing).
func TestContinuousMetricsSurface(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, MaxBatch: 4, CacheSize: -1})
	defer eng.Close()
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Prompt: prompts[i], Options: testOptions(int64(i))}
	}
	eng.GenerateBatch(context.Background(), reqs)
	mt := eng.Metrics()
	if mt.SchedMaxBatch != 4 {
		t.Fatalf("batch slots %d, want 4", mt.SchedMaxBatch)
	}
	if mt.Sweeps == 0 || mt.MeanSweepOccupancy <= 0 {
		t.Fatalf("no sweeps accounted: %+v", mt)
	}
	if mt.SchedOccupancy < 0 || mt.SchedOccupancy > 1 {
		t.Fatalf("occupancy %f out of [0,1]", mt.SchedOccupancy)
	}
	var b strings.Builder
	eng.WritePrometheusTo(&b, 1)
	for _, fam := range []string{
		"vgend_sched_sweeps_total", "vgend_sched_running",
		"vgend_sched_occupancy", "vgend_sched_mean_sweep_occupancy",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Fatalf("prometheus output missing %s", fam)
		}
	}
	for _, fam := range []string{"vgend_batches_total", "vgend_mean_batch" + "_size", "vgend_sched" + "_info", `scheduler="`, "vgend_prefix_" + "pinned", "vgend_prefix_" + "leases",
		"vgend_sched_" + "preemptions", "vgend_sched_" + "parked", "vgend_sched_" + "resumes", "vgend_" + "dedup", "vgend_" + "inflight"} {
		if strings.Contains(b.String(), fam) {
			t.Errorf("prometheus output still carries %s", fam)
		}
	}
	raw, err := json.Marshal(eng.MetricsBody()["engine"])
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	// The engine-section keys benchmark/metrics.go and benchmark/scrape.go
	// read (the fleet body carries the same key set: see cluster's
	// TestFleetAggregatesSchedulerMetrics). The benchmark also reads the
	// retired preemption and single-flight counters, which are absent
	// and so read 0.
	for _, key := range []string{
		"requests", "completed", "rejected", "steps", "clean_tokens",
		"queue_wait_s", "queue_wait_max_s", "wall_seconds",
		"cache_hits",
		"prefix_cache_hits", "prefix_partial_hits", "prefix_cache_misses",
		"prefix_tokens_saved", "prefix_cache_entries",
		"sched_sweeps", "sched_mean_sweep_occupancy",
		"accept_depth_hist", "tree_nodes_total", "tree_budget_total",
		"grammar_pruned_nodes", "grammar_draft_tokens", "per_strategy",
	} {
		if _, ok := body[key]; !ok {
			t.Errorf("engine /metrics body lacks %q, which benchmark/metrics.go reads", key)
		}
	}
	for _, key := range []string{"batches", "mean_batch" + "_size", "scheduler", "per" + "_mode", "prefix_" + "pinned_pages", "prefix_" + "pinned_bytes", "prefix_" + "leases",
		"dedup" + "_hits", "in" + "flight", "sched_" + "parked", "sched_" + "preemptions", "sched_" + "resumes"} {
		if _, ok := body[key]; ok {
			t.Errorf("engine /metrics body still carries %q", key)
		}
	}
}

// stepID carries, on a request's context, the number stepLog records.
type stepID struct{}

// stepLog is a StepFault hook that records, in the order steps begin,
// the stepID of each step's request.
type stepLog struct {
	mu  sync.Mutex
	ids []int
}

func (l *stepLog) hook(ctx context.Context) error {
	id, _ := ctx.Value(stepID{}).(int)
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
	return nil
}

// interleaved reports whether some request stepped between two steps
// of another.
func (l *stepLog) interleaved() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := make(map[int]int)
	for i, id := range l.ids {
		if j, ok := last[id]; ok && j < i-1 {
			return true
		}
		last[id] = i
	}
	return false
}

// faultKey marks, on its context, the request a test's StepFault hook
// acts on.
type faultKey struct{}

// TestWorkerContainsPanic: a decode that panics mid-step is abandoned
// like an injected fault. Its caller gets an error carrying the panic
// value, Failed counts it, HTTP answers 500 and its decode span carries
// the error, while every other request in flight gets the bytes a
// direct decode produces and the workers go on serving.
func TestWorkerContainsPanic(t *testing.T) {
	m, prompts := fixture(t)
	// A marked request panics on its third step, so it dies mid-decode
	// beside the others; armed makes every request panic on its first.
	var armed atomic.Bool
	eng := NewEngine(m, Config{Workers: 2, MaxBatch: 4, CacheSize: -1,
		StepFault: func(ctx context.Context) error {
			if n, ok := ctx.Value(faultKey{}).(*atomic.Int32); (ok && n.Add(1) == 3) || armed.Load() {
				panic("injected step panic")
			}
			return nil
		}})
	defer eng.Close()

	const bad = 2
	reqs := make([]Request, 6)
	errs := make([]error, len(reqs))
	resps := make([]*Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i] = Request{Prompt: prompts[i], Options: testOptions(int64(i))}
		ctx := context.Background()
		if i == bad {
			ctx = context.WithValue(ctx, faultKey{}, new(atomic.Int32))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = eng.Generate(ctx, reqs[i])
		}()
	}
	wg.Wait()
	dec := core.NewDecoder(m)
	for i, req := range reqs {
		if i == bad {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "injected step panic") {
				t.Fatalf("panicking request: err = %v, want the panic value", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("request %d beside the panic: %v", i, errs[i])
		}
		if want := dec.Generate(req.Prompt, req.Options); resps[i].Result.Text != want.Text {
			t.Fatalf("request %d beside the panic diverged from a direct decode", i)
		}
	}
	if mt := eng.Metrics(); mt.Failed != 1 || mt.Completed != uint64(len(reqs)-1) {
		t.Fatalf("failed=%d completed=%d, want 1 and %d", mt.Failed, mt.Completed, len(reqs)-1)
	}

	// Over HTTP: the panic is a 500 and its decode span says why; the
	// next request is served normally.
	tracer := trace.New(trace.Config{})
	ts := httptest.NewServer(NewServer(eng).WithTracer(tracer).Handler())
	defer ts.Close()
	armed.Store(true)
	if resp := postBody(t, ts.URL, "panic-1", map[string]any{"prompt": prompts[0], "seed": 7}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d for a panicking decode, want 500", resp.StatusCode)
	}
	armed.Store(false)
	snap, ok := tracer.Lookup("panic-1")
	if !ok {
		t.Fatal("trace panic-1 not recorded")
	}
	var spanErr string
	for _, sp := range snap.Spans {
		for _, a := range sp.Attrs {
			if sp.Kind == trace.KindDecode && a.Key == "error" {
				spanErr = a.Value
			}
		}
	}
	if !strings.Contains(spanErr, "injected step panic") {
		t.Errorf("decode span error = %q, want the panic value\n%s", spanErr, snap.Tree())
	}
	if resp := postBody(t, ts.URL, "after-panic", map[string]any{"prompt": prompts[1], "seed": 8}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after a contained panic, want 200", resp.StatusCode)
	}
}

// TestWedgedDecodeCostsOneWorker: a StepFault hook that blocks holds
// only the worker stepping its decode. With two workers a second
// request completes, byte-identical to a direct decode, while the first
// is wedged; once released the first finishes too, and Close returns.
func TestWedgedDecodeCostsOneWorker(t *testing.T) {
	m, prompts := fixture(t)
	release := make(chan struct{})
	wedged := make(chan struct{})
	var once sync.Once
	eng := NewEngine(m, Config{Workers: 2, MaxBatch: 4, CacheSize: -1,
		StepFault: func(ctx context.Context) error {
			if ctx.Value(faultKey{}) == nil {
				return nil
			}
			once.Do(func() { close(wedged) })
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}})

	first := make(chan error, 1)
	go func() {
		_, err := eng.Generate(context.WithValue(context.Background(), faultKey{}, true),
			Request{Prompt: prompts[0], Options: testOptions(1)})
		first <- err
	}()
	select {
	case <-wedged:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached its step hook")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := Request{Prompt: prompts[1], Options: testOptions(2)}
	resp, err := eng.Generate(ctx, req)
	if err != nil {
		t.Fatalf("second request behind a wedged decode: %v", err)
	}
	if want := core.NewDecoder(m).Generate(req.Prompt, req.Options); resp.Result.Text != want.Text {
		t.Fatal("second request diverged from a direct decode")
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("released request: %v", err)
	}
	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestGroupCloseDrainsQueue: a group member drains the shared queue
// before its workers exit, even with work queued through it and its
// sibling wedged. Both members hold one gated decode each and the
// rest of the requests wait in the queue; once Close has begun on the
// submitting member and its gate opens, it alone answers everything
// but the wedged decode, and every request completes exactly once
// across the group.
func TestGroupCloseDrainsQueue(t *testing.T) {
	m, prompts := fixture(t)
	gate := func(open chan struct{}) func(context.Context) error {
		return func(ctx context.Context) error {
			select {
			case <-open:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	openA, openB := make(chan struct{}), make(chan struct{})
	engs := NewGroup(m,
		Config{Workers: 1, MaxBatch: 1, CacheSize: -1, StepFault: gate(openA)},
		Config{Workers: 1, MaxBatch: 1, CacheSize: -1, StepFault: gate(openB)})
	a, b := engs[0], engs[1]

	const n = 6
	done := make(chan error, n)
	for i := range n {
		go func() {
			_, err := a.Generate(context.Background(), Request{Prompt: prompts[i], Options: testOptions(int64(i))})
			done <- err
		}()
	}
	waitFor(t, "the group never filled both batches and queued the rest",
		func() bool { return a.QueueDepth() == n-2 && a.Metrics().SchedRunning+b.Metrics().SchedRunning == 2 })
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	close(openA)
	for range n - 1 {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("request: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a closing member stranded work in its group's queue")
		}
	}
	<-closed
	close(openB)
	if err := <-done; err != nil {
		t.Errorf("the sibling's request: %v", err)
	}
	b.Close()
	if got := a.Metrics().Completed + b.Metrics().Completed; got != n {
		t.Errorf("completed %d across the group, want %d", got, n)
	}
}
