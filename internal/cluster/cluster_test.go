package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tokenizer"
)

// The fixture trains one small model shared by every test; fleets and
// engines are cheap, models are not.
var (
	fixOnce    sync.Once
	fixModel   *model.Model // CodeT5p-sim / Ours
	fixNTP     *model.Model // CodeT5p-sim / NTP
	fixLlama   *model.Model // CodeLlama-sim / NTP (second backbone for model routing)
	fixPrompts []string
)

func fixture(tb testing.TB) (*model.Model, []string) {
	tb.Helper()
	fixOnce.Do(func() {
		examples, _ := dataset.BuildCorpus(dataset.CorpusOptions{Seed: 1, Items: 700})
		var texts []string
		for _, ex := range examples {
			texts = append(texts, model.FormatPrompt(ex.Prompt)+ex.Code)
		}
		cfg := model.CodeT5pSim()
		tk := tokenizer.Train(texts, cfg.VocabSize)
		fixModel = model.Train(tk, cfg, model.SchemeOurs, examples)
		fixNTP = model.Train(tk, cfg, model.SchemeNTP, examples)
		llamaCfg := model.CodeLlamaSim()
		fixLlama = model.Train(tokenizer.Train(texts, llamaCfg.VocabSize), llamaCfg, model.SchemeNTP, examples)
		for _, ex := range examples[:24] {
			fixPrompts = append(fixPrompts, ex.Prompt)
		}
	})
	return fixModel, fixPrompts
}

func testOptions(seed int64) core.Options {
	return core.Options{Strategy: "ours", Temperature: 0.6, MaxNewTokens: 48, Seed: seed}
}

// newFleet builds a fleet of n identical replicas over the fixture
// model with the given router and policies.
func newFleet(tb testing.TB, n int, router Router, policies []ShedPolicy, engCfg serve.Config) *Fleet {
	tb.Helper()
	m, _ := fixture(tb)
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		specs[i] = ReplicaSpec{Model: m, Engine: engCfg}
	}
	f, err := New(specs, Config{Router: router, Policies: policies})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f
}

// TestSingleReplicaByteIdentical is the golden determinism gate at the
// fleet layer: a 1-replica fleet must produce byte-identical output to
// the bare decoder for the paper's three methods — the cluster layer adds
// routing and admission, never decoding behavior.
func TestSingleReplicaByteIdentical(t *testing.T) {
	m, prompts := fixture(t)
	f := newFleet(t, 1, nil, nil, serve.Config{Workers: 2, CacheSize: -1})
	dec := core.NewDecoder(m)
	for _, mode := range []string{"ntp", "medusa", "ours"} {
		for i, prompt := range prompts[:4] {
			opts := core.Options{Strategy: mode, Temperature: 0.4, MaxNewTokens: 48, Seed: int64(i)}
			resp, err := f.Generate(context.Background(), serve.Request{Prompt: prompt, Options: opts})
			if err != nil {
				t.Fatalf("mode %v prompt %d: %v", mode, i, err)
			}
			direct := dec.Generate(prompt, opts)
			if resp.Result.Text != direct.Text {
				t.Errorf("mode %v prompt %d: fleet output diverges from direct decode", mode, i)
			}
			if resp.Result.Steps != direct.Steps {
				t.Errorf("mode %v prompt %d: steps %d != %d", mode, i, resp.Result.Steps, direct.Steps)
			}
			if resp.Replica == "" {
				t.Errorf("response missing serving replica name")
			}
		}
	}
}

// TestPrefixAffinityConcentrates pins the routing invariant the caches
// depend on: every request for one prompt lands on one replica.
func TestPrefixAffinityConcentrates(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 4, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
	for seed := int64(0); seed < 6; seed++ {
		if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	nonzero := 0
	for _, r := range f.Replicas() {
		if r.routed.Load() > 0 {
			nonzero++
			if got := r.routed.Load(); got != 6 {
				t.Errorf("affine replica routed %d, want 6", got)
			}
		}
	}
	if nonzero != 1 {
		t.Errorf("one prompt spread over %d replicas, want 1", nonzero)
	}
	// The shared prompt means the affine replica's prefix cache misses
	// once and hits five times — the concentration payoff.
	fm := f.Metrics()
	if fm.Fleet.PrefixCacheHits != 5 || fm.Fleet.PrefixCacheMisses != 1 {
		t.Errorf("prefix cache hits=%d misses=%d, want 5/1", fm.Fleet.PrefixCacheHits, fm.Fleet.PrefixCacheMisses)
	}
	if fm.AffinityPicks != 6 || fm.SpillPicks != 0 {
		t.Errorf("affinity picks=%d spill=%d, want 6/0", fm.AffinityPicks, fm.SpillPicks)
	}
}

// TestAffinityBeatsRandomOnCacheHits is the fleet-bench headline as a
// correctness gate: for a shared-prefix workload (repeated prompts and
// seeds), prefix-affinity routing yields a strictly better result-LRU
// hit rate than random routing, because repeats of one prompt all land
// where its result is cached.
func TestAffinityBeatsRandomOnCacheHits(t *testing.T) {
	_, prompts := fixture(t)
	run := func(router Router) float64 {
		f := newFleet(t, 4, router, nil, serve.Config{Workers: 2, CacheSize: 64})
		for rep := 0; rep < 6; rep++ {
			for p := 0; p < 8; p++ {
				req := serve.Request{Prompt: prompts[p], Options: testOptions(int64(p))}
				if _, err := f.Generate(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
		}
		return f.Metrics().Fleet.CacheHitRate
	}
	affinity := run(newPrefixAffinity())
	random := run(newRandomRouter(1))
	if affinity <= random {
		t.Fatalf("affinity hit rate %.3f not better than random %.3f", affinity, random)
	}
	// 8 prompts × 6 repeats through affinity: exactly one miss per
	// prompt, everything else hits.
	if want := 40.0 / 48.0; affinity < want-1e-9 {
		t.Errorf("affinity hit rate %.3f, want %.3f", affinity, want)
	}
}

// TestModelRouting: requests naming a model reach only replicas
// serving it; unknown names fail loudly with ErrUnknownModel.
func TestModelRouting(t *testing.T) {
	m, prompts := fixture(t)
	f, err := New([]ReplicaSpec{
		{Name: "a", Model: m, Engine: serve.Config{Workers: 1, CacheSize: -1}},
		{Name: "b", Model: fixLlama, Engine: serve.Config{Workers: 1, CacheSize: -1}},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Every codellama request must land on replica b — the daemon-flag
	// spelling and the config name both route.
	for i, name := range []string{"codellama", "CodeLlama-sim", "codellama", "codellama-sim"} {
		resp, err := f.Generate(context.Background(), serve.Request{
			Prompt: prompts[i], Model: name, Options: core.Options{Strategy: "ntp", MaxNewTokens: 32},
		})
		if err != nil {
			t.Fatalf("model %q: %v", name, err)
		}
		if resp.Replica != "b" {
			t.Errorf("model %q served by %q, want b", name, resp.Replica)
		}
	}
	if got := f.Replicas()[0].routed.Load(); got != 0 {
		t.Errorf("codet5p replica served %d codellama requests", got)
	}
	if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Model: "gpt4"}); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown model err=%v, want ErrUnknownModel", err)
	}
	if got := f.Metrics().UnknownModel; got != 1 {
		t.Errorf("unknown_model=%d, want 1", got)
	}
}

// TestReplicaDefaultStrategy: a replica configured with its own
// default strategy substitutes it for requests that named nothing, and
// never overrides an explicit choice.
func TestReplicaDefaultStrategy(t *testing.T) {
	_, prompts := fixture(t)
	f, err := New([]ReplicaSpec{
		{Model: fixNTP, Engine: serve.Config{Workers: 1, CacheSize: -1}, DefaultStrategy: "prompt-lookup"},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// No explicit choice: the replica default applies.
	resp, err := f.Generate(context.Background(), serve.Request{
		Prompt: prompts[0], Options: core.Options{Strategy: "ours", MaxNewTokens: 32}, NoExplicitStrategy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "PromptLookup" {
		t.Errorf("defaulted request decoded with %q, want PromptLookup", resp.Strategy)
	}
	// Explicit choice: untouched.
	resp, err = f.Generate(context.Background(), serve.Request{
		Prompt: prompts[0], Options: core.Options{Strategy: "ntp", MaxNewTokens: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "NTP" {
		t.Errorf("explicit request decoded with %q, want NTP", resp.Strategy)
	}
	// An unknown default is a construction error, not a decode-time one.
	if _, err := New([]ReplicaSpec{{Model: fixNTP, DefaultStrategy: "warp"}}, Config{}); err == nil {
		t.Error("unknown DefaultStrategy accepted at construction")
	}
}

// TestMixedPriorityLoadAccounted is the acceptance scenario: a
// 4-replica fleet under concurrent mixed-priority fail-fast load (tiny
// queues, priority shedding active) must account for every request —
// each one either succeeds or returns an explicit shed/backpressure
// error carrying a Retry-After hint. Nothing may vanish. Run with
// -race in CI.
func TestMixedPriorityLoadAccounted(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 4, nil, []ShedPolicy{PriorityPolicy{}},
		serve.Config{Workers: 1, QueueSize: 2, CacheSize: -1})

	const clients = 32
	priorities := []serve.Priority{serve.PriorityHigh, serve.PriorityNormal, serve.PriorityLow}
	type outcome struct {
		ok   bool
		err  error
		resp *serve.Response
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := f.TryGenerate(context.Background(), serve.Request{
				Prompt:   prompts[c%len(prompts)],
				Options:  testOptions(int64(c)),
				Priority: priorities[c%len(priorities)],
			})
			outcomes[c] = outcome{ok: err == nil, err: err, resp: resp}
		}(c)
	}
	wg.Wait()

	served, shed, rejected := 0, 0, 0
	for c, o := range outcomes {
		switch {
		case o.ok:
			if o.resp == nil || o.resp.Result == nil || o.resp.Result.Text == "" {
				t.Errorf("client %d: success without a result", c)
			}
			served++
		default:
			var se *serve.ShedError
			switch {
			case errors.As(o.err, &se):
				if se.RetryAfterSeconds() < 1 {
					t.Errorf("client %d: shed without a Retry-After hint: %v", c, o.err)
				}
				shed++
			case errors.Is(o.err, serve.ErrQueueFull):
				rejected++
			default:
				t.Errorf("client %d: unexplained failure: %v", c, o.err)
			}
		}
	}
	if served+shed+rejected != clients {
		t.Fatalf("accounting leak: served=%d shed=%d rejected=%d of %d", served, shed, rejected, clients)
	}
	if served == 0 {
		t.Error("no request served at all")
	}
	fm := f.Metrics()
	if fm.Shed != uint64(shed) {
		t.Errorf("fleet shed=%d, clients saw %d", fm.Shed, shed)
	}
	if shed > 0 {
		if fm.ShedByPolicy["priority"] != uint64(shed) {
			t.Errorf("shed_by_policy[priority]=%d, want %d", fm.ShedByPolicy["priority"], shed)
		}
		if fm.ShedByPriority["high"] > 0 {
			t.Errorf("high-priority requests shed by the priority policy: %v", fm.ShedByPriority)
		}
	}
}

// TestQueueWaitVisible: queue-wait time (a satellite of the fleet PR)
// accumulates in engine metrics and aggregates across the fleet.
func TestQueueWaitVisible(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, nil, nil, serve.Config{Workers: 1, CacheSize: -1})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _ = f.Generate(context.Background(), serve.Request{Prompt: prompts[c%4], Options: testOptions(int64(c))})
		}(c)
	}
	wg.Wait()
	fm := f.Metrics()
	if fm.Fleet.QueueWaitSeconds <= 0 {
		t.Errorf("queue wait sum %f, want > 0", fm.Fleet.QueueWaitSeconds)
	}
	if fm.Fleet.QueueWaitMaxSeconds <= 0 || fm.Fleet.QueueWaitMaxSeconds > fm.Fleet.QueueWaitSeconds {
		t.Errorf("queue wait max %f out of range (sum %f)", fm.Fleet.QueueWaitMaxSeconds, fm.Fleet.QueueWaitSeconds)
	}
}

// TestRoundRobinSpreads sanity-checks the comparison router.
func TestRoundRobinSpreads(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 3, &roundRobinRouter{}, nil, serve.Config{Workers: 1, CacheSize: -1})
	for i := 0; i < 6; i++ {
		if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[0], Options: testOptions(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range f.Replicas() {
		if got := r.routed.Load(); got != 2 {
			t.Errorf("replica %s routed %d, want 2", r.Name(), got)
		}
	}
}

// TestBatchRoutesAndReassembles: fleet batches split per replica and
// come back index-aligned.
func TestBatchRoutesAndReassembles(t *testing.T) {
	m, prompts := fixture(t)
	f := newFleet(t, 3, nil, nil, serve.Config{Workers: 2, CacheSize: -1})
	reqs := make([]serve.Request, 12)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: prompts[i%6], Options: testOptions(int64(i))}
	}
	resps := f.GenerateBatch(context.Background(), reqs)
	dec := core.NewDecoder(m)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("item %d: %v", i, resp.Err)
		}
		direct := dec.Generate(reqs[i].Prompt, reqs[i].Options)
		if resp.Result.Text != direct.Text {
			t.Errorf("item %d diverges from direct decode", i)
		}
	}
	var routed uint64
	for _, r := range f.Replicas() {
		routed += r.routed.Load()
	}
	if routed != 12 {
		t.Errorf("routed %d, want 12", routed)
	}
}

// TestBatchLoadVisibleToRouter: items earlier in one batch must raise
// the load later items are routed by — otherwise a load-aware router
// sees an idle fleet for every item and concentrates the whole batch
// on one replica. With inflight counted at routing time, least-loaded
// splits an idle fleet's batch evenly.
func TestBatchLoadVisibleToRouter(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 3, leastLoadedRouter{}, nil, serve.Config{Workers: 2, CacheSize: -1})
	reqs := make([]serve.Request, 12)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: prompts[i%6], Options: testOptions(int64(i))}
	}
	for i, resp := range f.GenerateBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("item %d: %v", i, resp.Err)
		}
	}
	for _, r := range f.Replicas() {
		if got := r.routed.Load(); got != 4 {
			t.Errorf("replica %s routed %d of 12, want an even 4", r.Name(), got)
		}
	}
}

// TestBudgetPolicyStructLiteral: the exported fields invite literal
// construction, which must behave like NewBudgetPolicy instead of
// panicking on the nil bucket map / clock.
func TestBudgetPolicyStructLiteral(t *testing.T) {
	p := &BudgetPolicy{TokensPerSec: 100, Burst: 150}
	req := serve.Request{Client: "lit", Options: core.Options{MaxNewTokens: 100}}
	if err := p.Admit(context.Background(), req, Load{}); err != nil {
		t.Fatalf("first literal-policy admission failed: %v", err)
	}
	err := p.Admit(context.Background(), req, Load{})
	var se *serve.ShedError
	if !errors.As(err, &se) || se.Policy != "budget" {
		t.Fatalf("second admission: err=%v, want budget shed", err)
	}
}

func TestNewRouterNames(t *testing.T) {
	for _, name := range []string{"", "prefix-affinity", "least-loaded", "round-robin", "random"} {
		if _, err := NewRouter(name); err != nil {
			t.Errorf("NewRouter(%q): %v", name, err)
		}
	}
	if _, err := NewRouter("warp"); err == nil {
		t.Error("unknown router accepted")
	}
}

func TestParsePolicies(t *testing.T) {
	ps, err := ParsePolicies("deadline,priority,budget", 0, 0)
	if err != nil || len(ps) != 3 {
		t.Fatalf("chain parse: %v (%d policies)", err, len(ps))
	}
	wantNames := []string{"deadline", "priority", "budget"}
	for i, p := range ps {
		if p.Name() != wantNames[i] {
			t.Errorf("policy %d = %q, want %q", i, p.Name(), wantNames[i])
		}
	}
	if ps, err := ParsePolicies("none", 0, 0); err != nil || ps != nil {
		t.Errorf("none: %v %v", ps, err)
	}
	if _, err := ParsePolicies("warp", 0, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFleetConstructionErrors(t *testing.T) {
	m, _ := fixture(t)
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New([]ReplicaSpec{{Model: nil}}, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New([]ReplicaSpec{{Model: m, Engine: serve.Config{
		Admit: func(context.Context, serve.Request) error { return nil },
	}}}, Config{}); err == nil {
		t.Error("caller-owned Admit hook accepted")
	}
}

func TestShedErrorRendering(t *testing.T) {
	se := &serve.ShedError{Policy: "budget", Reason: "over budget", RetryAfter: 1500 * time.Millisecond}
	if se.RetryAfterSeconds() != 2 {
		t.Errorf("RetryAfterSeconds=%d, want 2 (ceil)", se.RetryAfterSeconds())
	}
	if (&serve.ShedError{}).RetryAfterSeconds() != 1 {
		t.Error("zero RetryAfter must floor to 1s")
	}
	if msg := se.Error(); msg == "" || !errors.As(error(se), new(*serve.ShedError)) {
		t.Errorf("ShedError not error-shaped: %q", msg)
	}
	_ = fmt.Sprintf("%v", se)
}
