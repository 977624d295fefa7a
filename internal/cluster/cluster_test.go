package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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
	fixMedusa  *model.Model // CodeT5p-sim / Medusa
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
		fixMedusa = model.Train(tk, cfg, model.SchemeMedusa, examples)
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
// model with the given router.
func newFleet(tb testing.TB, n int, router Router, engCfg serve.Config) *Fleet {
	tb.Helper()
	m, _ := fixture(tb)
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		specs[i] = ReplicaSpec{Model: m, Engine: engCfg}
	}
	f, err := New(specs, Config{Router: router})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f
}

// Test-local routers, plugged in through the Router seam: round-robin
// for a deterministic spread, and seeded random as the control prefix
// affinity must beat.
type (
	roundRobinRouter struct{ n atomic.Uint64 }
	randomRouter     struct{ rng *rand.Rand } // single-goroutine use
)

func (r *roundRobinRouter) Pick(_ string, c []*Replica) *Replica {
	return c[(r.n.Add(1)-1)%uint64(len(c))]
}
func (r randomRouter) Pick(_ string, c []*Replica) *Replica { return c[r.rng.Intn(len(c))] }

// TestSingleReplicaByteIdentical is the golden determinism gate at the
// fleet layer: a 1-replica fleet must produce byte-identical output to
// the bare decoder for the paper's three methods — the cluster layer adds
// routing, never decoding behavior.
func TestSingleReplicaByteIdentical(t *testing.T) {
	m, prompts := fixture(t)
	f := newFleet(t, 1, nil, serve.Config{Workers: 2, CacheSize: -1})
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
	f := newFleet(t, 4, nil, serve.Config{Workers: 1, CacheSize: -1})
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
}

// TestAffinityBeatsRandomOnCacheHits is the routing policy's reason to
// exist as a correctness gate: for a shared-prefix workload (repeated
// prompts and seeds), prefix-affinity routing yields a strictly better
// result-LRU hit rate than random routing, because repeats of one
// prompt all land where its result is cached.
func TestAffinityBeatsRandomOnCacheHits(t *testing.T) {
	_, prompts := fixture(t)
	run := func(router Router) float64 {
		f := newFleet(t, 4, router, serve.Config{Workers: 2, CacheSize: 64})
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
	affinity := run(prefixAffinity{})
	random := run(randomRouter{rand.New(rand.NewSource(1))})
	if affinity <= random {
		t.Fatalf("affinity hit rate %.3f not better than random %.3f", affinity, random)
	}
	// 8 prompts × 6 repeats through affinity: exactly one miss per
	// prompt, everything else hits.
	if want := 40.0 / 48.0; affinity < want-1e-9 {
		t.Errorf("affinity hit rate %.3f, want %.3f", affinity, want)
	}
}

// TestModelRouting runs one table of model spellings against a
// two-model fleet and against a single CodeT5p-sim engine. Both apply
// the one rule serve.ModelKeys states — the case-folded config name, or
// that name without "-sim" — so a request naming a model reaches only
// the replicas serving it, the engine accepts exactly the spellings the
// fleet routes to its model, and a name nothing serves fails loudly
// with ErrUnknownModel on both.
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
	eng := serve.NewEngine(m, serve.Config{Workers: 1, CacheSize: -1})
	defer eng.Close()

	for i, tc := range []struct {
		name    string
		replica string // the fleet replica serving it; "" = unknown model
	}{
		{"codellama", "b"},
		{"CodeLlama-sim", "b"},
		{"CODET5P", "a"},
		{"codet5p-sim", "a"},
		{"gpt", ""},
	} {
		req := serve.Request{Prompt: prompts[i], Model: tc.name, Options: core.Options{Strategy: "ntp", MaxNewTokens: 32}}
		resp, err := f.Generate(context.Background(), req)
		switch {
		case tc.replica == "" && !errors.Is(err, serve.ErrUnknownModel):
			t.Errorf("fleet on %q: err=%v, want ErrUnknownModel", tc.name, err)
		case tc.replica != "" && err != nil:
			t.Errorf("fleet refused %q: %v", tc.name, err)
		case tc.replica != "" && resp.Replica != tc.replica:
			t.Errorf("fleet served %q on %q, want %q", tc.name, resp.Replica, tc.replica)
		}
		_, err = eng.Generate(context.Background(), req)
		if tc.replica == "a" && err != nil {
			t.Errorf("engine refused %q: %v", tc.name, err)
		}
		if tc.replica != "a" && !errors.Is(err, serve.ErrUnknownModel) {
			t.Errorf("engine on %q: err=%v, want ErrUnknownModel", tc.name, err)
		}
	}
	for _, r := range f.Replicas() {
		if got := r.routed.Load(); got != 2 {
			t.Errorf("replica %s routed %d requests, want 2 (its two spellings)", r.name, got)
		}
	}
	if got := f.Metrics().UnknownModel; got != 1 {
		t.Errorf("unknown_model=%d, want 1", got)
	}
}

// TestReplicaDefaultStrategy: a replica's default strategy is its
// model's own method. In a fleet of two Ours and two Medusa replicas, a
// burst of strategy-less requests routed to each group is answered
// with that group's method — Ours by the Ours replicas, Medusa by the
// Medusa ones — and byte-identical to a direct decode on the routed
// model: a steal stays inside the group, so the thief's model and
// method are the routed replica's. An explicit strategy is never
// overridden.
func TestReplicaDefaultStrategy(t *testing.T) {
	m, prompts := fixture(t)
	engCfg := serve.Config{Workers: 1, CacheSize: -1}
	f, err := New([]ReplicaSpec{
		{Name: "ours-a", Model: m, Engine: engCfg},
		{Name: "medusa-a", Model: fixMedusa, Engine: engCfg},
		{Name: "ours-b", Model: m, Engine: engCfg},
		{Name: "medusa-b", Model: fixMedusa, Engine: engCfg},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	serves := map[string]*model.Model{"ours-a": m, "ours-b": m, "medusa-a": fixMedusa, "medusa-b": fixMedusa}
	own := map[*model.Model]string{m: "Ours", fixMedusa: "Medusa"}

	// One prompt whose routed replica is in each group.
	hot := map[*model.Model]string{}
	for _, p := range prompts {
		if g := serves[f.router.Pick(affinityKey(p), f.replicas).name]; hot[g] == "" {
			hot[g] = p
		}
	}
	if len(hot) != 2 {
		t.Fatalf("no fixture prompt routes to each group: %v", hot)
	}
	const burst = 12
	type item struct {
		m    *model.Model
		req  serve.Request
		resp *serve.Response
		err  error
	}
	var items []*item
	for g, p := range hot {
		for i := 0; i < burst; i++ {
			opts := core.Options{Temperature: 0.6, MaxNewTokens: 48, Seed: int64(i)}
			items = append(items, &item{m: g, req: serve.Request{Prompt: p, Options: opts}})
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
	decoders := map[*model.Model]*core.Decoder{m: core.NewDecoder(m), fixMedusa: core.NewDecoder(fixMedusa)}
	for i, it := range items {
		if err := firstErr(it.resp, it.err); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if serves[it.resp.Replica] != it.m || it.resp.Strategy != own[it.m] {
			t.Errorf("item %d for the %s group: served by %s with %s", i, own[it.m], it.resp.Replica, it.resp.Strategy)
		}
		if direct := decoders[it.m].Generate(it.req.Prompt, it.req.Options); it.resp.Result.Text != direct.Text {
			t.Errorf("item %d: output diverges from a direct decode on the routed model", i)
		}
	}
	stolen := map[*model.Model]uint64{}
	for _, r := range f.Metrics().PerReplica {
		stolen[serves[r.Name]] += r.Stolen
	}
	if stolen[m] == 0 || stolen[fixMedusa] == 0 {
		t.Errorf("steals per group: ours %d, medusa %d; want both > 0", stolen[m], stolen[fixMedusa])
	}

	// Explicit choice: untouched.
	resp, err := f.Generate(context.Background(), serve.Request{
		Prompt: hot[fixMedusa], Options: core.Options{Strategy: "ntp", MaxNewTokens: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "NTP" {
		t.Errorf("explicit request decoded with %q, want NTP", resp.Strategy)
	}
}

// TestFailFastLoadAccounted is the acceptance scenario: a 4-replica
// fleet under concurrent fail-fast load (tiny queues) must account for
// every request — each one either succeeds or returns ErrQueueFull,
// which the HTTP layer answers with 503 and a Retry-After header, and
// the fleet's summed rejections equal what the clients saw. Nothing
// may vanish. Run with -race in CI.
func TestFailFastLoadAccounted(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 4, nil, serve.Config{Workers: 1, QueueSize: 2, CacheSize: -1})

	const clients = 32
	type outcome struct {
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
				Prompt:  prompts[c%len(prompts)],
				Options: testOptions(int64(c)),
			})
			outcomes[c] = outcome{err: err, resp: resp}
		}(c)
	}
	wg.Wait()

	served, rejected := 0, 0
	for c, o := range outcomes {
		switch {
		case o.err == nil:
			if o.resp == nil || o.resp.Result == nil || o.resp.Result.Text == "" {
				t.Errorf("client %d: success without a result", c)
			}
			served++
		case errors.Is(o.err, serve.ErrQueueFull):
			rejected++
		default:
			t.Errorf("client %d: unexplained failure: %v", c, o.err)
		}
	}
	if served+rejected != clients {
		t.Fatalf("accounting leak: served=%d rejected=%d of %d", served, rejected, clients)
	}
	if served == 0 {
		t.Error("no request served at all")
	}
	if fm := f.Metrics(); fm.Fleet.Rejected != uint64(rejected) {
		t.Errorf("fleet rejected=%d, clients saw %d", fm.Fleet.Rejected, rejected)
	}
}

// TestQueueWaitVisible: queue-wait time (a satellite of the fleet PR)
// accumulates in engine metrics and aggregates across the fleet.
func TestQueueWaitVisible(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, nil, serve.Config{Workers: 1, CacheSize: -1})
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

// TestBatchRoutesAndReassembles: fleet batch items spread over the
// replicas and come back index-aligned, byte-identical to direct decodes.
func TestBatchRoutesAndReassembles(t *testing.T) {
	m, prompts := fixture(t)
	f := newFleet(t, 3, nil, serve.Config{Workers: 2, CacheSize: -1})
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

// TestNewRouterNames: prefix affinity is the only router, by name or
// by default; any other name is refused.
func TestNewRouterNames(t *testing.T) {
	for _, name := range []string{"", "prefix-affinity"} {
		if r, err := NewRouter(name); err != nil {
			t.Errorf("NewRouter(%q): %v", name, err)
		} else if _, ok := r.(prefixAffinity); !ok {
			t.Errorf("NewRouter(%q) = %T, want prefixAffinity", name, r)
		}
	}
	for _, name := range []string{"least-loaded", "round-robin", "random", "warp"} {
		if _, err := NewRouter(name); err == nil {
			t.Errorf("NewRouter(%q) accepted", name)
		}
	}
}

func TestFleetConstructionErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New([]ReplicaSpec{{Model: nil}}, Config{}); err == nil {
		t.Error("nil model accepted")
	}
}
