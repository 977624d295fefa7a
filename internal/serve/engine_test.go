package serve

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
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// The fixture trains one small model shared by every test; engines are
// cheap, models are not.
var (
	fixOnce    sync.Once
	fixModel   *model.Model
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
		for _, ex := range examples[:24] {
			fixPrompts = append(fixPrompts, ex.Prompt)
		}
	})
	return fixModel, fixPrompts
}

func testOptions(seed int64) core.Options {
	return core.Options{Strategy: "ours", Temperature: 0.6, MaxNewTokens: 48, Seed: seed}
}

// TestBatchMatchesDirectDecoder pins the engine's two core guarantees:
// responses align index-for-index with the submitted batch, and routing
// a decode through queue/batcher/worker changes nothing about its
// output (determinism per seed, independent of worker scheduling).
func TestBatchMatchesDirectDecoder(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 4, CacheSize: -1})
	defer eng.Close()

	reqs := make([]Request, len(prompts))
	for i, p := range prompts {
		reqs[i] = Request{Prompt: p, Options: testOptions(int64(100 + i))}
	}
	resps := eng.GenerateBatch(context.Background(), reqs)

	dec := core.NewDecoder(m)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d failed: %v", i, resp.Err)
		}
		direct := dec.Generate(prompts[i], testOptions(int64(100+i)))
		if resp.Result.Text != direct.Text {
			t.Errorf("request %d: engine text diverges from direct decode\nengine: %q\ndirect: %q",
				i, resp.Result.Text, direct.Text)
		}
		if resp.Result.Steps != direct.Steps {
			t.Errorf("request %d: steps %d != direct %d", i, resp.Result.Steps, direct.Steps)
		}
	}
}

// TestBatchDeterministicAcrossRuns reruns an identical batch on a
// differently-sized pool and demands identical output.
func TestBatchDeterministicAcrossRuns(t *testing.T) {
	m, prompts := fixture(t)
	decode := func(workers int) []string {
		eng := NewEngine(m, Config{Workers: workers, CacheSize: -1})
		defer eng.Close()
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = Request{Prompt: prompts[i], Options: testOptions(int64(i))}
		}
		resps := eng.GenerateBatch(context.Background(), reqs)
		out := make([]string, len(resps))
		for i, r := range resps {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
			out[i] = r.Result.Text
		}
		return out
	}
	a, b := decode(1), decode(4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("request %d: 1-worker and 4-worker runs diverge", i)
		}
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: 8})
	defer eng.Close()
	ctx := context.Background()
	req := Request{Prompt: prompts[0], Options: testOptions(7)}

	first, err := eng.Generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first generation reported cached")
	}
	second, err := eng.Generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical repeat not served from cache")
	}
	if second.Result != first.Result {
		t.Error("cache hit did not share the stored Result")
	}
	// Same prompt, different seed: a different generation, not a hit.
	other, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: testOptions(8)})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different seed served from cache")
	}

	got := eng.Metrics()
	if got.CacheHits != 1 || got.CacheMisses != 2 {
		t.Errorf("cache accounting hits=%d misses=%d, want 1/2", got.CacheHits, got.CacheMisses)
	}
	if want := 1.0 / 3.0; got.CacheHitRate < want-1e-9 || got.CacheHitRate > want+1e-9 {
		t.Errorf("hit rate %f, want %f", got.CacheHitRate, want)
	}
	if got.CacheEntries != 2 {
		t.Errorf("cache entries %d, want 2", got.CacheEntries)
	}
}

// TestCacheFoldsSpelledDefaults: a request spelling out a default the
// decoder applies anyway (top_k 3, ε 0.3 / δ 1.2, the integrity
// ablation on a strategy without the check) decodes identically, so it
// must hit the entry the unset spelling stored.
func TestCacheFoldsSpelledDefaults(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: 8})
	defer eng.Close()
	ctx := context.Background()
	medusa := testOptions(22)
	medusa.Strategy = "medusa"
	for i, unset := range []core.Options{testOptions(20), testOptions(21), medusa} {
		spelled := unset
		switch i {
		case 0:
			spelled.TopK = 3
		case 1:
			spelled.Epsilon, spelled.Delta = 0.3, 1.2
		case 2:
			spelled.DisableIntegrity = true
		}
		if _, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: unset}); err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: spelled})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Errorf("%+v missed the entry %+v stored", spelled, unset)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(i int) cacheKey { return cacheKey{prompt: fmt.Sprintf("p%d", i)} }
	r1, r2, r3 := &core.Result{}, &core.Result{}, &core.Result{}
	c.add(k(1), r1)
	c.add(k(2), r2)
	if _, ok := c.get(k(1)); !ok { // refresh 1: now 2 is LRU
		t.Fatal("k1 missing before eviction")
	}
	c.add(k(3), r3)
	if _, ok := c.get(k(2)); ok {
		t.Error("k2 survived eviction despite being LRU")
	}
	if got, ok := c.get(k(1)); !ok || got != r1 {
		t.Error("recently-used k1 evicted")
	}
	if got, ok := c.get(k(3)); !ok || got != r3 {
		t.Error("fresh k3 missing")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

// TestCancelMidGeneration cancels a request's context from inside its
// own decode loop and expects the context error back promptly.
func TestCancelMidGeneration(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int32
	resp, err := eng.Generate(ctx, Request{
		Prompt:  prompts[0],
		Options: testOptions(3),
		OnStep: func(core.StepEvent) {
			if steps.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Streaming requests never return early: the worker's own partial
	// response comes back, proving the callback can no longer fire
	// against caller state (the NDJSON handler depends on this).
	if resp == nil || resp.Result == nil {
		t.Fatal("cancelled streaming request returned before the worker finished")
	}
	if got := steps.Load(); got < 1 || got > 2 {
		t.Errorf("decode ran %d steps after cancellation, want at most one more", got)
	}
}

// TestCancelWhileQueued cancels a request that is still waiting behind
// a stalled worker; the caller unblocks immediately and the worker
// discards the dead task without decoding it.
func TestCancelWhileQueued(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, QueueSize: 4, CacheSize: -1})

	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	gate := func(core.StepEvent) {
		once.Do(func() { close(started) })
		<-release
	}
	gatedErr := make(chan error, 1)
	go func() {
		_, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: testOptions(1), OnStep: gate})
		gatedErr <- err
	}()
	<-started

	ctxB, cancelB := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := eng.Generate(ctxB, Request{Prompt: prompts[1], Options: testOptions(2)})
		queuedErr <- err
	}()
	// Requests increments at submission, so it signals B is in flight.
	for deadline := time.Now().Add(10 * time.Second); eng.Metrics().Requests < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second request never submitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancelB()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request err=%v, want context.Canceled", err)
	}

	close(release)
	if err := <-gatedErr; err != nil {
		t.Errorf("gated request failed: %v", err)
	}
	eng.Close() // drains B's corpse through the worker
	if got := eng.Metrics().Canceled; got < 1 {
		t.Errorf("canceled=%d, want >= 1", got)
	}
}

func TestStreamingStepsReassembleResult(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1})
	defer eng.Close()

	var mu sync.Mutex
	var tokens int
	var text string
	var events int
	resp, err := eng.Generate(context.Background(), Request{
		Prompt:  prompts[0],
		Options: testOptions(5),
		OnStep: func(ev core.StepEvent) {
			mu.Lock()
			defer mu.Unlock()
			events++
			tokens += len(ev.Tokens)
			text += ev.Text
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != resp.Result.Steps {
		t.Errorf("events=%d, want one per step (%d)", events, resp.Result.Steps)
	}
	if tokens != len(resp.Result.Tokens) {
		t.Errorf("streamed %d tokens, result has %d", tokens, len(resp.Result.Tokens))
	}
	if text != resp.Result.Text {
		t.Errorf("streamed text diverges from result text")
	}
	if resp.Cached {
		t.Error("streaming request reported cached")
	}
	// Streaming must not have populated the cache either.
	again, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: testOptions(5)})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("cache served a result stored by a streaming request")
	}
}

func TestCloseDrainsThenRejects(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1})
	if _, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: testOptions(1)}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Generate(context.Background(), Request{Prompt: prompts[1], Options: testOptions(2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Generate after Close: err=%v, want ErrClosed", err)
	}
	if _, err := eng.TryGenerate(context.Background(), Request{Prompt: prompts[1], Options: testOptions(2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("TryGenerate after Close: err=%v, want ErrClosed", err)
	}
}

// TestCacheSharedAcrossStrategySpellings: the LRU keys are
// canonicalized, so "pl", "prompt-lookup" and the display name share
// one cache entry.
func TestCacheSharedAcrossStrategySpellings(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: 8})
	defer eng.Close()
	ctx := context.Background()
	mk := func(name string) Request {
		return Request{Prompt: prompts[0], Options: core.Options{Strategy: name, MaxNewTokens: 32, Seed: 6}}
	}
	first, err := eng.Generate(ctx, mk("prompt-lookup"))
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []string{"pl", "PromptLookup", "promptlookup"} {
		resp, err := eng.Generate(ctx, mk(alias))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || resp.Result != first.Result {
			t.Errorf("spelling %q did not share the cached decode", alias)
		}
	}
	// The empty spelling of ntp shares too.
	if _, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: core.Options{MaxNewTokens: 32, Seed: 6}}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: core.Options{Strategy: "ntp", MaxNewTokens: 32, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("empty and named spellings of NTP did not share a cache entry")
	}
	if got := eng.Metrics().Completed; got != 2 {
		t.Errorf("completed=%d, want 2 (one per distinct decode)", got)
	}
}

// TestPrefixCacheReuse pins cross-request prefix reuse: repeat decodes
// of one prompt under different seeds rebuild nothing but the RNG.
func TestPrefixCacheReuse(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()
	for seed := int64(0); seed < 3; seed++ {
		if _, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: testOptions(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	mt := eng.Metrics()
	if mt.PrefixCacheMisses != 1 || mt.PrefixCacheHits != 2 {
		t.Errorf("prefix cache hits=%d misses=%d, want 2/1", mt.PrefixCacheHits, mt.PrefixCacheMisses)
	}
	if mt.PrefixCacheEntries != 1 {
		t.Errorf("prefix cache entries=%d, want 1", mt.PrefixCacheEntries)
	}
}

// TestPrefixCacheModesByteIdentical runs a workload — including
// shared-stem prompts that only a prefix trie can partially reuse —
// through an engine and requires responses byte-identical to a direct
// decoder with no session cache: the trie may only change how much
// preparation is recomputed, never what is decoded.
func TestPrefixCacheModesByteIdentical(t *testing.T) {
	m, prompts := fixture(t)
	stem := prompts[0] + " The module must also expose"
	workload := []string{
		prompts[0],
		stem + " an active-high enable input en.",
		stem + " a synchronous clear input clr.",
		prompts[0], // exact repeat
	}
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1})
	defer eng.Close()
	direct := core.NewDecoder(m)
	// One at a time, so the trie's contents at each lookup are fixed:
	// the second stem prompt finds the stem the first one shares.
	for i, p := range workload {
		resp, err := eng.Generate(context.Background(), Request{Prompt: p, Options: testOptions(int64(i))})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := direct.Generate(p, testOptions(int64(i)))
		if resp.Result.Text != want.Text || resp.Result.Steps != want.Steps || resp.Result.SimulatedMS != want.SimulatedMS {
			t.Fatalf("request %d diverged from the cacheless decoder", i)
		}
	}
	mt := eng.Metrics()
	if mt.PrefixCachePartialHits == 0 {
		t.Errorf("trie saw no partial hits on shared stems: %+v", mt)
	}
	if mt.PrefixCacheTokensSaved == 0 || mt.PrefixCacheHitRate == 0 {
		t.Errorf("trie reported no savings: tokens=%d rate=%g", mt.PrefixCacheTokensSaved, mt.PrefixCacheHitRate)
	}
}

// TestRequestKeyCanonical pins the shared-helper key path: requests
// whose prompts tokenize identically must share one result-cache entry,
// because the key is the canonical token-id packing, not the raw
// string.
func TestRequestKeyCanonical(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1})
	defer eng.Close()
	key := func(prompt string) cacheKey {
		_, k := eng.canonicalize(Request{Prompt: prompt, Options: testOptions(1)})
		return k
	}
	a, b := key(prompts[0]), key(prompts[0])
	if a != b {
		t.Fatal("identical requests produced different keys")
	}
	ids := model.CanonicalPromptIDs(m.Tokenizer(), prompts[0])
	if a.prompt != model.PromptKeyString(ids) {
		t.Fatal("request key does not go through the shared canonicalization helper")
	}
	if c := key(prompts[0] + "!"); c == a {
		t.Fatal("distinct prompts share a key")
	}
}

// TestKeyMemoBounded pins the tokenization memo's memory discipline:
// repeat prompts hit the memo (same backing slice comes back), the
// memo resets wholesale at its entry cap instead of growing without
// bound, and oversized prompts are never admitted — they would pin
// megabytes of string per slot for traffic the memo wasn't built for.
func TestKeyMemoBounded(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1})
	defer eng.Close()
	a := eng.canonicalIDs(prompts[0])
	b := eng.canonicalIDs(prompts[0])
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("repeat prompt re-tokenized instead of hitting the memo")
	}
	big := strings.Repeat(prompts[0]+" ", keyMemoMaxPrompt/len(prompts[0])+2)
	eng.canonicalIDs(big)
	eng.memoMu.RLock()
	_, kept := eng.keyMemo[big]
	n := len(eng.keyMemo)
	eng.memoMu.RUnlock()
	if kept {
		t.Errorf("prompt of %d bytes admitted to the memo (cap %d)", len(big), keyMemoMaxPrompt)
	}
	if n != 1 {
		t.Errorf("memo holds %d entries, want just the small prompt", n)
	}
	for i := 0; i < keyMemoCap; i++ {
		eng.canonicalIDs(fmt.Sprintf("%s #%d", prompts[0], i))
	}
	eng.memoMu.RLock()
	n = len(eng.keyMemo)
	eng.memoMu.RUnlock()
	if n > keyMemoCap {
		t.Errorf("memo grew to %d entries past its cap %d", n, keyMemoCap)
	}
}

// TestQueueWaitAccounting pins the queue-wait metrics: with one worker
// and several concurrent requests, later tasks provably sit behind the
// pool, and both the sum and the max surface in the snapshot.
func TestQueueWaitAccounting(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := eng.Generate(context.Background(), Request{Prompt: prompts[c], Options: testOptions(int64(c))}); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	mt := eng.Metrics()
	if mt.QueueWaitSeconds <= 0 {
		t.Errorf("queue_wait_s=%f, want > 0", mt.QueueWaitSeconds)
	}
	if mt.QueueWaitMaxSeconds <= 0 || mt.QueueWaitMaxSeconds > mt.QueueWaitSeconds {
		t.Errorf("queue_wait_max_s=%f out of range (sum %f)", mt.QueueWaitMaxSeconds, mt.QueueWaitSeconds)
	}
}

// TestEngineModelMismatch: a single engine must refuse requests that
// name a different backbone instead of silently answering with its
// own; its own name routes under both the config and flag spellings.
func TestEngineModelMismatch(t *testing.T) {
	m, prompts := fixture(t) // CodeT5p-sim
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer eng.Close()
	ctx := context.Background()
	for _, ok := range []string{"", "codet5p", "CodeT5p-sim", "codet5p-sim"} {
		if _, err := eng.Generate(ctx, Request{Prompt: prompts[0], Model: ok, Options: testOptions(1)}); err != nil {
			t.Errorf("model %q refused: %v", ok, err)
		}
	}
	if _, err := eng.Generate(ctx, Request{Prompt: prompts[0], Model: "codellama", Options: testOptions(1)}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("foreign model err=%v, want ErrUnknownModel", err)
	}
	resps := eng.GenerateBatch(ctx, []Request{
		{Prompt: prompts[1], Options: testOptions(2)},
		{Prompt: prompts[1], Model: "codellama", Options: testOptions(3)},
	})
	if resps[0].Err != nil || !errors.Is(resps[1].Err, ErrUnknownModel) {
		t.Errorf("batch mismatch handling: %v / %v", resps[0].Err, resps[1].Err)
	}
}

// TestEngineStrategyRouting runs the new named strategy through the
// full engine path and checks its per-strategy accounting.
func TestEngineStrategyRouting(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1})
	defer eng.Close()
	opts := core.Options{Strategy: "prompt-lookup", MaxNewTokens: 48}
	resp, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	direct := core.NewDecoder(m).Generate(prompts[0], opts)
	if resp.Result.Text != direct.Text {
		t.Error("engine prompt-lookup decode diverges from direct decode")
	}
	mt := eng.Metrics()
	sm, ok := mt.PerStrategy["PromptLookup"]
	if !ok {
		t.Fatalf("per-strategy metrics missing PromptLookup: %v", mt.PerStrategy)
	}
	if sm.Requests != 1 || sm.Completed != 1 {
		t.Errorf("PromptLookup accounting: %+v", sm)
	}
}

// BenchmarkEngineBatch is the CI bench-smoke target: wall-clock
// throughput of an 8-prompt batch through the full engine path.
func BenchmarkEngineBatch(b *testing.B) {
	m, prompts := fixture(b)
	eng := NewEngine(m, Config{CacheSize: -1})
	defer eng.Close()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Prompt: prompts[i], Options: testOptions(int64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	tokens := 0
	for i := 0; i < b.N; i++ {
		for _, resp := range eng.GenerateBatch(context.Background(), reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
			tokens += len(resp.Result.CleanTokens)
		}
	}
	b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tok/s")
}
