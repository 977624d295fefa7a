package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestParseAdaptModeTable: documented spellings parse, empty selects
// the documented default, and case variants or unknown names return
// errors instead of silently picking a mode.
func TestParseAdaptModeTable(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"", AdaptOff, false},
		{"off", AdaptOff, false},
		{"on", AdaptOn, false},
		{"shadow", AdaptShadow, false},
		{"On", "", true},
		{"OFF", "", true},
		{"Shadow", "", true},
		{" on", "", true},
		{"on ", "", true},
		{"auto", "", true},
		{"enabled", "", true},
	}
	for _, tc := range cases {
		got, err := ParseAdaptMode(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseAdaptMode(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAdaptMode(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseAdaptMode(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNewEnginePanicsOnUnknownAdaptMode(t *testing.T) {
	m, _ := fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted an unknown adapt mode")
		}
	}()
	NewEngine(m, Config{Workers: 1, Adapt: "bogus"})
}

// TestAdaptShadowByteIdenticalToOff: shadow mode must record decisions
// while changing nothing — every response byte-identical to a
// controller-off engine's, for explicit and default-strategy requests
// alike.
func TestAdaptShadowByteIdenticalToOff(t *testing.T) {
	m, prompts := fixture(t)
	off := NewEngine(m, Config{Workers: 2, CacheSize: -1, NoDedup: true})
	defer off.Close()
	shadow := NewEngine(m, Config{Workers: 2, CacheSize: -1, NoDedup: true, Adapt: AdaptShadow})
	defer shadow.Close()

	reqs := make([]Request, 0, 12)
	for i, p := range prompts[:6] {
		reqs = append(reqs,
			Request{Prompt: p, Options: core.Options{MaxNewTokens: 32, Seed: int64(i)}, NoExplicitStrategy: true},
			Request{Prompt: p, Options: core.Options{Strategy: "ours-tree", MaxNewTokens: 32, Seed: int64(i), Temperature: 0.7}})
	}
	ctx := context.Background()
	for i, req := range reqs {
		a, errA := off.Generate(ctx, req)
		b, errB := shadow.Generate(ctx, req)
		if errA != nil || errB != nil {
			t.Fatalf("request %d: off err=%v shadow err=%v", i, errA, errB)
		}
		if a.Result.Text != b.Result.Text || a.Result.Steps != b.Result.Steps || a.Strategy != b.Strategy {
			t.Fatalf("request %d: shadow diverged from off\noff:    %q (%s, %d steps)\nshadow: %q (%s, %d steps)",
				i, a.Result.Text, a.Strategy, a.Result.Steps, b.Result.Text, b.Strategy, b.Result.Steps)
		}
	}
	ms := shadow.Metrics()
	if ms.Adapt != AdaptShadow {
		t.Fatalf("Adapt = %q, want shadow", ms.Adapt)
	}
	if ms.AdaptDecisions != uint64(len(reqs)) {
		t.Fatalf("AdaptDecisions = %d, want %d (one per submission)", ms.AdaptDecisions, len(reqs))
	}
	if ms.AdaptShadowed != ms.AdaptDecisions {
		t.Fatalf("AdaptShadowed = %d, want %d (shadow applies nothing)", ms.AdaptShadowed, ms.AdaptDecisions)
	}
}

// TestAdaptOnReroutesOnlyDefaultRequests: with the controller applied,
// a request that named no strategy decodes under the controller's pick
// (tree drafting at low load), while explicit choices pass through
// untouched.
func TestAdaptOnReroutesOnlyDefaultRequests(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1, NoDedup: true, Adapt: AdaptOn})
	defer eng.Close()
	ctx := context.Background()

	def, err := eng.Generate(ctx, Request{Prompt: prompts[0], Options: core.Options{MaxNewTokens: 32, Seed: 1}, NoExplicitStrategy: true})
	if err != nil {
		t.Fatalf("default-strategy request: %v", err)
	}
	// Cold start at low load routes to the preference-first candidate:
	// the hybrid tree strategy.
	if def.Strategy != "OursTree" {
		t.Fatalf("default request decoded under %q, want OursTree (controller reroute)", def.Strategy)
	}
	if def.Result.TreeNodes == 0 {
		t.Fatal("rerouted decode proposed no draft-tree nodes — tree drafting did not run")
	}

	exp, err := eng.Generate(ctx, Request{Prompt: prompts[1], Options: core.Options{Strategy: "prompt-lookup", MaxNewTokens: 32, Seed: 2}})
	if err != nil {
		t.Fatalf("explicit request: %v", err)
	}
	if exp.Strategy != "PromptLookup" {
		t.Fatalf("explicit request decoded under %q, want PromptLookup untouched", exp.Strategy)
	}

	mm := eng.Metrics()
	if mm.Adapt != AdaptOn {
		t.Fatalf("Adapt = %q, want on", mm.Adapt)
	}
	if mm.AdaptReroutes == 0 {
		t.Fatal("controller applied no reroutes")
	}
	if mm.AdaptBudgetResizes == 0 {
		t.Fatal("controller sized no budgets")
	}
	if mm.AdaptShadowed != 0 {
		t.Fatalf("AdaptShadowed = %d in on mode, want 0", mm.AdaptShadowed)
	}
}

// TestAdaptOnExplicitConfigByteIdentical: the controller may only
// change WHICH configuration runs — a fully pinned (strategy, budget,
// seed) request must decode byte-identically with the controller on,
// off, or shadowing.
func TestAdaptOnExplicitConfigByteIdentical(t *testing.T) {
	m, prompts := fixture(t)
	cfgs := []Config{
		{Workers: 2, CacheSize: -1, NoDedup: true},
		{Workers: 2, CacheSize: -1, NoDedup: true, Adapt: AdaptShadow},
		{Workers: 2, CacheSize: -1, NoDedup: true, Adapt: AdaptOn},
	}
	ctx := context.Background()
	for i, p := range prompts[:4] {
		req := Request{Prompt: p, Options: core.Options{Strategy: "ours-tree", TreeBudget: 48, MaxNewTokens: 40, Seed: int64(i), Temperature: 0.8}}
		var ref *Response
		for j, cfg := range cfgs {
			eng := NewEngine(m, cfg)
			resp, err := eng.Generate(ctx, req)
			eng.Close()
			if err != nil {
				t.Fatalf("prompt %d engine %d: %v", i, j, err)
			}
			if j == 0 {
				ref = resp
				continue
			}
			if resp.Result.Text != ref.Result.Text || resp.Result.Steps != ref.Result.Steps {
				t.Fatalf("prompt %d: adapt config %d diverged from off for a pinned (strategy,budget,seed)", i, j)
			}
		}
	}
}

// TestStrategyAcceptDepthHistAgrees: the per-strategy accept-depth
// histograms must partition the global one — same buckets, summing to
// the same mass — since the controller reads the per-strategy view.
func TestStrategyAcceptDepthHistAgrees(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 2, CacheSize: -1, NoDedup: true})
	defer eng.Close()
	ctx := context.Background()
	for i, p := range prompts[:6] {
		strat := "ours"
		if i%2 == 1 {
			strat = "ours-tree"
		}
		if _, err := eng.Generate(ctx, Request{Prompt: p, Options: core.Options{Strategy: strat, MaxNewTokens: 32, Seed: int64(i)}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mm := eng.Metrics()
	if len(mm.PerStrategy) < 2 {
		t.Fatalf("expected two strategies, got %v", len(mm.PerStrategy))
	}
	sum := make([]uint64, len(mm.AcceptDepthHist))
	for name, sm := range mm.PerStrategy {
		if len(sm.AcceptDepthHist) != len(mm.AcceptDepthHist) {
			t.Fatalf("strategy %s hist has %d buckets, global %d", name, len(sm.AcceptDepthHist), len(mm.AcceptDepthHist))
		}
		var mass uint64
		for i, v := range sm.AcceptDepthHist {
			sum[i] += v
			mass += v
		}
		if mass == 0 {
			t.Fatalf("strategy %s recorded an empty accept-depth histogram", name)
		}
	}
	for i := range sum {
		if sum[i] != mm.AcceptDepthHist[i] {
			t.Fatalf("bucket %d: per-strategy sum %d != global %d", i, sum[i], mm.AcceptDepthHist[i])
		}
	}
}

// TestAdaptPrometheusFamilies: the controller and per-strategy depth
// families render in the text exposition.
func TestAdaptPrometheusFamilies(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{Workers: 1, CacheSize: -1, NoDedup: true, Adapt: AdaptShadow})
	defer eng.Close()
	if _, err := eng.Generate(context.Background(), Request{Prompt: prompts[0], Options: core.Options{Strategy: "ours", MaxNewTokens: 24, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	eng.WritePrometheusTo(&sb, 1)
	out := sb.String()
	for _, want := range []string{
		`vgend_adapt_info{mode="shadow"} 1`,
		"vgend_adapt_decisions_total 1",
		"vgend_adapt_shadowed_total 1",
		"vgend_adapt_level 0",
		`vgend_strategy_accept_depth_total{strategy="Ours",depth="1"}`,
		`vgend_strategy_accept_depth_total{strategy="Ours",depth="16+"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

// TestContinuousAdaptChurn: join/leave/preempt churn with the
// controller applied — mixed default-strategy, explicit-tree and
// explicit-linear traffic through a tiny preemptive batch, everything
// must complete and the controller must have decided for every
// submission. Runs under the sched-soak race+shuffle job.
func TestContinuousAdaptChurn(t *testing.T) {
	m, prompts := fixture(t)
	eng := NewEngine(m, Config{
		Workers: 2, MaxBatch: 2,
		PreemptQuantum: 2, QueueSize: 64, CacheSize: -1, NoDedup: true,
		Adapt: AdaptOn,
	})
	defer eng.Close()

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Prompt: prompts[i%len(prompts)]}
			switch i % 3 {
			case 0:
				req.Options = core.Options{MaxNewTokens: 40, Seed: int64(i)}
				req.NoExplicitStrategy = true
			case 1:
				req.Options = core.Options{Strategy: "ours-tree", TreeBudget: 48, MaxNewTokens: 24, Seed: int64(i)}
			default:
				req.Options = core.Options{Strategy: "prompt-lookup", MaxNewTokens: 56, Seed: int64(i)}
			}
			resp, err := eng.Generate(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			if resp.Err != nil {
				errs <- resp.Err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("churn request failed: %v", err)
	}
	mm := eng.Metrics()
	if mm.Completed != n {
		t.Fatalf("Completed = %d, want %d", mm.Completed, n)
	}
	if mm.AdaptDecisions != n {
		t.Fatalf("AdaptDecisions = %d, want %d", mm.AdaptDecisions, n)
	}
	if mm.AdaptBudgetResizes == 0 {
		t.Fatal("no budgets sized under churn")
	}
	if mm.Sweeps == 0 || mm.Preemptions == 0 {
		t.Fatalf("churn did not exercise the scheduler (sweeps=%d preemptions=%d)", mm.Sweeps, mm.Preemptions)
	}
}
