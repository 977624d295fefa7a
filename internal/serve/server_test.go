package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

func testServer(t *testing.T, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	m, _ := fixture(t)
	eng := NewEngine(m, cfg)
	srv := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerSingleGenerate(t *testing.T) {
	srv, eng := testServer(t, Config{Workers: 2})
	req := GenerateRequest{Prompt: fixPrompts[0], Strategy: "ours", Temperature: 0.6, MaxNewTokens: 48, Seed: 100}
	resp := postJSON(t, srv.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[GenerateResult](t, resp)
	direct := core.NewDecoder(eng.m).Generate(fixPrompts[0], testOptions(100))
	if got.Text != direct.Text {
		t.Errorf("HTTP text diverges from direct decode")
	}
	if got.Mode != "Ours" || got.Steps != direct.Steps || got.Tokens != len(direct.CleanTokens) {
		t.Errorf("result metadata wrong: %+v", got)
	}
	if got.TokensPerSecSim <= 0 || got.MeanAccepted < 1 {
		t.Errorf("implausible speed metadata: %+v", got)
	}
	if want := float64(got.Tokens) / (got.WallMS / 1000); got.WallMS <= 0 || math.Abs(got.TokensPerSecWall-want) > 1e-6*want {
		t.Errorf("tokens_per_sec_wall = %v, want tokens/wall = %v", got.TokensPerSecWall, want)
	}
	// The same request again is a cache hit: no decode ran, so its wall
	// rate is 0 beside the simulated one, and the unlabelled key is gone.
	again := decodeBody[map[string]any](t, postJSON(t, srv.URL+"/v1/generate", req))
	if again["cached"] != true || again["tokens_per_sec_wall"] != 0.0 || again["tokens_per_sec_sim"] != got.TokensPerSecSim {
		t.Errorf("cache hit rates: %v", again)
	}
	if _, ok := again["tokens_per_sec"]; ok {
		t.Error("result still carries the unlabelled tokens_per_sec key")
	}
}

func TestServerBatchGenerate(t *testing.T) {
	srv, eng := testServer(t, Config{Workers: 4, CacheSize: -1})
	prompts := fixPrompts[:8]
	resp := postJSON(t, srv.URL+"/v1/generate", GenerateRequest{
		Prompts: prompts, Strategy: "ours", Temperature: 0.6, MaxNewTokens: 48, Seed: 40,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[map[string][]GenerateResult](t, resp)
	results := body["results"]
	if len(results) != len(prompts) {
		t.Fatalf("results = %d, want %d", len(results), len(prompts))
	}
	dec := core.NewDecoder(eng.m)
	for i, r := range results {
		direct := dec.Generate(prompts[i], testOptions(40+int64(i)))
		if r.Text != direct.Text {
			t.Errorf("batch item %d diverges from direct decode", i)
		}
	}
}

// TestServerConcurrentLoadAndMetrics is the acceptance scenario: at
// least 8 concurrent POST /v1/generate requests, then cache hit rate
// and tokens/s visible on GET /metrics.
func TestServerConcurrentLoadAndMetrics(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 4, CacheSize: 64})
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			raw, _ := json.Marshal(GenerateRequest{
				// Half the clients repeat a prompt+seed so the cache sees hits.
				Prompt: fixPrompts[c%4], Strategy: "ours", Temperature: 0.6,
				MaxNewTokens: 48, Seed: int64(c % 4),
			})
			resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body := decodeBody[struct {
		UptimeS float64 `json:"uptime_s"`
		Engine  Metrics `json:"engine"`
	}](t, resp)
	em := body.Engine
	if em.Requests < clients {
		t.Errorf("requests=%d, want >= %d", em.Requests, clients)
	}
	if em.TokensPerSecWall <= 0 || em.TokensPerSecSim <= 0 {
		t.Errorf("tokens/s not visible: wall=%f sim=%f", em.TokensPerSecWall, em.TokensPerSecSim)
	}
	if em.CacheHits+em.CacheMisses < clients {
		t.Errorf("cache accounting missing: %+v", em)
	}
	ours, ok := em.PerStrategy["Ours"]
	if !ok {
		t.Fatalf("per-strategy metrics missing Ours: %v", em.PerStrategy)
	}
	if ours.MeanAccepted < 1 {
		t.Errorf("mean accepted %f, want >= 1", ours.MeanAccepted)
	}
}

func TestServerCacheVisibleInResponse(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2, CacheSize: 8})
	req := GenerateRequest{Prompt: fixPrompts[1], MaxNewTokens: 32, Seed: 9}
	first := decodeBody[GenerateResult](t, postJSON(t, srv.URL+"/v1/generate", req))
	second := decodeBody[GenerateResult](t, postJSON(t, srv.URL+"/v1/generate", req))
	if first.Cached {
		t.Error("first request cached")
	}
	if !second.Cached {
		t.Error("repeat request not cached")
	}
	if first.Text != second.Text {
		t.Error("cached text diverges")
	}
}

func TestServerStreamNDJSON(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	resp := postJSON(t, srv.URL+"/v1/generate", GenerateRequest{
		Prompt: fixPrompts[2], MaxNewTokens: 48, Seed: 3, Stream: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var text strings.Builder
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
		if !ln.Done {
			text.WriteString(ln.Text)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("only %d NDJSON lines", len(lines))
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Result == nil || last.Error != "" {
		t.Fatalf("final line not a summary: %+v", last)
	}
	if text.String() != last.Result.Text {
		t.Error("streamed fragments do not reassemble the final text")
	}
	for _, ln := range lines[:len(lines)-1] {
		if ln.Step <= 0 {
			t.Errorf("step line missing step index: %+v", ln)
		}
	}
}

// TestServerStreamClientDisconnect drops the client connection
// mid-stream; the handler must wind down without the worker racing a
// write against (or past) the dying ResponseWriter — the race detector
// guards this.
func TestServerStreamClientDisconnect(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	raw, err := json.Marshal(GenerateRequest{Prompt: fixPrompts[3], Stream: true, MaxNewTokens: 400, Temperature: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/generate", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel() // drop the connection with the decode still running
	// Cleanup closes the engine, which waits for the worker to finish
	// the abandoned decode; any unsafe write surfaces under -race.
}

func TestServerStrategyField(t *testing.T) {
	srv, eng := testServer(t, Config{Workers: 2, CacheSize: -1})
	resp := postJSON(t, srv.URL+"/v1/generate", GenerateRequest{
		Prompt: fixPrompts[0], Strategy: "prompt-lookup", MaxNewTokens: 48, Seed: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[GenerateResult](t, resp)
	if got.Mode != "PromptLookup" {
		t.Errorf("mode label %q, want PromptLookup", got.Mode)
	}
	direct := core.NewDecoder(eng.m).Generate(fixPrompts[0],
		core.Options{Strategy: "prompt-lookup", MaxNewTokens: 48, Seed: 5})
	if got.Text != direct.Text {
		t.Error("HTTP prompt-lookup decode diverges from direct decode")
	}
	// Unknown strategy name is a 400 at the API edge.
	bad := postJSON(t, srv.URL+"/v1/generate", GenerateRequest{Prompt: "a", Strategy: "warp"})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d, want 400", bad.StatusCode)
	}

	// The wire spellings: a strategy's canonical and display names, in
	// any case, share one cache key and the same bytes; a request naming
	// none decodes with the model's own method (the fixture is an Ours
	// model) and shares that key too.
	csrv, _ := testServer(t, Config{Workers: 1, CacheSize: 8})
	var first GenerateResult
	for i, tc := range []struct {
		strategy     string
		label        string
		cachedAsPrev bool
	}{
		{"ours", "Ours", false},
		{"Ours", "Ours", true},
		{"OURS", "Ours", true},
		{"", "Ours", true},
	} {
		body := GenerateRequest{Prompt: fixPrompts[1], Strategy: tc.strategy, MaxNewTokens: 32, Seed: 5}
		resp := postJSON(t, csrv.URL+"/v1/generate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spelling %d: status %d", i, resp.StatusCode)
		}
		got := decodeBody[GenerateResult](t, resp)
		if got.Mode != tc.label {
			t.Errorf("spelling %d: label %q, want %q", i, got.Mode, tc.label)
		}
		if i == 0 {
			first = got
		}
		if tc.cachedAsPrev && (!got.Cached || got.Text != first.Text) {
			t.Errorf("spelling %d did not share the first spelling's cached decode", i)
		}
	}
}

// TestDefaultStrategyIsModelsOwn: a request that names no strategy
// decodes with the method its model was trained for. A Medusa-trained
// engine answers it with Medusa, whose heads draft and get accepted —
// not with Ours, whose [FRAG] integrity check would throw every draft
// away on a model that never emits a marker. An NTP-trained engine
// answers with NTP, the same text any head strategy gives on a model
// without heads.
func TestDefaultStrategyIsModelsOwn(t *testing.T) {
	medusa, ntp := schemeFixtures(t)
	for _, tc := range []struct {
		m     *model.Model
		label string
	}{{medusa, "Medusa"}, {ntp, "NTP"}} {
		eng := NewEngine(tc.m, Config{Workers: 1, CacheSize: -1})
		srv := httptest.NewServer(NewServer(eng).Handler())
		t.Cleanup(func() {
			srv.Close()
			eng.Close()
		})
		for seed := int64(0); seed < 4; seed++ {
			body := GenerateRequest{Prompt: fixPrompts[seed], MaxNewTokens: 48, Seed: seed}
			got := decodeBody[GenerateResult](t, postJSON(t, srv.URL+"/v1/generate", body))
			direct, err := eng.Generate(context.Background(), Request{Prompt: body.Prompt,
				Options: core.Options{MaxNewTokens: 48, Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode != tc.label || direct.Strategy != tc.label {
				t.Errorf("%s model, seed %d: labels %q (wire) and %q (engine)", tc.label, seed, got.Mode, direct.Strategy)
			}
			own := core.NewDecoder(tc.m).Generate(body.Prompt, core.Options{Strategy: strings.ToLower(tc.label), MaxNewTokens: 48, Seed: seed})
			if got.Text != own.Text || direct.Result.Text != own.Text {
				t.Errorf("%s model, seed %d: strategy-less text differs from the model's own method", tc.label, seed)
			}
			switch tc.label {
			case "Medusa":
				if acc := direct.Result.MeanAccepted(); acc <= 1 {
					t.Errorf("Medusa model, seed %d: mean accepted %.3f, want > 1", seed, acc)
				}
			case "NTP":
				ours := core.NewDecoder(tc.m).Generate(body.Prompt, core.Options{Strategy: "ours", MaxNewTokens: 48, Seed: seed})
				if got.Text != ours.Text {
					t.Errorf("NTP model, seed %d: text differs from an ours decode, which drafts nothing without heads", seed)
				}
			}
		}
	}
}

func TestServerMetricsPrometheus(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2, CacheSize: 8})
	// Generate something so counters are non-trivial.
	postJSON(t, srv.URL+"/v1/generate", GenerateRequest{
		Prompt: fixPrompts[0], Strategy: "ours", MaxNewTokens: 32, Seed: 2,
	}).Body.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE vgend_requests_total counter",
		"vgend_requests_total 1",
		"vgend_cache_hits_total 0",
		"vgend_queue_wait_seconds_total",
		"vgend_queue_wait_max_seconds",
		"vgend_prefix_cache_misses_total 1",
		`vgend_strategy_requests_total{strategy="Ours"} 1`,
		"vgend_workers 2",
		"vgend_info{model=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}

	// A Prometheus-style Accept header negotiates the same format…
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	negotiated, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	negotiated.Body.Close()
	if ct := negotiated.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept negotiation returned %q", ct)
	}
	// …a JSON-preferring client that merely lists text/plain (axios
	// default) keeps JSON…
	jsonReq, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	jsonReq.Header.Set("Accept", "application/json, text/plain, */*")
	jsonResp, err := http.DefaultClient.Do(jsonReq)
	if err != nil {
		t.Fatal(err)
	}
	jsonResp.Body.Close()
	if ct := jsonResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON-preferring Accept returned %q", ct)
	}
	// …and a bare GET keeps the JSON shape.
	plain, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2 := decodeBody[struct {
		Engine Metrics `json:"engine"`
	}](t, plain)
	if body2.Engine.Requests != 1 {
		t.Errorf("JSON metrics requests=%d, want 1", body2.Engine.Requests)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[map[string]any](t, resp)
	if body["status"] != "ok" || body["model"] == "" {
		t.Errorf("healthz body: %v", body)
	}
}

func TestServerRequestValidation(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body any
		// field, when set, is the field the error must name.
		field string
	}{
		{"neither prompt nor prompts", GenerateRequest{}, ""},
		{"both prompt and prompts", GenerateRequest{Prompt: "a", Prompts: []string{"b"}}, ""},
		{"unknown strategy", GenerateRequest{Prompt: "a", Strategy: "warp"}, ""},
		{"retired short alias", GenerateRequest{Prompt: "a", Strategy: "pl"}, ""},
		{"stream with batch", GenerateRequest{Prompts: []string{"a", "b"}, Stream: true}, ""},
		{"oversized batch", GenerateRequest{Prompts: make([]string, maxBatchPrompts+1)}, ""},
		// Unknown fields are refused, not ignored: a client still
		// sending the retired "mode" alias, a retired admission field
		// or a typo gets a 400 naming it instead of a silently
		// different decode.
		{"retired mode alias", map[string]any{"prompt": "a", "mode": "medusa"}, "mode"},
		{"typo", map[string]any{"prompt": "a", "temprature": 0.5}, "temprature"},
		{"retired admission field", map[string]any{"prompt": "a", "seed": 3, "priority": "urgent"}, "priority"},
		// Every knob that sizes a decode's work is bounded.
		{"negative max_new_tokens", GenerateRequest{Prompt: "a", MaxNewTokens: -1}, "max_new_tokens"},
		{"max_new_tokens over cap", GenerateRequest{Prompt: "a", MaxNewTokens: maxNewTokensCap + 1}, "max_new_tokens"},
		{"negative top_k", GenerateRequest{Prompt: "a", TopK: -1}, "top_k"},
		{"top_k over cap", GenerateRequest{Prompt: "a", TopK: maxTopK + 1}, "top_k"},
		{"negative tree_budget", GenerateRequest{Prompt: "a", Strategy: "medusa-tree", TreeBudget: -1}, "tree_budget"},
		{"tree_budget over cap", GenerateRequest{Prompt: "a", Strategy: "medusa-tree", TreeBudget: maxTreeBudget + 1}, "tree_budget"},
	}
	for _, tc := range cases {
		resp := postJSON(t, srv.URL+"/v1/generate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		body := decodeBody[map[string]string](t, resp)
		if tc.field != "" && !strings.Contains(body["error"], `"`+tc.field+`"`) {
			t.Errorf("%s: error %q does not name the field %q", tc.name, body["error"], tc.field)
		}
	}
	// At the caps a request decodes.
	atCap := GenerateRequest{Prompt: fixPrompts[0], Strategy: "medusa-tree", MaxNewTokens: 16,
		TopK: maxTopK, TreeBudget: maxTreeBudget, Seed: 1}
	resp := postJSON(t, srv.URL+"/v1/generate", atCap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("top_k and tree_budget at their caps: status %d, want 200", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate: status %d, want 405", getResp.StatusCode)
	}
}
