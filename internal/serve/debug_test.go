package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// postBody submits one /v1/generate body with an optional request ID.
func postBody(t *testing.T, url, id string, body map[string]any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/generate", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRequestIDEchoedOnErrorPaths: satellite contract — shed (429),
// queue-full (503) and bad-request (400) responses all carry the
// X-Request-ID header, echoing the caller's when one was sent and
// minting one otherwise. Without the header a failed request cannot be
// correlated with server-side traces at all.
func TestRequestIDEchoedOnErrorPaths(t *testing.T) {
	m, prompts := fixture(t)

	t.Run("shed 429", func(t *testing.T) {
		e := NewEngine(m, Config{Workers: 1, CacheSize: -1,
			Admit: func(ctx context.Context, req Request) error {
				return &ShedError{Policy: "test", Reason: "always", RetryAfter: time.Second}
			}})
		defer e.Close()
		ts := httptest.NewServer(NewServer(e).Handler())
		defer ts.Close()
		resp := postBody(t, ts.URL, "shed-echo-1", map[string]any{"prompt": prompts[0]})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		if got := resp.Header.Get(RequestIDHeader); got != "shed-echo-1" {
			t.Errorf("%s = %q, want shed-echo-1", RequestIDHeader, got)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("shed response lost its Retry-After header")
		}
	})

	t.Run("queue-full 503", func(t *testing.T) {
		block := make(chan struct{})
		e := NewEngine(m, Config{Workers: 1, QueueSize: 1, MaxBatch: 1, CacheSize: -1, NoDedup: true,
			StepFault: func(ctx context.Context) error {
				select {
				case <-block:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}})
		defer e.Close()
		defer close(block)
		ts := httptest.NewServer(NewServer(e).Handler())
		defer ts.Close()
		// Saturate: the first request wedges in decode, and only once
		// the scheduler holds it does the next go in to fill the 1-slot
		// queue (submitted together, the second can bounce off the
		// first still sitting in the queue, which then never refills);
		// once QueueDepth reads full, a further submission must bounce
		// with 503 — no timing dependence.
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		submit := func(seed int64) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = e.TryGenerate(ctx, Request{Prompt: prompts[0], Options: testOptions(seed)})
			}()
		}
		defer wg.Wait()
		defer cancel()
		waitFor := func(what string, ok func() bool) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !ok() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !ok() {
				t.Fatal(what)
			}
		}
		submit(0)
		waitFor("first request never reached the batch", func() bool { return e.Metrics().SchedRunning == 1 })
		submit(1)
		waitFor("queue never saturated", func() bool { return e.QueueDepth() == 1 })
		resp := postBody(t, ts.URL, "full-echo-1", map[string]any{"prompt": prompts[1], "seed": 100})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d from a saturated queue, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get(RequestIDHeader); got != "full-echo-1" {
			t.Errorf("%s = %q, want full-echo-1", RequestIDHeader, got)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("queue-full response lost its Retry-After header")
		}
	})

	t.Run("bad request mints an ID", func(t *testing.T) {
		e := NewEngine(m, Config{Workers: 1})
		defer e.Close()
		ts := httptest.NewServer(NewServer(e).Handler())
		defer ts.Close()
		resp := postBody(t, ts.URL, "", map[string]any{"prompt": prompts[0], "mode": "bogus"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if resp.Header.Get(RequestIDHeader) == "" {
			t.Errorf("400 response carries no minted %s header", RequestIDHeader)
		}
	})

	t.Run("oversized body 413", func(t *testing.T) {
		e := NewEngine(m, Config{Workers: 1})
		defer e.Close()
		ts := httptest.NewServer(NewServer(e).Handler())
		defer ts.Close()
		resp := postBody(t, ts.URL, "big-echo-1", map[string]any{"prompt": strings.Repeat("x", maxBodyBytes)})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d from a body past the cap, want 413", resp.StatusCode)
		}
		if got := resp.Header.Get(RequestIDHeader); got != "big-echo-1" {
			t.Errorf("%s = %q, want big-echo-1", RequestIDHeader, got)
		}
	})
}

// TestSpanTreeShape: the recorded span tree of a preempted request has
// the canonical shape — request root, queue span, decode span with
// park spans nested under it — and the response reports its queue_ms.
// Run under -race in CI, this also exercises concurrent span claims
// from sweep workers against debug-endpoint snapshots.
func TestSpanTreeShape(t *testing.T) {
	m, prompts := fixture(t)
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1,
		PreemptQuantum: 1, CacheSize: -1, NoDedup: true})
	defer e.Close()
	tracer := trace.New(trace.Config{})
	ts := httptest.NewServer(NewServer(e).WithTracer(tracer).Handler())
	defer ts.Close()

	// Two concurrent decodes against one batch slot with a 1-sweep
	// quantum: whichever holds the slot parks as soon as the other
	// waits, so both traces should show preemption.
	var wg sync.WaitGroup
	ids := []string{"shape-a", "shape-b"}
	status := make([]int, len(ids))
	queueMS := make([]float64, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp := postBody(t, ts.URL, id, map[string]any{
				"prompt": prompts[i], "mode": "ours", "temperature": 0.6,
				"max_new_tokens": 48, "seed": i,
			})
			status[i] = resp.StatusCode
			var out struct {
				QueueMS float64 `json:"queue_ms"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&out)
			queueMS[i] = out.QueueMS
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		if status[i] != http.StatusOK {
			t.Fatalf("request %s: status %d", id, status[i])
		}
	}

	parks := 0
	for _, id := range ids {
		snap, ok := tracer.Lookup(id)
		if !ok {
			t.Fatalf("trace %s not recorded", id)
		}
		if snap.Spans[0].Kind != trace.KindRequest {
			t.Fatalf("trace %s: root kind = %s, want request", id, snap.Spans[0].Kind)
		}
		byKind := map[string][]trace.SpanSnapshot{}
		for _, sp := range snap.Spans {
			byKind[sp.Kind] = append(byKind[sp.Kind], sp)
		}
		if len(byKind[trace.KindQueue]) != 1 {
			t.Fatalf("trace %s: %d queue spans, want 1\n%s", id, len(byKind[trace.KindQueue]), snap.Tree())
		}
		if len(byKind[trace.KindDecode]) != 1 {
			t.Fatalf("trace %s: %d decode spans, want 1\n%s", id, len(byKind[trace.KindDecode]), snap.Tree())
		}
		decode := byKind[trace.KindDecode][0]
		if decode.Parent != snap.Spans[0].Index {
			t.Errorf("trace %s: decode span not a child of the request root\n%s", id, snap.Tree())
		}
		if len(byKind[trace.KindSessionPrep]) != 1 {
			t.Errorf("trace %s: missing session_prep span\n%s", id, snap.Tree())
		}
		if len(byKind[trace.KindSweep]) == 0 {
			t.Errorf("trace %s: no sweep spans\n%s", id, snap.Tree())
		}
		for _, park := range byKind[trace.KindPark] {
			parks++
			if park.Parent != decode.Index {
				t.Errorf("trace %s: park span not nested under decode\n%s", id, snap.Tree())
			}
			if park.EndMS < 0 {
				t.Errorf("trace %s: park span never closed\n%s", id, snap.Tree())
			}
		}
	}
	if parks == 0 {
		t.Error("no park spans across both traces; preemption never traced")
	}

	// Every ended span kind feeds the phase sums.
	phases := tracer.PhaseSeconds()
	for _, kind := range []string{trace.KindRequest, trace.KindQueue, trace.KindDecode, trace.KindDraft, trace.KindVerify} {
		if phases[kind] < 0 {
			t.Errorf("phase %s went negative: %g", kind, phases[kind])
		}
		if _, ok := phases[kind]; !ok {
			t.Errorf("phase %s missing from PhaseSeconds()", kind)
		}
	}
}

// TestPhaseMetricsExposed: in tracing mode /metrics gains the
// vgend_phase_seconds_total family (text exposition) and the
// phase_seconds object (JSON); without a tracer neither appears, so
// pre-trace scrapers see an unchanged surface.
func TestPhaseMetricsExposed(t *testing.T) {
	m, prompts := fixture(t)
	e := NewEngine(m, Config{Workers: 1, CacheSize: -1})
	defer e.Close()
	tracer := trace.New(trace.Config{})
	ts := httptest.NewServer(NewServer(e).WithTracer(tracer).Handler())
	defer ts.Close()
	resp := postBody(t, ts.URL, "", map[string]any{
		"prompt": prompts[0], "mode": "ours", "temperature": 0.6, "max_new_tokens": 32, "seed": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}

	prom, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(prom.Body)
	text := buf.String()
	for _, want := range []string{
		"# HELP vgend_phase_seconds_total",
		"# TYPE vgend_phase_seconds_total counter",
		fmt.Sprintf("vgend_phase_seconds_total{phase=%q}", trace.KindDecode),
		fmt.Sprintf("vgend_phase_seconds_total{phase=%q}", trace.KindQueue),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q", want)
		}
	}

	jm, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(jm.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	ph, ok := body["phase_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("JSON metrics carry no phase_seconds object: %v", body["phase_seconds"])
	}
	if _, ok := ph[trace.KindDecode]; !ok {
		t.Errorf("phase_seconds missing %q: %v", trace.KindDecode, ph)
	}
	if n, ok := body["traces_started"].(float64); !ok || n < 1 {
		t.Errorf("traces_started = %v, want >= 1", body["traces_started"])
	}

	// Tracer off: no phase family, no phase_seconds key.
	off := httptest.NewServer(NewServer(e).Handler())
	defer off.Close()
	promOff, err := http.Get(off.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer promOff.Body.Close()
	buf.Reset()
	_, _ = buf.ReadFrom(promOff.Body)
	if strings.Contains(buf.String(), "vgend_phase_seconds_total") {
		t.Error("tracing-off exposition leaks vgend_phase_seconds_total")
	}
	jmOff, err := http.Get(off.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jmOff.Body.Close()
	var bodyOff map[string]any
	if err := json.NewDecoder(jmOff.Body).Decode(&bodyOff); err != nil {
		t.Fatal(err)
	}
	if _, ok := bodyOff["phase_seconds"]; ok {
		t.Error("tracing-off JSON metrics leak phase_seconds")
	}
}

// TestDebugEndpointsAbsentWithoutTracer: the /debug surface only
// mounts in tracing mode (pprof independently behind its flag).
func TestDebugEndpointsAbsentWithoutTracer(t *testing.T) {
	m, _ := fixture(t)
	e := NewEngine(m, Config{Workers: 1})
	defer e.Close()
	ts := httptest.NewServer(NewServer(e).Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/requests", "/debug/trace?id=x", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d without tracer/pprof, want 404", path, resp.StatusCode)
		}
	}

	on := httptest.NewServer(NewServer(e).WithTracer(trace.New(trace.Config{})).WithPprof(true).Handler())
	defer on.Close()
	for _, path := range []string{"/debug/requests", "/debug/pprof/"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d with tracer+pprof, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(on.URL + "/debug/requests?id=never-recorded")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id = %d, want 404", resp.StatusCode)
	}
}
