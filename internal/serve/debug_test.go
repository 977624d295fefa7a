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

// TestRequestIDEchoedOnErrorPaths: queue-full (503) and bad-request
// (400) responses all carry the
// X-Request-ID header, echoing the caller's when one was sent and
// minting one otherwise. Without the header a failed request cannot be
// correlated with server-side traces at all.
func TestRequestIDEchoedOnErrorPaths(t *testing.T) {
	m, prompts := fixture(t)

	t.Run("queue-full 503", func(t *testing.T) {
		block := make(chan struct{})
		e := NewEngine(m, Config{Workers: 1, QueueSize: 1, MaxBatch: 1, CacheSize: -1,
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
		submit(0)
		waitFor(t, "first request never reached the batch", func() bool { return e.Metrics().SchedRunning == 1 })
		submit(1)
		waitFor(t, "queue never saturated", func() bool { return e.QueueDepth() == 1 })
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
		resp := postBody(t, ts.URL, "", map[string]any{"prompt": prompts[0], "strategy": "bogus"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if resp.Header.Get(RequestIDHeader) == "" {
			t.Errorf("400 response carries no minted %s header", RequestIDHeader)
		}
	})

	for _, n := range []int{-1, maxNewTokensCap + 1} {
		t.Run(fmt.Sprintf("max_new_tokens %d 400", n), func(t *testing.T) {
			e := NewEngine(m, Config{Workers: 1})
			defer e.Close()
			ts := httptest.NewServer(NewServer(e).Handler())
			defer ts.Close()
			id := fmt.Sprintf("cap-echo-%d", n)
			resp := postBody(t, ts.URL, id, map[string]any{"prompt": prompts[0], "max_new_tokens": n})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if got := resp.Header.Get(RequestIDHeader); got != id {
				t.Errorf("%s = %q, want %s", RequestIDHeader, got, id)
			}
		})
	}

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

// waitFor polls ok for up to 5 s and fails the test with what if it
// never holds.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !ok() {
		t.Fatal(what)
	}
}

// TestSpanTreeShape: the recorded span tree of a request has the
// canonical shape — request root, one queue span, one decode span with
// its session_prep and sweep spans — and a request that waited behind
// a full batch reports its queue_ms. Run under -race in CI, this also
// exercises concurrent span claims from sweep workers against
// debug-endpoint snapshots.
func TestSpanTreeShape(t *testing.T) {
	m, prompts := fixture(t)
	// The step hook holds the first decode in its first sweep until the
	// second request waits behind it, so the two overlap however fast a
	// decode is.
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	e := NewEngine(m, Config{Workers: 1, MaxBatch: 1, CacheSize: -1,
		StepFault: func(ctx context.Context) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}})
	defer e.Close()
	tracer := trace.New(trace.Config{})
	ts := httptest.NewServer(NewServer(e).WithTracer(tracer).Handler())
	defer ts.Close()
	defer open()

	// Two concurrent decodes against one batch slot: the second waits
	// in the queue until the first retires.
	var wg sync.WaitGroup
	ids := []string{"shape-a", "shape-b"}
	status := make([]int, len(ids))
	queueMS := make([]float64, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp := postBody(t, ts.URL, id, map[string]any{
				"prompt": prompts[i], "strategy": "ours", "temperature": 0.6,
				"max_new_tokens": 48, "seed": i,
			})
			status[i] = resp.StatusCode
			var out struct {
				QueueMS float64 `json:"queue_ms"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&out)
			queueMS[i] = out.QueueMS
		}(i, id)
		if i == 0 {
			waitFor(t, "first request never reached the batch", func() bool { return e.Metrics().SchedRunning == 1 })
		}
	}
	waitFor(t, "second request never queued", func() bool { return e.QueueDepth() == 1 })
	open()
	wg.Wait()
	for i, id := range ids {
		if status[i] != http.StatusOK {
			t.Fatalf("request %s: status %d", id, status[i])
		}
	}

	if queueMS[1] <= 0 {
		t.Errorf("request %s waited behind a full batch but reports queue_ms=%g", ids[1], queueMS[1])
	}
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
		"prompt": prompts[0], "strategy": "ours", "temperature": 0.6, "max_new_tokens": 32, "seed": 1})
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
	for _, path := range []string{"/debug/requests", "/debug/pprof/"} {
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
