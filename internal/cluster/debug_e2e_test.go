package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// This file is the end-to-end proof of the debug surface's core
// promise: a fleet request must be fully debuggable from GET
// /debug/requests?id=<X-Request-ID> alone — the routing decision, the
// attempt on the chosen replica, and the queue and decode phases of the
// request, all in one recorded span tree.

// postGen submits one generation over HTTP, echoing back the decoded
// body and the raw response (body already closed; headers/status only).
func postGen(t *testing.T, url, id, prompt string, seed int64) (map[string]any, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"prompt": prompt, "strategy": "ours", "temperature": 0.6,
		"max_new_tokens": 48, "seed": seed,
	})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp
}

// fetchTrace pulls one recorded trace from the flight recorder: the
// raw snapshot under "trace", the rendered tree under "tree".
func fetchTrace(t *testing.T, url, id string) (trace.Snapshot, string, int) {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Trace trace.Snapshot `json:"trace"`
		Tree  string         `json:"tree"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return body.Trace, body.Tree, resp.StatusCode
}

// attr returns a span attribute's value ("" when absent).
func attr(sp trace.SpanSnapshot, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// descendsFrom walks the parent chain of spans[i] looking for anc.
func descendsFrom(spans []trace.SpanSnapshot, i, anc int) bool {
	for i >= 0 && i < len(spans) {
		if i == anc {
			return true
		}
		i = spans[i].Parent
	}
	return false
}

// firstRouter always picks the first candidate, so a test knows the
// primary before it sends anything.
type firstRouter struct{}

func (firstRouter) Pick(_ string, candidates []*Replica) *Replica { return candidates[0] }

func TestDebugSurfaceFleetRequest(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, firstRouter{}, serve.Config{Workers: 1, CacheSize: -1})
	tracer := trace.New(trace.Config{})
	ts := httptest.NewServer(serve.NewServer(f).WithTracer(tracer).Handler())
	defer ts.Close()
	routed := f.replicas[0].name

	const id = "e2e-fleet-request"
	out, resp := postGen(t, ts.URL, id, prompts[1], 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("X-Request-ID echoed %q, want %q", got, id)
	}
	if served, _ := out["replica"].(string); served != routed {
		t.Fatalf("served by %q, want the routed replica %q", served, routed)
	}

	// The handler finishes the trace after the response is written, so
	// poll until the recorder holds it.
	var snap trace.Snapshot
	var tree string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var code int
		snap, tree, code = fetchTrace(t, ts.URL, id)
		if code == http.StatusOK && snap.Status != "" || time.Now().After(deadline) {
			break
		}
	}

	if snap.ID != id {
		t.Fatalf("recorded trace id = %q, want %q", snap.ID, id)
	}
	if snap.Status != "200" {
		t.Errorf("trace status = %q, want %q\n%s", snap.Status, "200", tree)
	}
	if len(snap.Spans) == 0 || snap.Spans[0].Kind != trace.KindRequest {
		t.Fatalf("root span kind = %v, want request\n%s", snap.Spans, tree)
	}
	if got := attr(snap.Spans[0], "status"); got != "200" {
		t.Errorf("root status attr = %q, want 200\n%s", got, tree)
	}
	var router, attempt *trace.SpanSnapshot
	attempts := 0
	for i := range snap.Spans {
		switch snap.Spans[i].Kind {
		case trace.KindRouter:
			router = &snap.Spans[i]
		case trace.KindAttempt:
			attempt = &snap.Spans[i]
			attempts++
		}
	}
	if router == nil {
		t.Fatalf("no router span recorded\n%s", tree)
	}
	if got := attr(*router, "replica"); got != routed {
		t.Errorf("router chose %q, want the first replica %q\n%s", got, routed, tree)
	}

	// One attempt, on the routed replica, as the primary, outcome ok.
	if attempts != 1 {
		t.Fatalf("%d attempt spans, want 1\n%s", attempts, tree)
	}
	if got := attr(*attempt, "replica"); got != routed {
		t.Errorf("attempt on %q, want %q\n%s", got, routed, tree)
	}
	if got := attr(*attempt, "role"); got != "primary" {
		t.Errorf("attempt role = %q, want primary\n%s", got, tree)
	}
	if got := attr(*attempt, "outcome"); got != "ok" {
		t.Errorf("attempt outcome = %q, want ok\n%s", got, tree)
	}
	if router.EndMS < 0 || router.EndMS > attempt.StartMS {
		t.Errorf("attempt started before the routing decision closed\n%s", tree)
	}

	// Queue and decode phases nested under the attempt: the request's
	// time split, readable from the debug endpoint alone.
	var queue, decode *trace.SpanSnapshot
	for i := range snap.Spans {
		sp := snap.Spans[i]
		if !descendsFrom(snap.Spans, i, attempt.Index) {
			continue
		}
		switch sp.Kind {
		case trace.KindQueue:
			queue = &snap.Spans[i]
		case trace.KindDecode:
			decode = &snap.Spans[i]
		}
	}
	if queue == nil {
		t.Fatalf("no queue span under the attempt\n%s", tree)
	}
	if attr(*queue, "wait_us") == "" {
		t.Errorf("queue span carries no wait_us attr\n%s", tree)
	}
	if decode == nil {
		t.Fatalf("no decode span under the attempt\n%s", tree)
	}
	if attr(*decode, "tokens") == "" || attr(*decode, "sweeps") == "" {
		t.Errorf("decode span missing tokens/sweeps attrs\n%s", tree)
	}
	if decode.DurMS < 0 {
		t.Errorf("decode span still open\n%s", tree)
	}
}
