package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func asShed(t *testing.T, err error) *serve.ShedError {
	t.Helper()
	var se *serve.ShedError
	if !errors.As(err, &se) {
		t.Fatalf("err=%v, want *serve.ShedError", err)
	}
	return se
}

func TestPriorityPolicyThresholds(t *testing.T) {
	p := PriorityPolicy{}
	ctx := context.Background()
	load := func(depth int) Load { return Load{QueueDepth: depth, QueueCap: 100, Workers: 2} }
	cases := []struct {
		prio  serve.Priority
		depth int
		shed  bool
	}{
		{serve.PriorityLow, 49, false},
		{serve.PriorityLow, 50, true},
		{serve.PriorityNormal, 84, false},
		{serve.PriorityNormal, 85, true},
		{serve.PriorityHigh, 99, false}, // only the queue-full backstop sheds high
	}
	for _, tc := range cases {
		err := p.Admit(ctx, serve.Request{Priority: tc.prio}, load(tc.depth))
		if got := err != nil; got != tc.shed {
			t.Errorf("priority %v at depth %d: shed=%v, want %v (%v)", tc.prio, tc.depth, got, tc.shed, err)
		}
		if err != nil {
			if se := asShed(t, err); se.Policy != "priority" || se.RetryAfterSeconds() < 1 {
				t.Errorf("malformed shed error: %+v", se)
			}
		}
	}
}

func TestDeadlinePolicy(t *testing.T) {
	p := DeadlinePolicy{}
	// Backlog of 20 in-flight over 1 worker at 50ms each ≈ 1.05s wait.
	load := Load{QueueDepth: 20, QueueCap: 32, Workers: 1, Inflight: 20, MeanDecodeMS: 50}

	// No deadline: always admitted.
	if err := p.Admit(context.Background(), serve.Request{}, load); err != nil {
		t.Errorf("no-deadline request shed: %v", err)
	}
	// Generous deadline: admitted.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := p.Admit(ctx, serve.Request{}, load); err != nil {
		t.Errorf("meetable deadline shed: %v", err)
	}
	// Hopeless deadline: shed with a useful hint.
	tight, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	se := asShed(t, p.Admit(tight, serve.Request{}, load))
	if se.Policy != "deadline" || se.RetryAfterSeconds() < 1 {
		t.Errorf("malformed deadline shed: %+v", se)
	}
	// Cold fleet (no decode-time estimate yet): never sheds.
	if err := p.Admit(tight, serve.Request{}, Load{QueueDepth: 20, Workers: 1}); err != nil {
		t.Errorf("cold-estimate request shed: %v", err)
	}
}

func TestBudgetPolicyBucket(t *testing.T) {
	p := NewBudgetPolicy(100, 300) // 100 tok/s, 300 burst
	now := time.Unix(0, 0)
	p.now = func() time.Time { return now }
	ctx := context.Background()
	req := func(client string, maxTokens int) serve.Request {
		return serve.Request{Client: client, Options: core.Options{MaxNewTokens: maxTokens}}
	}

	// Burst covers two 150-token requests, the third sheds.
	if err := p.Admit(ctx, req("alice", 150), Load{}); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := p.Admit(ctx, req("alice", 150), Load{}); err != nil {
		t.Fatalf("second: %v", err)
	}
	se := asShed(t, p.Admit(ctx, req("alice", 150), Load{}))
	if se.Policy != "budget" {
		t.Errorf("policy %q, want budget", se.Policy)
	}
	// 150 tokens short at 100 tok/s → retry in ~1.5s, reported as 2.
	if got := se.RetryAfterSeconds(); got != 2 {
		t.Errorf("RetryAfterSeconds=%d, want 2", got)
	}
	// Budgets are per client: bob is unaffected by alice's burn.
	if err := p.Admit(ctx, req("bob", 150), Load{}); err != nil {
		t.Fatalf("bob: %v", err)
	}
	// Refill: two seconds later alice fits again.
	now = now.Add(2 * time.Second)
	if err := p.Admit(ctx, req("alice", 150), Load{}); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	// Unbounded requests charge the default cost.
	if NewBudgetPolicy(0, 0).DefaultCost <= 0 {
		t.Error("default cost not set")
	}
}

// TestDedupLeaderShedFollowerRetriesFleet is the satellite scenario at
// the fleet layer: two identical concurrent requests hit one replica
// (affinity guarantees it); the admission policy sheds the
// single-flight leader while the follower is already waiting on its
// flight. The follower must retry on its own behalf — and succeed once
// admission clears — rather than inherit the leader's shed error.
func TestDedupLeaderShedFollowerRetriesFleet(t *testing.T) {
	m, prompts := fixture(t)
	gate := make(chan struct{})
	shedFirst := &gatedPolicy{gate: gate, seen: make(chan struct{})}
	f, err := New(
		[]ReplicaSpec{{Model: m, Engine: serve.Config{Workers: 1, QueueSize: 16, CacheSize: -1}}},
		Config{Policies: []ShedPolicy{shedFirst}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := serve.Request{Prompt: prompts[0], Options: testOptions(7)}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := f.Generate(context.Background(), req)
		leaderErr <- err
	}()
	// The leader is inside admission (holding its flight) once the
	// policy has seen it.
	shedFirst.waitSeen(t)

	followerDone := make(chan *serve.Response, 1)
	followerErr := make(chan error, 1)
	go func() {
		resp, err := f.Generate(context.Background(), req)
		followerDone <- resp
		followerErr <- err
	}()
	// The follower has joined the leader's flight once dedup registers.
	waitFor(t, func() bool { return f.Replicas()[0].Engine().Metrics().DedupHits == 1 }, "follower join")

	close(gate) // admission now sheds the leader

	if err := <-leaderErr; asShed(t, err).Policy != "gated" {
		t.Fatalf("leader err=%v, want gated shed", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower inherited the leader's shed: %v", err)
	}
	resp := <-followerDone
	if resp == nil || resp.Result == nil || resp.Result.Text == "" {
		t.Fatalf("follower got no result: %+v", resp)
	}
	direct := core.NewDecoder(m).Generate(prompts[0], testOptions(7))
	if resp.Result.Text != direct.Text {
		t.Error("follower's retried decode diverges from direct decode")
	}
	em := f.Replicas()[0].Engine().Metrics()
	if em.Shed != 1 {
		t.Errorf("engine shed=%d, want 1 (the leader only)", em.Shed)
	}
}

// gatedPolicy sheds exactly its first admission — after blocking until
// released, so the test can arrange a follower join in the window
// between flight registration and the shed.
type gatedPolicy struct {
	gate chan struct{}
	seen chan struct{}
	once atomic.Bool
}

func (g *gatedPolicy) Name() string { return "gated" }
func (g *gatedPolicy) Admit(_ context.Context, _ serve.Request, _ Load) error {
	if !g.once.CompareAndSwap(false, true) {
		return nil
	}
	close(g.seen)
	<-g.gate
	return &serve.ShedError{Policy: "gated", Reason: "test", RetryAfter: time.Second}
}
func (g *gatedPolicy) waitSeen(t *testing.T) {
	t.Helper()
	select {
	case <-g.seen:
	case <-time.After(10 * time.Second):
		t.Fatal("admission never saw the leader")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetHTTP drives a fleet through the shared HTTP layer: priority
// and budget sheds surface as 429 + Retry-After, model routing and the
// replica field work end to end, and /healthz and /metrics take the
// fleet shape (including the Prometheus exposition's fleet families).
func TestFleetHTTP(t *testing.T) {
	m, prompts := fixture(t)
	budget := NewBudgetPolicy(1, 100) // one ~100-token request, then shed
	f, err := New(
		[]ReplicaSpec{
			{Name: "a", Model: m, Engine: serve.Config{Workers: 2, CacheSize: -1}},
			{Name: "b", Model: m, Engine: serve.Config{Workers: 2, CacheSize: -1}},
		},
		Config{Policies: []ShedPolicy{budget}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewBackendServer(f).Handler())
	t.Cleanup(func() {
		srv.Close()
		f.Close()
	})
	post := func(body serve.GenerateRequest) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First request fits the burst.
	ok := post(serve.GenerateRequest{Prompt: prompts[0], MaxNewTokens: 64, Seed: 1, Client: "alice", Priority: "high", Model: "codet5p"})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", ok.StatusCode)
	}
	var got serve.GenerateResult
	if err := json.NewDecoder(ok.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if got.Replica == "" {
		t.Errorf("fleet response missing replica: %+v", got)
	}
	// Second request is over budget: explicit 429 with Retry-After.
	shed := post(serve.GenerateRequest{Prompt: prompts[1], MaxNewTokens: 64, Seed: 2, Client: "alice"})
	io.Copy(io.Discard, shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// Unknown model: 400.
	bad := post(serve.GenerateRequest{Prompt: prompts[0], Model: "gpt4", Client: "bob"})
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", bad.StatusCode)
	}
	// Unknown priority: 400.
	badPrio := post(serve.GenerateRequest{Prompt: prompts[0], Priority: "urgent", Client: "bob"})
	io.Copy(io.Discard, badPrio.Body)
	badPrio.Body.Close()
	if badPrio.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown priority: status %d, want 400", badPrio.StatusCode)
	}

	// /healthz lists the replicas.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string           `json:"status"`
		Router   string           `json:"router"`
		Models   []string         `json:"models"`
		Replicas []map[string]any `json:"replicas"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if health.Status != "ok" || health.Router != "prefix-affinity" || len(health.Replicas) != 2 {
		t.Errorf("healthz: %+v", health)
	}

	// JSON /metrics takes the cluster shape.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb struct {
		Cluster Metrics `json:"cluster"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mb.Cluster.Replicas != 2 || mb.Cluster.Shed != 1 || mb.Cluster.ShedByPolicy["budget"] != 1 {
		t.Errorf("cluster metrics: %+v", mb.Cluster)
	}

	// Prometheus exposition carries both aggregate and fleet families.
	pr, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"vgend_requests_total",
		"vgend_fleet_replicas 2",
		"vgend_fleet_shed_total 1",
		`vgend_fleet_shed_by_policy_total{policy="budget"} 1`,
		`vgend_replica_routed_total{replica="a"`,
		"vgend_queue_wait_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
