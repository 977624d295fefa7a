package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestFleetHTTP drives a fleet through the shared HTTP layer: model
// routing and the replica field work end to end, an unknown model is a
// 400, and /healthz and /metrics take the fleet shape (including the
// Prometheus exposition's fleet families).
func TestFleetHTTP(t *testing.T) {
	m, prompts := fixture(t)
	f, err := New(
		[]ReplicaSpec{
			{Name: "a", Model: m, Engine: serve.Config{Workers: 2, CacheSize: -1}},
			{Name: "b", Model: m, Engine: serve.Config{Workers: 2, CacheSize: -1}},
		},
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(f).Handler())
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

	ok := post(serve.GenerateRequest{Prompt: prompts[0], MaxNewTokens: 64, Seed: 1, Model: "codet5p"})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("routed request: status %d", ok.StatusCode)
	}
	var got serve.GenerateResult
	if err := json.NewDecoder(ok.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if got.Replica == "" {
		t.Errorf("fleet response missing replica: %+v", got)
	}
	// Unknown model: 400.
	bad := post(serve.GenerateRequest{Prompt: prompts[0], Model: "gpt4"})
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", bad.StatusCode)
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
	if mb.Cluster.Replicas != 2 || mb.Cluster.Requests != 2 || mb.Cluster.UnknownModel != 1 {
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
		"vgend_fleet_unknown_model_total 1",
		`vgend_replica_routed_total{replica="a"`,
		"vgend_queue_wait_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
