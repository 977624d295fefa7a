package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/promtest"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestFleetPrometheusExpositionWellFormed sweeps the fleet server's
// text exposition — per-replica families and the fleet's routing and
// steal counters, plus the tracer's phase family — through the
// promtest linter. The fleet body is the richest exposition the daemon
// can emit (replica names land in label values), so this is where a
// label-escaping regression would surface first.
func TestFleetPrometheusExpositionWellFormed(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, nil, serve.Config{Workers: 1, CacheSize: 8})
	ts := httptest.NewServer(serve.NewServer(f).WithTracer(trace.New(trace.Config{})).Handler())
	defer ts.Close()

	for seed := int64(0); seed < 3; seed++ {
		if _, err := f.Generate(context.Background(), serve.Request{Prompt: prompts[int(seed)%3], Options: testOptions(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// One traced HTTP request so the phase family materializes too.
	if _, resp := postGen(t, ts.URL, "promsweep", prompts[0], 9); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced request status = %d", resp.StatusCode)
	}

	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	text := buf.String()

	for _, lintErr := range promtest.Lint(text) {
		t.Error(lintErr)
	}
	fams := promtest.Families(text)
	for _, want := range []string{"vgend_fleet_replicas", "vgend_phase_seconds_total"} {
		found := false
		for _, fam := range fams {
			if fam == want {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s missing from the fleet exposition (got %v)", want, fams)
		}
	}
}
