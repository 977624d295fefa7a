package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/trace"
)

const surfaceGolden = "testdata/metrics_surface.golden"

// surfaceStrategies is the scripted run's strategy schedule: a tree
// strategy, the baseline, a grammar strategy and both linear
// speculative ones, so every per-strategy counter has a non-trivial
// owner.
var surfaceStrategies = []string{"ours-tree", "ntp", "grammar-lookup-tree", "ours", "medusa"}

var (
	promTypeRE  = regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
	promLabelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)
)

// jsonPaths collects every key path of a decoded JSON value; array
// elements share the path "[]", so the result does not depend on how
// many replicas or buckets there are.
func jsonPaths(v any, path string, out map[string]bool) {
	if path != "" {
		out[path] = true
	}
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			jsonPaths(e, p, out)
		}
	case []any:
		for _, e := range x {
			jsonPaths(e, path+"[]", out)
		}
	}
}

// promShapes reduces a text exposition to one "family type labels"
// line per family (label names sorted, unioned over the samples).
func promShapes(text string) []string {
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if m := promTypeRE.FindStringSubmatch(line); m != nil {
			types[m[1]] = m[2]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if labels[name] == nil {
			labels[name] = map[string]bool{}
		}
		if strings.HasPrefix(line[len(name):], "{") {
			for _, m := range promLabelRE.FindAllStringSubmatch(line[:strings.LastIndexByte(line, '}')+1], -1) {
				labels[name][m[1]] = true
			}
		}
	}
	var out []string
	for name, set := range labels {
		names := make([]string, 0, len(set))
		for l := range set {
			names = append(names, l)
		}
		sort.Strings(names)
		out = append(out, strings.TrimSpace(fmt.Sprintf("%s %s %s", name, types[name], strings.Join(names, ","))))
	}
	return out
}

// scrapeSurface reads both /metrics shapes of one server and returns
// its surface lines, each prefixed with the body's name.
func scrapeSurface(t *testing.T, body, url string) []string {
	t.Helper()
	get := func(u string) []byte {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}
	var decoded any
	if err := json.Unmarshal(get(url+"/metrics"), &decoded); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	jsonPaths(decoded, "", paths)
	var lines []string
	for p := range paths {
		lines = append(lines, body+" json "+p)
	}
	for _, s := range promShapes(string(get(url + "/metrics?format=prometheus"))) {
		lines = append(lines, body+" prom "+s)
	}
	return lines
}

// currentSurface drives the scripted run — one engine, then a
// 2-replica round-robin fleet under the priority and budget policies,
// both with the speculation controller in shadow mode and tracing on,
// every surfaceStrategies entry decoded on every engine, one result
// cache hit and one shed — and returns the sorted surface of both
// bodies.
func currentSurface(t *testing.T) []string {
	t.Helper()
	m, prompts := fixture(t)
	engCfg := serve.Config{Workers: 1, MaxBatch: 2, CacheSize: 8, Adapt: serve.AdaptShadow}
	post := func(url string, i int, client string) int {
		raw, _ := json.Marshal(serve.GenerateRequest{
			Prompt: prompts[i%len(prompts)], Strategy: surfaceStrategies[i%len(surfaceStrategies)],
			Temperature: 0.6, MaxNewTokens: 64, Seed: int64(i), Client: client,
		})
		resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	e := serve.NewEngine(m, engCfg)
	defer e.Close()
	es := httptest.NewServer(serve.NewServer(e).WithTracer(trace.New(trace.Config{})).Handler())
	defer es.Close()
	for i := range surfaceStrategies {
		if code := post(es.URL, i, ""); code != http.StatusOK {
			t.Fatalf("engine request %d: status %d", i, code)
		}
	}
	post(es.URL, 0, "") // result-cache hit
	lines := scrapeSurface(t, "engine", es.URL)

	policies, err := ParsePolicies("priority", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One ~64-token request per client, then that client sheds.
	policies = append(policies, NewBudgetPolicy(1, 100))
	f := newFleet(t, 2, &roundRobinRouter{}, policies, engCfg)
	fs := httptest.NewServer(serve.NewBackendServer(f).WithTracer(trace.New(trace.Config{})).Handler())
	defer fs.Close()
	for i := 0; i < 2*len(surfaceStrategies); i++ {
		if code := post(fs.URL, i, fmt.Sprintf("c%d", i)); code != http.StatusOK {
			t.Fatalf("fleet request %d: status %d", i, code)
		}
	}
	// A fresh request (admission runs behind the result cache) from a
	// client whose bucket the first one drained.
	if code := post(fs.URL, 2*len(surfaceStrategies), "c0"); code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", code)
	}
	lines = append(lines, scrapeSurface(t, "fleet", fs.URL)...)
	sort.Strings(lines)
	return lines
}

// TestMetricsSurfaceSuperset is the nothing-lost gate for /metrics:
// testdata/metrics_surface.golden lists every JSON key path and every
// Prometheus (family, type, label names) of the engine and fleet
// bodies as the scripted run produced them at commit 7208a57 — the
// last one with hand-written exposition code — and the current surface
// must contain each line. Additions are logged (-v), not failed, and
// never written back: to retire a name on purpose, delete its lines
// from the golden by hand.
func TestMetricsSurfaceSuperset(t *testing.T) {
	got := currentSurface(t)
	raw, err := os.ReadFile(surfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, line := range got {
		have[line] = true
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
		if !have[line] {
			t.Errorf("surface lost: %s", line)
		}
	}
	if len(want) < 100 {
		t.Fatalf("golden lists only %d surface lines; capture looks truncated", len(want))
	}
	for _, line := range got {
		if !want[line] {
			t.Logf("surface added: %s", line)
		}
	}
}
