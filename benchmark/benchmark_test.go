package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {39, 0.5}, // nothing has ten samples beyond it
		{40, 0.75},             // rank 30, ten beyond
		{99, 0.75}, {100, 0.9}, // rank 90, ten beyond
		{160, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {6000, 0.99},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The pick really has ten samples above it.
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, tailQuantile(len(v))); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond)", got)
	}
	if got := percentile(v, 0.5); got != 100 {
		t.Errorf("median of 1..200 = %v, want 100", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestWorkloadsArePureFunctionsOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 3, defaultSeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3, defaultSeconds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		c, _ := newWorkload(name, 4, defaultSeconds)
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%s: another seed gave the same requests", name)
		}
		if len(a.Requests) != len(c.Requests) {
			t.Errorf("%s: request count depends on the seed: %d vs %d", name, len(a.Requests), len(c.Requests))
		}
		for i, r := range a.Requests {
			if r.Index != i {
				t.Fatalf("%s: request %d carries index %d", name, i, r.Index)
			}
			if i > 0 && r.Due < a.Requests[i-1].Due {
				t.Fatalf("%s: due times out of order at %d", name, i)
			}
			if strings.Contains(string(r.encode()), `"mode"`) {
				t.Fatalf("%s: request %d uses the mode field", name, i)
			}
		}
	}
	if _, err := newWorkload("nope", 1, 4); err == nil {
		t.Error("unknown workload accepted")
	}
}

// decodeKeys lists (prompt, options, seed) of every generation a
// workload asks for, the key the daemon's result cache uses.
func decodeKeys(reqs []request) []string {
	var keys []string
	for _, r := range reqs {
		b := r.Body
		prompts := b.Prompts
		if len(prompts) == 0 {
			prompts = []string{b.Prompt}
		}
		for k, p := range prompts {
			keys = append(keys, fmt.Sprintf("%s|%s|%g|%d|%d", p, b.Strategy, b.Temperature, b.MaxNewTokens, b.Seed+int64(k)))
		}
	}
	return keys
}

func TestEverySeedDecodesTheSameSet(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1, defaultSeconds)
		b, _ := newWorkload(name, 2, defaultSeconds)
		distinct := func(w workload) []string {
			var reqs []request
			for _, r := range w.Requests {
				if r.RepeatOf < 0 {
					reqs = append(reqs, r)
				}
			}
			keys := decodeKeys(reqs)
			sort.Strings(keys)
			return keys
		}
		if !reflect.DeepEqual(distinct(a), distinct(b)) {
			t.Errorf("%s: seeds 1 and 2 decode different (prompt, options, seed) sets; the seed may only reorder and reschedule", name)
		}
		// A shorter run decodes a subset, so the recorded digests cover it.
		short, _ := newWorkload(name, 3, defaultSeconds/10.0)
		full := map[string]bool{}
		for i := range a.Requests {
			full[digestKey(&a.Requests[i])+"|"+string(a.Requests[i].encode())] = true
		}
		for i := range short.Requests {
			if k := digestKey(&short.Requests[i]) + "|" + string(short.Requests[i].encode()); !full[k] {
				t.Fatalf("%s: request %s of a 1/10 run is not part of the full run", name, digestKey(&short.Requests[i]))
			}
		}
	}
}

func TestOnlyTheFleetWorkloadRepeatsADecode(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 1, 6)
		all := append(append(append([]request{}, w.Warmup...), w.Reference...), w.Requests...)
		seen := map[string]bool{}
		dups := 0
		for _, k := range decodeKeys(all) {
			if seen[k] {
				dups++
			}
			seen[k] = true
		}
		if name != wlFleet {
			if dups != 0 {
				t.Errorf("%s: %d generations repeat an earlier (prompt, options, seed); the result cache would serve them", name, dups)
			}
			continue
		}
		repeats := 0
		for _, r := range w.Requests {
			if r.RepeatOf >= 0 {
				repeats++
				orig := w.Requests[r.RepeatOf]
				if orig.RepeatOf >= 0 || !reflect.DeepEqual(orig.Body, r.Body) {
					t.Fatalf("request %d does not repeat an original byte for byte", r.Index)
				}
			}
		}
		if dups != repeats {
			t.Errorf("fleet: %d duplicate decodes but %d marked repeats", dups, repeats)
		}
		if share := float64(repeats) / float64(len(w.Requests)); share < 0.55 || share > 0.65 {
			t.Errorf("fleet: repeat share %.3f, want about %.2f", share, fleetRepeatShare)
		}
	}
}

// fakeClock is a single-connection clock: sleeping and sending both
// just move it forward.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	reqs := []request{{Index: 0, Due: 0}, {Index: 1, Due: 10 * time.Millisecond}, {Index: 2, Due: 100 * time.Millisecond}}
	clk := &fakeClock{}
	send := func(r *request, c clock) outcome {
		o := outcome{Sent: c.Now()}
		clk.now += service
		o.First, o.Last = c.Now(), c.Now()
		return o
	}
	out := drive(reqs, 1, true, clk, send)
	// Request 1 was due at 10 ms while the only connection was busy until
	// 30 ms: it goes out 20 ms late and its latency includes that wait.
	if got := out[1].lateMS(); got != 20 {
		t.Errorf("late = %v ms, want 20", got)
	}
	if got := out[1].latencyMS(); got != 50 {
		t.Errorf("latency = %v ms, want 50 (from the due time, not the send time)", got)
	}
	if got := out[1].ttftMS(); got != 50 {
		t.Errorf("ttft = %v ms, want 50", got)
	}
	// Request 2 is due after the connection frees up: sent on time.
	if out[2].lateMS() != 0 || out[2].latencyMS() != 30 {
		t.Errorf("on-time request: late %v ms, latency %v ms, want 0 and 30", out[2].lateMS(), out[2].latencyMS())
	}
	// A closed loop has no schedule: the clock a connection picks the
	// request at is its due time.
	clk.now = 0
	out = drive(reqs, 1, false, clk, send)
	if out[1].lateMS() != 0 || out[1].latencyMS() != 30 {
		t.Errorf("closed loop: late %v ms, latency %v ms, want 0 and 30", out[1].lateMS(), out[1].latencyMS())
	}
}

func TestAnUnansweredRequestEndsTheRun(t *testing.T) {
	reqs := make([]request, 5)
	for i := range reqs {
		reqs[i].Index = i
	}
	sent := 0
	send := func(r *request, c clock) outcome {
		sent++
		if r.Index == 1 {
			return outcome{Err: "post: deadline exceeded", TimedOut: true}
		}
		return outcome{}
	}
	out := drive(reqs, 1, false, &fakeClock{}, send)
	if sent != 2 {
		t.Errorf("%d requests sent, want 2: nothing goes to a daemon that stopped answering", sent)
	}
	if n, _ := failures(out); n != 4 {
		t.Errorf("%d failed operations, want 4 (the unanswered one and the three not sent)", n)
	}
	d := &daemon{stderr: &tailBuffer{}}
	fmt.Fprint(d.stderr, "panic: wedged")
	if err := answered(out, d); err == nil || !strings.Contains(err.Error(), "panic: wedged") {
		t.Errorf("answered = %v, want an error carrying the daemon's stderr", err)
	}
	if err := answered(out[:1], d); err != nil {
		t.Errorf("answered on a healthy window = %v", err)
	}
}

func okOutcome(r *request, texts ...string) outcome {
	o := outcome{Req: r}
	for _, s := range texts {
		o.Gens = append(o.Gens, generation{Text: s, Tokens: 3})
	}
	return o
}

func TestDigestMismatchIsAFailedOperation(t *testing.T) {
	reqs := []request{
		{Index: 0, RepeatOf: -1, Phase: "ours", Body: genBody{Seed: 16}},
		{Index: 1, RepeatOf: -1, Phase: "ours", Body: genBody{Seed: 0}},
	}
	win := &window{Workload: workload{Name: "w"}, Outcomes: []outcome{
		okOutcome(&reqs[0], "module a; endmodule"), okOutcome(&reqs[1], "module b; endmodule", "x"),
	}}
	outs := win.Outcomes
	// The file is keyed by phase and sampling seed, not by send order.
	file := digestHeader("w", 20) + "\nours/0 " + digest(outs[1].Gens) + "\nours/16 " + digest(outs[0].Gens) + "\n"

	if n, err := checkDigests(win, []byte(file), 20); err != nil || n != 2 {
		t.Fatalf("compared=%d err=%v", n, err)
	}
	if n, _ := failures(outs); n != 0 {
		t.Fatalf("%d failures on matching digests", n)
	}
	outs[1].Gens[1].Text = "y"
	if _, err := checkDigests(win, []byte(file), 20); err != nil {
		t.Fatal(err)
	}
	if n, first := failures(outs); n != 1 || !strings.Contains(first, "recorded digest") {
		t.Errorf("changed text: %d failures (%s), want 1", n, first)
	}
	// A shorter run decodes a subset of the file: what it shares is checked.
	part := &window{Workload: win.Workload, Outcomes: []outcome{okOutcome(&reqs[0], "changed")}}
	if n, err := checkDigests(part, []byte(file), 2); err != nil || n != 1 || part.Outcomes[0].ok() {
		t.Errorf("subset run: compared=%d err=%v failed=%v, want 1 compared and failed", n, err, !part.Outcomes[0].ok())
	}
	// At the recorded length a generator that changed under the file is an
	// error, not a pass.
	if _, err := checkDigests(part, []byte(file), 20); err == nil {
		t.Error("digest count mismatch accepted")
	}
}

func TestReplayAndRepeatMismatchesAreFailedOperations(t *testing.T) {
	reqs := []request{
		{Index: 0, RepeatOf: -1, Body: genBody{Prompts: []string{"p0", "p1"}, Strategy: "ours", Temperature: 0.5, Seed: 40}},
		{Index: 1, RepeatOf: -1, Body: genBody{Prompt: "q", MaxNewTokens: 8, Seed: 7}},
		{Index: 2, RepeatOf: 1, Body: genBody{Prompt: "q", MaxNewTokens: 8, Seed: 7}},
	}
	outs := []outcome{okOutcome(&reqs[0], "a", "b"), okOutcome(&reqs[1], "c"), okOutcome(&reqs[2], "c")}

	plan := replayPlan(outs, replaySample)
	if want := []genRef{{0, 0}, {0, 1}, {1, 0}}; !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan %v, want %v (repeats are not replayed)", plan, want)
	}
	r := replayRequest(&outs[0], 1)
	if r.Body.Prompt != "p1" || r.Body.Seed != 41 || r.Body.Strategy != "ours" || r.Body.Temperature != 0.5 || len(r.Body.Prompts) != 0 {
		t.Errorf("replay of batch item 1 is %+v", r.Body)
	}

	judgeReplay(&outs[0], 1, okOutcome(&r, "b"))
	if !outs[0].ok() {
		t.Errorf("matching replay failed the operation: %s", outs[0].Err)
	}
	judgeReplay(&outs[0], 1, okOutcome(&r, "B"))
	if outs[0].ok() {
		t.Error("replay with different text did not fail the operation")
	}
	cached := okOutcome(&r, "c")
	cached.Gens[0].Cached = true
	judgeReplay(&outs[1], 0, cached)
	if outs[1].ok() {
		t.Error("a replay served from the cache was accepted as a decode")
	}

	outs[1].Err = ""
	checkRepeats(outs)
	if !outs[2].ok() {
		t.Errorf("faithful repeat failed: %s", outs[2].Err)
	}
	outs[2].Gens[0].Text = "stale"
	checkRepeats(outs)
	if outs[2].ok() {
		t.Error("a repeat that returned different text was accepted")
	}
}

const engineBody = `{"engine":{"requests":10,"completed":9,"cache_hits":4,"queue_wait_s":0.5,
 "sched_sweeps":20,"sched_mean_sweep_occupancy":1.5,"scheduler":"continuous",
 "accept_depth_hist":[5,3],"per_strategy":{"Ours":{"completed":9,"accept_depth_hist":[5,3]}}},
 "model":"CodeLlama-sim","uptime_s":3,"phase_seconds":{"sweep":0.25,"request":0.4}}`

const fleetBody = `{"cluster":{"router":"prefix-affinity","replicas":2,"requests":12,"affinity_picks":11,"spill_picks":1,
 "hedges":0,"fleet":{"requests":12,"completed":12,"cache_hits":7,"sched_sweeps":8,"sched_mean_sweep_occupancy":1.25,
 "per_strategy":{"Ours":{"completed":12}}},
 "per_replica":[{"name":"r0","routed":9,"engine":{"requests":9}},{"name":"r1","routed":3,"engine":{"requests":3}}]},
 "uptime_s":3}`

func TestParseMetricsReadsBothBodyShapes(t *testing.T) {
	e, err := parseMetrics([]byte(engineBody))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"engine.requests": 10, "engine.cache_hits": 4, "engine.accept_depth_hist.1": 3,
		"engine.per_strategy.Ours.accept_depth_hist.0": 5, "phase.sweep": 0.25, "engine.sweep_slots": 30,
	} {
		if e[k] != want {
			t.Errorf("engine body: %s = %v, want %v", k, e[k], want)
		}
	}
	f, err := parseMetrics([]byte(fleetBody))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"engine.requests": 12, "engine.cache_hits": 7, "engine.per_strategy.Ours.completed": 12,
		"cluster.affinity_picks": 11, "cluster.spill_picks": 1, "cluster.replica_count": 2,
		"replica.0.routed": 9, "replica.1.routed": 3, "engine.sweep_slots": 10,
	} {
		if f[k] != want {
			t.Errorf("fleet body: %s = %v, want %v", k, f[k], want)
		}
	}
	for k := range f {
		if strings.HasPrefix(k, "cluster.fleet.") || strings.HasPrefix(k, "cluster.per_replica.") {
			t.Errorf("%s leaked into the cluster counters", k)
		}
	}
	for _, bad := range []string{`{"uptime_s":1}`, `{"cluster":{"router":"x"}}`, `not json`} {
		if _, err := parseMetrics([]byte(bad)); err == nil {
			t.Errorf("parseMetrics(%s) accepted", bad)
		}
	}

	// A window's numbers come from the difference of two scrapes.
	before := counters{"engine.requests": 4, "engine.cache_hits": 1, "engine.sweep_slots": 6, "engine.sched_sweeps": 4}
	d := e.sub(before)
	if d["engine.requests"] != 6 || d["engine.cache_hits"] != 3 {
		t.Errorf("delta = %v", d)
	}
	if got := sweepOccupancy(d); got != 1.5 {
		t.Errorf("window occupancy = %v, want (30-6)/(20-4) = 1.5", got)
	}
	if got := replicaImbalance(f, f); got != 1.5 {
		t.Errorf("replica imbalance = %v, want 9 / mean(9,3) = 1.5", got)
	}
}

// emitted runs the metric builders over empty windows: the names, units
// and directions they emit do not depend on the data.
func emitted() (e2e, layer metrics) {
	req := []request{{RepeatOf: -1}}
	w := &window{Workload: workload{Requests: req}, Delta: counters{}, After: counters{}}
	e2e = endToEnd(w, []float64{1})
	layer = append(layer, clientLayer(w)...)
	layer = append(layer, qualityLayer(w)...)
	layer = append(layer, serverLayer(w, phaseStats{})...)
	layer = append(layer, efficiencyLayer(w, nil)...)
	layer = append(layer, traceLayer(w, w)...)
	layer = append(layer, probeMetrics(nil)...)
	return e2e, layer
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the code runs %v", names, workloadNames)
	}
	// Name, unit and direction of every metric, in the order the code emits.
	describe := func(name, unit, better string) string { return name + " [" + unit + ", " + better + " is better]" }
	fromSpec := func(ms []metricSpec) (out []string) {
		for _, m := range ms {
			out = append(out, describe(m.Name, m.Unit, m.Better))
		}
		return out
	}
	fromCode := func(ms metrics) (out []string) {
		for _, m := range ms {
			out = append(out, describe(m.Name, m.Unit, m.Better))
		}
		return out
	}
	e2e, layer := emitted()
	if got, want := fromSpec(spec.EndToEnd), fromCode(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end lists %v\nthe code emits %v", got, want)
	}
	if got, want := fromSpec(spec.PerLayer), fromCode(layer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer lists %v\nthe code emits %v", got, want)
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layer))
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	// The latency limits slo_ok_share is scored against are recorded where
	// the driver reads them: in the workloads' reasons.
	for _, c := range []struct{ workload, want string }{
		{wlInteractive, fmt.Sprintf("ttft <= %g ms and tpot <= %g ms/token", sloTTFTMS, sloTPOTMS)},
		{wlFleet, fmt.Sprintf("latency <= %g ms", sloFleetLatencyMS)},
	} {
		for _, w := range spec.Workloads {
			if w.Name == c.workload && !strings.Contains(w.Why, c.want) {
				t.Errorf("%s: reason %q does not record the SLO %q", w.Name, w.Why, c.want)
			}
		}
	}
}

func TestCompareFlagsOnlyWhatExceedsItsBound(t *testing.T) {
	spec := benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "tok_per_s", Better: "higher", Bound: 0.1},
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(tok, lat float64, failed int) resultFile {
		var m metrics
		m.higher("tok_per_s", "tok/s", tok)
		m.lower("latency_p50_ms", "ms", lat)
		return resultFile{Workloads: map[string]map[string]passResult{
			"w": {"end_to_end": {Attempted: 10, Failed: failed, Metrics: m}},
		}}
	}
	base := file(1000, 10, 0)
	for _, c := range []struct {
		name string
		b    resultFile
		want int
	}{
		{"same", file(1000, 10, 0), 0},
		{"within bounds", file(950, 10.9, 0), 0},
		{"much better", file(2000, 5, 0), 0},
		{"throughput down", file(880, 10, 0), 1},
		{"latency up", file(1000, 11.5, 0), 1},
		{"failed operations", file(1000, 10, 1), 1},
		{"workload missing", resultFile{}, 2},
	} {
		if got := compareResults(spec, base, c.b); got != c.want {
			t.Errorf("%s: %d comparisons over, want %d", c.name, got, c.want)
		}
	}
}
