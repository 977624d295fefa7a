package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Better is the direction BENCHMARK.json
// declares for it (a unit test holds the two together). Base, when set,
// says what a ratio or share is taken over, so no ratio is printed
// without it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	Base   string  `json:"base,omitempty"`
}

type metrics []metric

func (m *metrics) lower(name, unit string, v float64, base ...string) {
	*m = append(*m, metric{Name: name, Unit: unit, Better: "lower", Value: v, Base: strings.Join(base, "")})
}

func (m *metrics) higher(name, unit string, v float64, base ...string) {
	*m = append(*m, metric{Name: name, Unit: unit, Better: "higher", Value: v, Base: strings.Join(base, "")})
}

func (m metrics) get(name string) (float64, bool) {
	for _, x := range m {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}

// The latency limits slo_ok_share is scored against; BENCHMARK.json
// records them in the workloads' reasons. A request meets the SLO when it
// succeeds and stays within every limit that applies to its workload; a
// failed or refused request misses. Offline batch jobs have no deadline,
// so there the share is the success share.
const (
	sloTTFTMS         = 50.0 // interactive_stream: due time → first step line
	sloTPOTMS         = 2.0  // interactive_stream: per token after the first step
	sloFleetLatencyMS = 25.0 // fleet_shared_prefix: send → last byte
)

func meetsSLO(o *outcome) bool {
	if !o.ok() {
		return false
	}
	switch o.Req.Phase {
	case phaseStream:
		tpot, ok := o.tpotMS()
		return o.ttftMS() <= sloTTFTMS && (!ok || tpot <= sloTPOTMS)
	case phaseMixed:
		return o.latencyMS() <= sloFleetLatencyMS
	}
	return true
}

// phaseCount is the per-phase tally the contract asks to be printed.
type phaseCount struct{ attempted, succeeded, failed int }

func countPhases(win *window) map[string]phaseCount {
	pc := map[string]phaseCount{}
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		c := pc[o.Req.Phase]
		c.attempted++
		if o.ok() {
			c.succeeded++
		} else {
			c.failed++
		}
		pc[o.Req.Phase] = c
	}
	return pc
}

// busySeconds is how long at least one of the outcomes' requests was in
// flight, send → last byte. Phases run one after another, each on a
// clock of its own, so it is summed per phase. In a closed loop that is
// the wall time; in the open loop it leaves out the gaps in which the
// daemon had nothing to do, so tokens ÷ busy seconds is the rate it
// serves at rather than the rate it was offered.
func busySeconds(outs []outcome) float64 {
	type edge struct {
		at    time.Duration
		delta int
	}
	byPhase := map[string][]edge{}
	for i := range outs {
		o := &outs[i]
		byPhase[o.Req.Phase] = append(byPhase[o.Req.Phase], edge{o.Sent, +1}, edge{o.Last, -1})
	}
	var busy time.Duration
	for _, edges := range byPhase {
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		inFlight, since := 0, time.Duration(0)
		for _, e := range edges {
			if inFlight > 0 {
				busy += e.at - since
			}
			inFlight += e.delta
			since = e.at
		}
	}
	return busy.Seconds()
}

// endToEnd computes what a user of the daemon sees, from client-side
// wall-clock times only. The driver's contract has every workload report
// every metric, so each is defined where it is never zero, and each is a
// sum or a share rather than a median of request times: on the shared
// host the benchmark was sized on those moved by a fifth between runs of
// identical work (README, "Steadiness") and are reported as client.*
// per-layer metrics instead.
func endToEnd(win *window, setupS []float64) metrics {
	tokens, sloOK := 0, 0
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		if meetsSLO(o) {
			sloOK++
		}
		if o.ok() {
			tokens += o.tokens()
		}
	}
	var m metrics
	m.lower("setup_s", "s", median(setupS))
	m.higher("tok_per_s", "tok/s", ratio(float64(tokens), busySeconds(win.Outcomes)), "seconds with a request in flight")
	m.higher("slo_ok_share", "share", ratio(float64(sloOK), float64(len(win.Outcomes))), "requests sent")
	m.lower("rss_peak_mb", "MB", win.RSSPeakMB)
	return m
}

// clientLayer reports the client-side timings too unsteady to gate on:
// medians and tails of latency, ttft and tpot, gaps between streamed
// steps, and how late the open-loop generator ran.
func clientLayer(win *window) metrics {
	var lat, ttft, tpot, gap, late []float64
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		if !o.ok() {
			continue
		}
		lat = append(lat, o.latencyMS())
		ttft = append(ttft, o.ttftMS())
		late = append(late, o.lateMS())
		if v, has := o.tpotMS(); has {
			tpot = append(tpot, v)
		}
		for j := 1; j < len(o.StepAt); j++ {
			gap = append(gap, ms(o.StepAt[j]-o.StepAt[j-1]))
		}
	}
	lat, ttft, tpot, gap, late = sortedCopy(lat), sortedCopy(ttft), sortedCopy(tpot), sortedCopy(gap), sortedCopy(late)
	tail := func(v []float64) (float64, string) {
		q := tailQuantile(len(v))
		return percentile(v, q), fmt.Sprintf("p%g of %d samples", q*100, len(v))
	}
	var m metrics
	m.lower("client.latency_p50_ms", "ms", percentile(lat, 0.5), fmt.Sprintf("%d requests, from the due time", len(lat)))
	v, base := tail(lat)
	m.lower("client.latency_tail_ms", "ms", v, base)
	m.lower("client.ttft_p50_ms", "ms", percentile(ttft, 0.5), "first step line when streaming, first byte otherwise")
	v, base = tail(ttft)
	m.lower("client.ttft_tail_ms", "ms", v, base)
	m.lower("client.tpot_p50_ms", "ms/tok", percentile(tpot, 0.5), fmt.Sprintf("%d streams", len(tpot)))
	v, base = tail(tpot)
	m.lower("client.tpot_tail_ms", "ms/tok", v, base)
	m.lower("client.step_gap_p50_ms", "ms", percentile(gap, 0.5), fmt.Sprintf("%d gaps", len(gap)))
	v, base = tail(gap)
	m.lower("client.step_gap_tail_ms", "ms", v, base)
	v, base = tail(late)
	m.lower("client.late_tail_ms", "ms", v, base)
	return m
}

// strategyLabel maps the strategy names requests carry to the display
// names /metrics groups by.
var strategyLabel = map[string]string{
	"ntp": "NTP", "medusa": "Medusa", "ours": "Ours", "prompt-lookup": "PromptLookup",
	"medusa-tree": "MedusaTree", "lookup-tree": "LookupTree", "ours-tree": "OursTree",
	"grammar-tree": "GrammarTree", "grammar-lookup-tree": "GrammarLookupTree",
}

var allStrategies = append(append([]string{}, linearPhases...), treePhases...)

// simSpeedupStrategies are the ones whose simulated-clock speedup is
// reported beside the wall-clock one.
var simSpeedupStrategies = []string{"medusa", "ours", "grammar-tree"}

// phaseStats sums one phase of a window.
type phaseStats struct {
	tokens, steps int
	simMS         float64
	wallS         float64
}

func (p phaseStats) tokPerS() float64    { return ratio(float64(p.tokens), p.wallS) }
func (p phaseStats) simTokPerS() float64 { return ratio(float64(p.tokens), p.simMS/1000) }

func statsByPhase(win *window) map[string]phaseStats {
	by := map[string]phaseStats{}
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		if !o.ok() {
			continue
		}
		s := by[o.Req.Phase]
		for _, g := range o.Gens {
			s.tokens += g.Tokens
			s.steps += g.Steps
			s.simMS += g.SimulatedMS
		}
		by[o.Req.Phase] = s
	}
	for phase, s := range by {
		s.wallS = win.PhaseWall[phase].Seconds()
		by[phase] = s
	}
	return by
}

// serverLayer turns the /metrics delta around a window into per-layer
// numbers. ntp is the reference phase for speedups: the window's own
// ntp phase on offline_linear, a short reference pass elsewhere (zero
// when absent — the speedups are then reported as 0).
func serverLayer(win *window, ntp phaseStats) metrics {
	d, after := win.Delta, win.After
	e := func(k string) float64 { return d["engine."+k] }
	reqs := e("requests")
	completed := e("completed")
	lookups := e("prefix_cache_hits") + e("prefix_partial_hits") + e("prefix_cache_misses")
	steps := e("steps")
	var m metrics

	m.lower("serve.queue_wait_ms_per_req", "ms", ratio(e("queue_wait_s")*1000, completed))
	m.lower("serve.queue_wait_max_ms", "ms", after["engine.queue_wait_max_s"]*1000, "since daemon start")
	m.higher("serve.mean_sweep_occupancy", "decodes", sweepOccupancy(d))
	m.lower("serve.preemptions_per_req", "count", ratio(e("sched_preemptions"), completed))
	m.lower("serve.decode_s_per_req", "s", ratio(e("wall_seconds"), completed))
	m.higher("serve.cache_hit_share", "share", ratio(e("cache_hits"), reqs), "engine requests")
	m.higher("serve.dedup_share", "share", ratio(e("dedup_hits"), reqs), "engine requests")
	m.lower("serve.rejected_share", "share", ratio(e("rejected"), reqs+e("rejected")), "engine requests + rejected")
	m.lower("serve.shed_share", "share", ratio(e("shed")+d["cluster.shed"], reqs+e("shed")+d["cluster.shed"]), "engine requests + shed")

	m.higher("model.trie.hit_share", "share", ratio(e("prefix_cache_hits"), lookups), "trie lookups")
	m.higher("model.trie.partial_hit_share", "share", ratio(e("prefix_partial_hits"), lookups), "trie lookups")
	m.lower("model.trie.miss_share", "share", ratio(e("prefix_cache_misses"), lookups), "trie lookups")
	m.higher("model.trie.tokens_saved_per_req", "tok", ratio(e("prefix_tokens_saved"), lookups))
	m.higher("model.trie.entries", "count", after["engine.prefix_cache_entries"], "at window end")

	nodes := e("tree_nodes_total")
	grammarSteps := strategySteps(d, grammarStrategies)
	m.higher("spec.mean_accepted", "tok/step", ratio(e("clean_tokens"), steps))
	m.lower("spec.accept_depth0_share", "share", ratio(e("accept_depth_hist.0"), steps), "decoding steps")
	m.lower("spec.tree_nodes_per_step", "nodes", ratio(nodes, strategySteps(d, treePhases)), "steps of tree strategies")
	m.higher("spec.tree_budget_utilization", "share", ratio(nodes, e("tree_budget_total")), "node budget")
	wasted := 0.0
	if nodes > 0 {
		wasted = 1 - treeAccepted(d)/nodes
	}
	m.lower("spec.wasted_node_share", "share", wasted, "tree nodes drafted")
	m.lower("spec.grammar.pruned_per_step", "nodes", ratio(e("grammar_pruned_nodes"), grammarSteps), "steps of grammar strategies")
	m.higher("spec.grammar.draft_tokens_per_step", "tok", ratio(e("grammar_draft_tokens"), grammarSteps), "steps of grammar strategies")

	picks := d["cluster.affinity_picks"] + d["cluster.spill_picks"]
	m.higher("cluster.affinity_share", "share", ratio(d["cluster.affinity_picks"], picks), "routing picks")
	m.lower("cluster.spill_share", "share", ratio(d["cluster.spill_picks"], picks), "routing picks")
	m.lower("cluster.replica_imbalance", "ratio", replicaImbalance(d, after), "busiest replica's routed requests ÷ the mean")
	m.lower("cluster.hedges", "count", d["cluster.hedges"])
	m.lower("cluster.failovers", "count", d["cluster.failovers"])

	by := statsByPhase(win)
	if _, has := by["ntp"]; !has {
		by["ntp"] = ntp
	}
	for _, s := range allStrategies {
		p := by[s]
		m.higher("core."+s+".tok_per_s", "tok/s", p.tokPerS(), "wall clock")
		m.higher("core."+s+".mean_accepted", "tok/step", ratio(float64(p.tokens), float64(p.steps)))
		if s != "ntp" {
			m.higher("core."+s+".wall_speedup_vs_ntp", "ratio", ratio(p.tokPerS(), ntp.tokPerS()), "wall clock, ntp tok/s on the same prompts")
		}
	}
	for _, s := range simSpeedupStrategies {
		m.higher("core."+s+".sim_speedup_vs_ntp", "ratio", ratio(by[s].simTokPerS(), ntp.simTokPerS()), "simulated clock, ntp tok/s on the same prompts")
	}
	return m
}

// sweepOccupancy is decodes resident per scheduler sweep over the
// window, from the sweep_slots sum parseMetrics rebuilds.
func sweepOccupancy(d counters) float64 {
	return ratio(d["engine.sweep_slots"], d["engine.sched_sweeps"])
}

// perStrategySum adds field over the named /metrics strategy groups.
func perStrategySum(d counters, field string, names []string) float64 {
	t := 0.0
	for _, n := range names {
		t += d["engine.per_strategy."+strategyLabel[n]+"."+field]
	}
	return t
}

var grammarStrategies = []string{"grammar-tree", "grammar-lookup-tree"}

// acceptDepthBuckets is the length of /metrics' accept_depth_hist:
// entry i counts decoding steps that emitted i+1 tokens.
const acceptDepthBuckets = 16

// strategySteps counts decoding steps of the named strategies from
// their acceptance histograms.
func strategySteps(d counters, names []string) float64 {
	t := 0.0
	for i := 0; i < acceptDepthBuckets; i++ {
		t += perStrategySum(d, fmt.Sprintf("accept_depth_hist.%d", i), names)
	}
	return t
}

// treeAccepted is draft tokens accepted by tree strategies: a step that
// emitted i+1 tokens accepted i drafted nodes.
func treeAccepted(d counters) float64 {
	t := 0.0
	for i := 1; i < acceptDepthBuckets; i++ {
		t += float64(i) * perStrategySum(d, fmt.Sprintf("accept_depth_hist.%d", i), treePhases)
	}
	return t
}

func replicaImbalance(d, after counters) float64 {
	n := int(after["cluster.replica_count"])
	if n == 0 {
		return 0
	}
	total, peak := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d[fmt.Sprintf("replica.%d.routed", i)]
		total += v
		peak = max(peak, v)
	}
	return ratio(peak, total/float64(n))
}

// printMetrics writes one "name value unit (base)" line per metric.
func printMetrics(title string, m metrics) {
	fmt.Printf("\n== %s ==\n", title)
	for _, x := range m {
		line := fmt.Sprintf("%-44s %14.4f %s", x.Name, x.Value, x.Unit)
		if x.Base != "" {
			line += "  (" + x.Base + ")"
		}
		fmt.Println(line)
	}
}
