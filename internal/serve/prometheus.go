package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// writePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE pair per family,
// per-strategy families labelled {strategy="..."}. Counter families
// carry the _total suffix; point-in-time values are gauges.
func writePrometheus(w io.Writer, m Metrics, uptimeS float64, modelName string) {
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP vgend_%s %s\n# TYPE vgend_%s counter\nvgend_%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP vgend_%s %s\n# TYPE vgend_%s gauge\nvgend_%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP vgend_info Build/model identity (value is always 1).\n# TYPE vgend_info gauge\nvgend_info{model=%q} 1\n", modelName)
	g("uptime_seconds", "Seconds since the server started.", uptimeS)

	c("requests_total", "Generation submissions, including cache and dedup hits.", m.Requests)
	c("completed_total", "Finished decodes (cache/dedup hits excluded).", m.Completed)
	c("canceled_total", "Decodes ended by context cancellation.", m.Canceled)
	c("failed_total", "Decodes ended by non-context errors.", m.Failed)
	c("rejected_total", "Backpressure rejections (queue full).", m.Rejected)
	c("shed_total", "Admission-control drops (load-shedding policies).", m.Shed)
	// Monotonic float accumulation: a counter, despite not being integral.
	fmt.Fprintf(w, "# HELP vgend_queue_wait_seconds_total Summed queue-wait time (enqueue to worker pickup) in seconds.\n# TYPE vgend_queue_wait_seconds_total counter\nvgend_queue_wait_seconds_total %g\n", m.QueueWaitSeconds)
	g("queue_wait_max_seconds", "Worst single queue wait observed.", m.QueueWaitMaxSeconds)

	c("cache_hits_total", "Result LRU hits.", m.CacheHits)
	c("cache_misses_total", "Result LRU misses.", m.CacheMisses)
	g("cache_entries", "Current result LRU population.", float64(m.CacheEntries))

	c("dedup_hits_total", "Single-flight shares of identical in-flight requests.", m.DedupHits)
	g("inflight", "Current single-flight table population.", float64(m.Inflight))

	c("prefix_cache_hits_total", "Exact whole-prompt session reuses.", m.PrefixCacheHits)
	c("prefix_partial_hits_total", "Partial session reuses (cached token prefix forked over the suffix).", m.PrefixCachePartialHits)
	c("prefix_cache_misses_total", "Prompt-session builds.", m.PrefixCacheMisses)
	c("prefix_tokens_saved_total", "Prompt tokens whose session preparation was skipped by reuse.", m.PrefixCacheTokensSaved)
	g("prefix_cache_hit_rate", "Fraction of session lookups reusing any prefix (exact or partial).", m.PrefixCacheHitRate)
	g("prefix_cache_entries", "Current prompt-session cache population.", float64(m.PrefixCacheEntries))

	g("queue_depth", "Requests waiting in the queue.", float64(m.QueueDepth))
	g("workers", "Decoder worker pool size.", float64(m.Workers))

	g("sched_max_batch", "Continuous-scheduler batch slots.", float64(m.SchedMaxBatch))
	g("sched_running", "Decodes currently in the running batch.", float64(m.SchedRunning))
	g("sched_parked", "Preempted decodes parked awaiting a slot.", float64(m.SchedParked))
	g("sched_occupancy", "Running decodes over batch slots.", m.SchedOccupancy)
	c("sched_sweeps_total", "Verification sweeps over the running batch.", m.Sweeps)
	g("sched_mean_sweep_occupancy", "Decodes stepped per verification sweep.", m.MeanSweepOccupancy)
	c("sched_preemptions_total", "Decodes preempted (parked with pages pinned).", m.Preemptions)
	c("sched_resumes_total", "Parked decodes resumed into the batch.", m.Resumes)
	g("prefix_pinned_pages", "Session pages pinned by in-flight/parked decode leases.", float64(m.PrefixCachePinnedPages))
	g("prefix_pinned_bytes", "Estimated bytes held resident by page leases.", float64(m.PrefixCachePinnedBytes))
	c("prefix_leases_total", "Session page leases acquired.", m.PrefixCacheLeases)

	c("clean_tokens_total", "Clean tokens generated.", m.CleanTokens)
	c("steps_total", "Decoding steps (forward passes).", m.Steps)
	g("mean_accepted", "Raw tokens emitted per decoding step.", m.MeanAccepted)
	if len(m.AcceptDepthHist) > 0 {
		fmt.Fprintf(w, "# HELP vgend_accept_depth_total Decoding steps by accepted length (tokens emitted per step; last bucket open-ended).\n# TYPE vgend_accept_depth_total counter\n")
		for i, v := range m.AcceptDepthHist {
			label := fmt.Sprintf("%d", i+1)
			if i == len(m.AcceptDepthHist)-1 {
				label += "+"
			}
			fmt.Fprintf(w, "vgend_accept_depth_total{depth=%q} %d\n", label, v)
		}
	}
	c("tree_nodes_total", "Draft-tree nodes proposed across tree-drafting decodes.", m.TreeNodes)
	c("tree_budget_total", "Draft-tree node budget available across tree-drafting decodes.", m.TreeBudget)
	g("tree_budget_utilization", "Fraction of the draft-tree node budget actually proposed.", m.TreeBudgetUtilization)
	c("grammar_pruned_nodes_total", "Draft nodes withheld by the grammar syntax oracle.", m.GrammarPrunedNodes)
	c("grammar_draft_tokens_total", "Draft nodes contributed by synthesized grammar constructs.", m.GrammarDraftTokens)
	// Monotonic float accumulation: a counter, despite not being integral.
	fmt.Fprintf(w, "# HELP vgend_wall_seconds_total Summed worker decode time in seconds.\n# TYPE vgend_wall_seconds_total counter\nvgend_wall_seconds_total %g\n", m.WallSeconds)
	g("tokens_per_sec_wall", "Clean tokens per worker-busy-second.", m.TokensPerSecWall)
	g("tokens_per_sec_sim", "Clean tokens per simulated GPU second (paper eq. 3).", m.TokensPerSecSim)

	// Adaptive speculation controller families. The info/level gauges
	// are always rendered (mode "off" with zeros when disabled) so
	// dashboards can tell "controller off" from "metric missing".
	fmt.Fprintf(w, "# HELP vgend_adapt_info Speculation-controller mode (value is always 1).\n# TYPE vgend_adapt_info gauge\nvgend_adapt_info{mode=%q} 1\n", m.Adapt)
	g("adapt_level", "Load-degradation rung (0 tree, 1 linear, 2 nodraft).", float64(m.AdaptLevel))
	g("adapt_occupancy", "Controller's smoothed batch occupancy.", m.AdaptOccupancy)
	g("adapt_queue_frac", "Controller's smoothed queue pressure.", m.AdaptQueueFrac)
	g("adapt_queue_wait_ms", "Controller's smoothed queue wait (ms).", m.AdaptQueueWaitMS)
	c("adapt_decisions_total", "Controller decisions (shadow mode included).", m.AdaptDecisions)
	c("adapt_reroutes_total", "Strategy substitutions decided.", m.AdaptReroutes)
	c("adapt_budget_resizes_total", "Draft-tree budgets sized from the accept-depth EWMA.", m.AdaptBudgetResizes)
	c("adapt_downgrades_total", "Decisions made above the tree rung (load-degraded).", m.AdaptDowngrades)
	c("adapt_explorations_total", "Deterministic exploration slots routed.", m.AdaptExplorations)
	c("adapt_level_changes_total", "Load-degradation rung moves.", m.AdaptLevelChanges)
	c("adapt_shadowed_total", "Decisions recorded but not applied (shadow mode).", m.AdaptShadowed)

	// Per-strategy families, strategies sorted for stable scrapes.
	names := make([]string, 0, len(m.PerStrategy))
	for name := range m.PerStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	sc := func(name, help string, pick func(StrategyMetrics) uint64) {
		fmt.Fprintf(w, "# HELP vgend_%s %s\n# TYPE vgend_%s counter\n", name, help, name)
		for _, s := range names {
			fmt.Fprintf(w, "vgend_%s{strategy=%q} %d\n", name, s, pick(m.PerStrategy[s]))
		}
	}
	sg := func(name, help string, pick func(StrategyMetrics) float64) {
		fmt.Fprintf(w, "# HELP vgend_%s %s\n# TYPE vgend_%s gauge\n", name, help, name)
		for _, s := range names {
			fmt.Fprintf(w, "vgend_%s{strategy=%q} %g\n", name, s, pick(m.PerStrategy[s]))
		}
	}
	if len(names) > 0 {
		sc("strategy_requests_total", "Submissions per decoding strategy.", func(s StrategyMetrics) uint64 { return s.Requests })
		sc("strategy_completed_total", "Finished decodes per strategy.", func(s StrategyMetrics) uint64 { return s.Completed })
		sc("strategy_cache_hits_total", "Result LRU hits per strategy.", func(s StrategyMetrics) uint64 { return s.CacheHits })
		sc("strategy_dedup_hits_total", "Single-flight shares per strategy.", func(s StrategyMetrics) uint64 { return s.DedupHits })
		sg("strategy_mean_accepted", "Tokens per decoding step per strategy.", func(s StrategyMetrics) float64 { return s.MeanAccepted })
		sg("strategy_tokens_per_sec_sim", "Simulated tokens/s per strategy.", func(s StrategyMetrics) float64 { return s.TokensPerSecSim })
		sc("strategy_tree_nodes_total", "Draft-tree nodes proposed per strategy.", func(s StrategyMetrics) uint64 { return s.TreeNodes })
		sg("strategy_tree_budget_utilization", "Draft-tree node-budget utilization per strategy.", func(s StrategyMetrics) float64 { return s.TreeBudgetUtilization })
		sc("strategy_grammar_pruned_nodes_total", "Draft nodes withheld by the grammar oracle per strategy.", func(s StrategyMetrics) uint64 { return s.GrammarPrunedNodes })
		sc("strategy_grammar_draft_tokens_total", "Construct-chain draft nodes per strategy.", func(s StrategyMetrics) uint64 { return s.GrammarDraftTokens })
		// The per-strategy accept-depth histogram: the distribution the
		// adaptive controller sizes each strategy's tree budget from,
		// exported so Prometheus sees exactly what the controller sees.
		fmt.Fprintf(w, "# HELP vgend_strategy_accept_depth_total Decoding steps by accepted length per strategy (last bucket open-ended).\n# TYPE vgend_strategy_accept_depth_total counter\n")
		for _, s := range names {
			hist := m.PerStrategy[s].AcceptDepthHist
			for i, v := range hist {
				label := fmt.Sprintf("%d", i+1)
				if i == len(hist)-1 {
					label += "+"
				}
				fmt.Fprintf(w, "vgend_strategy_accept_depth_total{strategy=%q,depth=%q} %d\n", s, label, v)
			}
		}
	}
}

// wantsPrometheus reports whether the request asked for the text
// exposition format: ?format=prometheus, or an Accept header that
// looks like a Prometheus scraper's (OpenMetrics, or text/plain when
// the client did not also ask for JSON — axios-style defaults of
// "application/json, text/plain, */*" keep the JSON shape). The JSON
// shape stays the default.
func wantsPrometheus(format, accept string) bool {
	if format == "prometheus" {
		return true
	}
	if format != "" {
		return false
	}
	accept = strings.ToLower(accept)
	if strings.Contains(accept, "openmetrics") {
		return true
	}
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}
