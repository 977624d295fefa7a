package cluster

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/serve"
)

// ReplicaMetrics is one replica's slice of a fleet snapshot.
type ReplicaMetrics struct {
	Name   string `json:"name"`
	Model  string `json:"model"`
	Scheme string `json:"scheme"`
	// DefaultStrategy is the replica's substitution for requests that
	// named no strategy (empty = fleet default).
	DefaultStrategy string `json:"default_strategy,omitempty"`
	// Routed counts requests the router sent here; Inflight is how many
	// of them are not yet answered; Stolen counts requests served here
	// that were routed elsewhere (work stealing).
	Routed   uint64 `json:"routed"`
	Inflight int64  `json:"inflight"`
	Stolen   uint64 `json:"stolen"`
	// State is the lifecycle state ("active" or "draining");
	// BreakerState is the circuit state ("closed", "open",
	// "half-open") and BreakerOpens counts its trips.
	State        string `json:"state"`
	BreakerState string `json:"breaker_state"`
	BreakerOpens uint64 `json:"breaker_opens"`
	// Engine is the replica engine's own snapshot.
	Engine serve.Metrics `json:"engine"`
}

// Metrics is a point-in-time fleet snapshot: per-replica detail plus
// fleet-wide aggregates.
type Metrics struct {
	Router   string `json:"router"`
	Replicas int    `json:"replicas"`
	// Requests counts fleet submissions (before routing/admission).
	Requests uint64 `json:"requests"`
	// Shed* count admission drops; UnknownModel counts routing failures.
	Shed           uint64            `json:"shed"`
	ShedByPolicy   map[string]uint64 `json:"shed_by_policy"`
	ShedByPriority map[string]uint64 `json:"shed_by_priority"`
	UnknownModel   uint64            `json:"unknown_model"`
	// AffinityPicks/SpillPicks split prefix-affinity routing decisions
	// (zero for other routers).
	AffinityPicks uint64 `json:"affinity_picks"`
	SpillPicks    uint64 `json:"spill_picks"`
	// MeanDecodeMS is the decode-time EWMA admission math runs on.
	MeanDecodeMS float64 `json:"mean_decode_ms"`
	// Resilience counters: hedges launched/won, failovers to a sibling
	// after a fault, requests served by a non-routed replica (steals),
	// drains started and model swaps completed.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Failovers uint64 `json:"failovers"`
	Steals    uint64 `json:"steals"`
	Drains    uint64 `json:"drains"`
	Swaps     uint64 `json:"swaps"`
	// Autoscaler actions and bounds (bounds zero when autoscaling is
	// off).
	ScaleUps     uint64 `json:"scale_ups"`
	ScaleDowns   uint64 `json:"scale_downs"`
	AutoscaleMin int    `json:"autoscale_min,omitempty"`
	AutoscaleMax int    `json:"autoscale_max,omitempty"`
	// Fleet aggregates every replica engine's counters (rates
	// recomputed over the sums).
	Fleet serve.Metrics `json:"fleet"`
	// PerReplica lists each member in fleet order.
	PerReplica []ReplicaMetrics `json:"per_replica"`
}

// routerStats is implemented by routers that split their decisions
// (prefix affinity's affine vs spill counters).
type routerStats interface {
	Stats() (affine, spill uint64)
}

// Metrics snapshots the fleet.
func (f *Fleet) Metrics() Metrics {
	replicas := f.Replicas()
	m := Metrics{
		Router:         f.router.Name(),
		Replicas:       len(replicas),
		ShedByPolicy:   map[string]uint64{},
		ShedByPriority: map[string]uint64{},
		Hedges:         f.elastic.hedges.Load(),
		HedgeWins:      f.elastic.hedgeWins.Load(),
		Failovers:      f.elastic.failovers.Load(),
		Steals:         f.elastic.steals.Load(),
		Drains:         f.elastic.drains.Load(),
		Swaps:          f.elastic.swaps.Load(),
		ScaleUps:       f.elastic.scaleUps.Load(),
		ScaleDowns:     f.elastic.scaleDowns.Load(),
	}
	m.AutoscaleMin, m.AutoscaleMax = f.AutoscaleBounds()
	f.st.mu.Lock()
	m.Requests = f.st.requests
	m.UnknownModel = f.st.unknownModel
	m.MeanDecodeMS = f.st.meanDecodeMS
	for k, v := range f.st.shedByPolicy {
		m.ShedByPolicy[k] = v
		m.Shed += v
	}
	for k, v := range f.st.shedByPriority {
		m.ShedByPriority[k] = v
	}
	f.st.mu.Unlock()
	if rs, ok := f.router.(routerStats); ok {
		m.AffinityPicks, m.SpillPicks = rs.Stats()
	}
	engines := make([]serve.Metrics, 0, len(replicas))
	for _, r := range replicas {
		em := r.Engine().Metrics()
		engines = append(engines, em)
		state := "active"
		if r.Draining() {
			state = "draining"
		}
		bst, opens := r.breaker.snapshot()
		m.PerReplica = append(m.PerReplica, ReplicaMetrics{
			Name:            r.name,
			Model:           r.ModelName(),
			Scheme:          r.schemeName(),
			DefaultStrategy: r.defaultStrategy,
			Routed:          r.routed.Load(),
			Inflight:        r.inflight.Load(),
			Stolen:          r.stolen.Load(),
			State:           state,
			BreakerState:    bst.String(),
			BreakerOpens:    opens,
			Engine:          em,
		})
	}
	m.Fleet = aggregate(engines)
	return m
}

// aggregate folds per-replica engine snapshots into one fleet-wide
// engine-shaped snapshot: counters sum, populations sum, and the
// derived rates are recomputed over the sums. Two means are only
// recoverable as weighted combinations of exposed fields —
// MeanAccepted weighted by steps, TokensPerSecSim via the implied
// simulated seconds — which is exactly how the per-engine values were
// derived in the first place.
func aggregate(ms []serve.Metrics) serve.Metrics {
	var a serve.Metrics
	a.PerStrategy = map[string]serve.StrategyMetrics{}
	var steps, accepted, simSeconds, sweepOcc float64
	stratSteps := map[string]float64{}
	stratAccepted := map[string]float64{}
	stratSimSeconds := map[string]float64{}
	for _, m := range ms {
		a.Requests += m.Requests
		a.Completed += m.Completed
		a.Canceled += m.Canceled
		a.Failed += m.Failed
		a.Rejected += m.Rejected
		a.Shed += m.Shed
		a.QueueWaitSeconds += m.QueueWaitSeconds
		if m.QueueWaitMaxSeconds > a.QueueWaitMaxSeconds {
			a.QueueWaitMaxSeconds = m.QueueWaitMaxSeconds
		}
		a.CacheHits += m.CacheHits
		a.CacheMisses += m.CacheMisses
		a.CacheEntries += m.CacheEntries
		a.DedupHits += m.DedupHits
		a.Inflight += m.Inflight
		a.PrefixCacheHits += m.PrefixCacheHits
		a.PrefixCachePartialHits += m.PrefixCachePartialHits
		a.PrefixCacheMisses += m.PrefixCacheMisses
		a.PrefixCacheTokensSaved += m.PrefixCacheTokensSaved
		a.PrefixCacheEntries += m.PrefixCacheEntries
		a.QueueDepth += m.QueueDepth
		a.Workers += m.Workers
		// Adapt mode: uniform fleets report the mode, mixed fleets say
		// so instead of pretending one replica speaks for all. Counters
		// sum; the ladder rung and smoothed signals report the hottest
		// replica (a fleet is as degraded as its most-loaded member).
		switch {
		case a.Adapt == "":
			a.Adapt = m.Adapt
		case a.Adapt != m.Adapt:
			a.Adapt = "mixed"
		}
		if m.AdaptLevel > a.AdaptLevel {
			a.AdaptLevel = m.AdaptLevel
			a.AdaptLevelName = m.AdaptLevelName
		}
		if m.AdaptOccupancy > a.AdaptOccupancy {
			a.AdaptOccupancy = m.AdaptOccupancy
		}
		if m.AdaptQueueFrac > a.AdaptQueueFrac {
			a.AdaptQueueFrac = m.AdaptQueueFrac
		}
		if m.AdaptQueueWaitMS > a.AdaptQueueWaitMS {
			a.AdaptQueueWaitMS = m.AdaptQueueWaitMS
		}
		a.AdaptDecisions += m.AdaptDecisions
		a.AdaptReroutes += m.AdaptReroutes
		a.AdaptBudgetResizes += m.AdaptBudgetResizes
		a.AdaptDowngrades += m.AdaptDowngrades
		a.AdaptExplorations += m.AdaptExplorations
		a.AdaptLevelChanges += m.AdaptLevelChanges
		a.AdaptShadowed += m.AdaptShadowed
		a.SchedMaxBatch += m.SchedMaxBatch
		a.SchedRunning += m.SchedRunning
		a.SchedParked += m.SchedParked
		a.Sweeps += m.Sweeps
		a.Preemptions += m.Preemptions
		a.Resumes += m.Resumes
		sweepOcc += m.MeanSweepOccupancy * float64(m.Sweeps)
		a.PrefixCachePinnedPages += m.PrefixCachePinnedPages
		a.PrefixCachePinnedBytes += m.PrefixCachePinnedBytes
		a.PrefixCacheLeases += m.PrefixCacheLeases
		a.CleanTokens += m.CleanTokens
		a.Steps += m.Steps
		a.WallSeconds += m.WallSeconds
		a.TreeNodes += m.TreeNodes
		a.TreeBudget += m.TreeBudget
		a.GrammarPrunedNodes += m.GrammarPrunedNodes
		a.GrammarDraftTokens += m.GrammarDraftTokens
		if len(m.AcceptDepthHist) > 0 {
			if len(a.AcceptDepthHist) < len(m.AcceptDepthHist) {
				grown := make([]uint64, len(m.AcceptDepthHist))
				copy(grown, a.AcceptDepthHist)
				a.AcceptDepthHist = grown
			}
			for i, v := range m.AcceptDepthHist {
				a.AcceptDepthHist[i] += v
			}
		}
		steps += float64(m.Steps)
		accepted += m.MeanAccepted * float64(m.Steps)
		if m.TokensPerSecSim > 0 {
			simSeconds += float64(m.CleanTokens) / m.TokensPerSecSim
		}
		for name, sm := range m.PerStrategy {
			agg := a.PerStrategy[name]
			agg.Requests += sm.Requests
			agg.Completed += sm.Completed
			agg.CacheHits += sm.CacheHits
			agg.DedupHits += sm.DedupHits
			agg.TreeNodes += sm.TreeNodes
			agg.TreeBudget += sm.TreeBudget
			agg.GrammarPrunedNodes += sm.GrammarPrunedNodes
			agg.GrammarDraftTokens += sm.GrammarDraftTokens
			if len(sm.AcceptDepthHist) > 0 {
				if len(agg.AcceptDepthHist) < len(sm.AcceptDepthHist) {
					grown := make([]uint64, len(sm.AcceptDepthHist))
					copy(grown, agg.AcceptDepthHist)
					agg.AcceptDepthHist = grown
				}
				for i, v := range sm.AcceptDepthHist {
					agg.AcceptDepthHist[i] += v
				}
			}
			// Recover this engine's per-strategy clean tokens from its
			// simulated speed, as above.
			if sm.TokensPerSecSim > 0 && sm.MeanAccepted > 0 {
				// steps are not exposed per strategy; weight by completed
				// decodes instead (each decode contributes one mean).
				w := float64(sm.Completed)
				stratSteps[name] += w
				stratAccepted[name] += sm.MeanAccepted * w
				stratSimSeconds[name] += w / sm.TokensPerSecSim
			}
			a.PerStrategy[name] = agg
		}
	}
	if lookups := a.CacheHits + a.CacheMisses; lookups > 0 {
		a.CacheHitRate = float64(a.CacheHits) / float64(lookups)
	}
	if lookups := a.PrefixCacheHits + a.PrefixCachePartialHits + a.PrefixCacheMisses; lookups > 0 {
		a.PrefixCacheHitRate = float64(a.PrefixCacheHits+a.PrefixCachePartialHits) / float64(lookups)
	}
	if steps > 0 {
		a.MeanAccepted = accepted / steps
	}
	if a.SchedMaxBatch > 0 {
		a.SchedOccupancy = float64(a.SchedRunning) / float64(a.SchedMaxBatch)
	}
	if a.Sweeps > 0 {
		a.MeanSweepOccupancy = sweepOcc / float64(a.Sweeps)
	}
	if a.WallSeconds > 0 {
		a.TokensPerSecWall = float64(a.CleanTokens) / a.WallSeconds
	}
	if simSeconds > 0 {
		a.TokensPerSecSim = float64(a.CleanTokens) / simSeconds
	}
	if a.TreeBudget > 0 {
		a.TreeBudgetUtilization = float64(a.TreeNodes) / float64(a.TreeBudget)
	}
	for name, agg := range a.PerStrategy {
		if w := stratSteps[name]; w > 0 {
			agg.MeanAccepted = stratAccepted[name] / w
		}
		// Per-strategy simulated speed: completed-weighted harmonic
		// combination (approximate — per-strategy token counts are not
		// exposed — but consistent across replicas of similar traffic).
		if s := stratSimSeconds[name]; s > 0 {
			agg.TokensPerSecSim = stratSteps[name] / s
		}
		if agg.TreeBudget > 0 {
			agg.TreeBudgetUtilization = float64(agg.TreeNodes) / float64(agg.TreeBudget)
		}
		a.PerStrategy[name] = agg
	}
	return a
}

// Healthz implements serve.Backend: fleet liveness with per-replica
// identity (the uptime key is added by the handler).
func (f *Fleet) Healthz() map[string]any {
	members := f.Replicas()
	replicas := make([]map[string]any, 0, len(members))
	for _, r := range members {
		eng := r.Engine()
		state := "active"
		if r.Draining() {
			state = "draining"
		}
		bst, _ := r.breaker.snapshot()
		replicas = append(replicas, map[string]any{
			"name":        r.name,
			"model":       r.ModelName(),
			"scheme":      r.schemeName(),
			"workers":     eng.Workers(),
			"queue_depth": eng.QueueDepth(),
			"state":       state,
			"breaker":     bst.String(),
		})
	}
	seen := map[string]bool{}
	var models []string
	for _, r := range members {
		name := r.ModelName()
		if !seen[name] {
			seen[name] = true
			models = append(models, name)
		}
	}
	sort.Strings(models)
	return map[string]any{
		"status":   "ok",
		"router":   f.router.Name(),
		"models":   models,
		"replicas": replicas,
	}
}

// MetricsBody implements serve.Backend: the JSON /metrics body (sans
// uptime).
func (f *Fleet) MetricsBody() map[string]any {
	return map[string]any{"cluster": f.Metrics()}
}

// WritePrometheusTo implements serve.Backend: the fleet-wide aggregate
// in the engine's exposition shape (so single-engine dashboards keep
// working against a fleet), followed by fleet-only families labelled
// per replica / policy / priority.
func (f *Fleet) WritePrometheusTo(w io.Writer, uptimeS float64) {
	m := f.Metrics()
	modelNames := ""
	for i, r := range m.PerReplica {
		if i > 0 {
			modelNames += ","
		}
		modelNames += r.Model
	}
	serve.WriteEnginePrometheus(w, m.Fleet, uptimeS, modelNames)

	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP vgend_fleet_%s %s\n# TYPE vgend_fleet_%s gauge\nvgend_fleet_%s %g\n", name, help, name, name, v)
	}
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP vgend_fleet_%s %s\n# TYPE vgend_fleet_%s counter\nvgend_fleet_%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP vgend_fleet_info Fleet identity (value is always 1).\n# TYPE vgend_fleet_info gauge\nvgend_fleet_info{router=%q} 1\n", m.Router)
	g("replicas", "Fleet replica count.", float64(m.Replicas))
	c("requests_total", "Fleet submissions before routing/admission.", m.Requests)
	c("shed_total", "Admission-control drops across all policies.", m.Shed)
	c("unknown_model_total", "Requests naming a model no replica serves.", m.UnknownModel)
	c("affinity_picks_total", "Prefix-affinity picks kept on the affine replica.", m.AffinityPicks)
	c("spill_picks_total", "Prefix-affinity picks spilled to least-loaded.", m.SpillPicks)
	g("mean_decode_ms", "EWMA of decode wall time (admission estimate).", m.MeanDecodeMS)
	// Resilience families.
	c("hedges_total", "Hedged attempts launched against a second replica.", m.Hedges)
	c("hedge_wins_total", "Hedges that answered before the primary replica.", m.HedgeWins)
	c("failovers_total", "Retries on a sibling after a replica fault.", m.Failovers)
	c("steals_total", "Requests served by a non-routed replica (work stealing).", m.Steals)
	c("drains_total", "Replica drains started.", m.Drains)
	c("swaps_total", "Rolling model swaps completed.", m.Swaps)
	// Autoscaler family (vgend_fleet_scale_*).
	c("scale_ups_total", "Replicas added by the autoscaler.", m.ScaleUps)
	c("scale_downs_total", "Replicas removed by the autoscaler.", m.ScaleDowns)
	g("scale_replicas", "Current fleet size as the autoscaler sees it.", float64(m.Replicas))
	if m.AutoscaleMax > 0 {
		g("scale_min_replicas", "Autoscaler fleet-size floor.", float64(m.AutoscaleMin))
		g("scale_max_replicas", "Autoscaler fleet-size ceiling.", float64(m.AutoscaleMax))
	}

	labelled := func(name, help, labelKey string, vals map[string]uint64) {
		if len(vals) == 0 {
			return
		}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP vgend_fleet_%s %s\n# TYPE vgend_fleet_%s counter\n", name, help, name)
		for _, k := range keys {
			fmt.Fprintf(w, "vgend_fleet_%s{%s=%q} %d\n", name, labelKey, k, vals[k])
		}
	}
	labelled("shed_by_policy_total", "Admission drops per shedding policy.", "policy", m.ShedByPolicy)
	labelled("shed_by_priority_total", "Admission drops per priority class.", "priority", m.ShedByPriority)

	fmt.Fprintf(w, "# HELP vgend_replica_routed_total Requests routed per replica.\n# TYPE vgend_replica_routed_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_routed_total{replica=%q,model=%q} %d\n", r.Name, r.Model, r.Routed)
	}
	// Breaker and lifecycle families (vgend_replica_breaker_*).
	fmt.Fprintf(w, "# HELP vgend_replica_breaker_state Circuit state per replica (0 closed, 1 open, 2 half-open).\n# TYPE vgend_replica_breaker_state gauge\n")
	for _, r := range m.PerReplica {
		v := 0
		switch r.BreakerState {
		case "open":
			v = 1
		case "half-open":
			v = 2
		}
		fmt.Fprintf(w, "vgend_replica_breaker_state{replica=%q,state=%q} %d\n", r.Name, r.BreakerState, v)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_breaker_opens_total Circuit trips per replica.\n# TYPE vgend_replica_breaker_opens_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_breaker_opens_total{replica=%q} %d\n", r.Name, r.BreakerOpens)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_draining Replica lifecycle state (1 = draining).\n# TYPE vgend_replica_draining gauge\n")
	for _, r := range m.PerReplica {
		v := 0
		if r.State == "draining" {
			v = 1
		}
		fmt.Fprintf(w, "vgend_replica_draining{replica=%q} %d\n", r.Name, v)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_stolen_total Requests served here that were routed elsewhere.\n# TYPE vgend_replica_stolen_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_stolen_total{replica=%q} %d\n", r.Name, r.Stolen)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_queue_depth Queued requests per replica.\n# TYPE vgend_replica_queue_depth gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_queue_depth{replica=%q} %d\n", r.Name, r.Engine.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_cache_hit_rate Result-LRU hit rate per replica.\n# TYPE vgend_replica_cache_hit_rate gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_cache_hit_rate{replica=%q} %g\n", r.Name, r.Engine.CacheHitRate)
	}
	// The affinity router's concentration payoff is session reuse, and
	// with the prefix trie most of that reuse is partial — so the
	// per-replica rate counts partial hits, not just exact ones.
	fmt.Fprintf(w, "# HELP vgend_replica_prefix_hit_rate Prompt-session reuse rate per replica (exact + partial prefix hits).\n# TYPE vgend_replica_prefix_hit_rate gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_prefix_hit_rate{replica=%q} %g\n", r.Name, r.Engine.PrefixCacheHitRate)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_prefix_tokens_saved_total Prompt tokens whose session preparation reuse skipped, per replica.\n# TYPE vgend_replica_prefix_tokens_saved_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_prefix_tokens_saved_total{replica=%q} %d\n", r.Name, r.Engine.PrefixCacheTokensSaved)
	}
	// Continuous-scheduler visibility per replica: where the batch slots
	// are full (hot replicas) and where long decodes are being displaced.
	fmt.Fprintf(w, "# HELP vgend_replica_sched_occupancy Running decodes over batch slots, per replica.\n# TYPE vgend_replica_sched_occupancy gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_sched_occupancy{replica=%q} %g\n", r.Name, r.Engine.SchedOccupancy)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_sched_preemptions_total Decodes preempted (parked with pages pinned), per replica.\n# TYPE vgend_replica_sched_preemptions_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_sched_preemptions_total{replica=%q} %d\n", r.Name, r.Engine.Preemptions)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_prefix_pinned_pages Session pages pinned by in-flight/parked decode leases, per replica.\n# TYPE vgend_replica_prefix_pinned_pages gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_prefix_pinned_pages{replica=%q} %d\n", r.Name, r.Engine.PrefixCachePinnedPages)
	}
	// Adaptive-speculation visibility per replica: which members have
	// degraded their draft budgets and how many decisions each
	// controller has made.
	fmt.Fprintf(w, "# HELP vgend_replica_adapt_level Load-degradation rung per replica (0 tree, 1 linear, 2 nodraft).\n# TYPE vgend_replica_adapt_level gauge\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_adapt_level{replica=%q,mode=%q} %d\n", r.Name, r.Engine.Adapt, r.Engine.AdaptLevel)
	}
	fmt.Fprintf(w, "# HELP vgend_replica_adapt_decisions_total Speculation-controller decisions per replica.\n# TYPE vgend_replica_adapt_decisions_total counter\n")
	for _, r := range m.PerReplica {
		fmt.Fprintf(w, "vgend_replica_adapt_decisions_total{replica=%q} %d\n", r.Name, r.Engine.AdaptDecisions)
	}
}
