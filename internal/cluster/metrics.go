package cluster

import (
	"io"
	"maps"
	"sort"
	"strings"

	"repro/internal/serve"
)

// ReplicaMetrics is one replica's slice of a fleet snapshot, tagged
// like serve.Metrics; every family carries the replica's Name as its
// replica label.
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
	Stolen   uint64 `json:"stolen" prom:"vgend_replica_stolen_total" help:"Requests served here that were routed elsewhere."`
	// State is the lifecycle state ("active" or "draining");
	// BreakerState is the circuit state ("closed", "open",
	// "half-open") and BreakerOpens counts its trips.
	State        string `json:"state"`
	BreakerState string `json:"breaker_state"`
	BreakerOpens uint64 `json:"breaker_opens" prom:"vgend_replica_breaker_opens_total" help:"Circuit trips per replica."`
	// Engine is the replica engine's own snapshot; the exposition
	// carries its replica-tagged fields.
	Engine serve.Metrics `json:"engine" families:"replica"`
}

// Metrics is a point-in-time fleet snapshot: per-replica detail plus
// fleet-wide aggregates, tagged like serve.Metrics.
type Metrics struct {
	Router   string `json:"router" prom:"vgend_fleet_info" label:"router" help:"Fleet identity (value is always 1)."`
	Replicas int    `json:"replicas" prom:"vgend_fleet_replicas" help:"Fleet replica count."`
	// Requests counts fleet submissions (before routing/admission).
	Requests uint64 `json:"requests" prom:"vgend_fleet_requests_total" help:"Fleet submissions before routing/admission."`
	// Shed* count admission drops; UnknownModel counts routing failures.
	Shed           uint64            `json:"shed" prom:"vgend_fleet_shed_total" help:"Admission-control drops across all policies."`
	ShedByPolicy   map[string]uint64 `json:"shed_by_policy" prom:"vgend_fleet_shed_by_policy_total" label:"policy" help:"Admission drops per shedding policy."`
	ShedByPriority map[string]uint64 `json:"shed_by_priority" prom:"vgend_fleet_shed_by_priority_total" label:"priority" help:"Admission drops per priority class."`
	UnknownModel   uint64            `json:"unknown_model" prom:"vgend_fleet_unknown_model_total" help:"Requests naming a model no replica serves."`
	// AffinityPicks/SpillPicks split prefix-affinity routing decisions
	// (zero for other routers).
	AffinityPicks uint64 `json:"affinity_picks" prom:"vgend_fleet_affinity_picks_total" help:"Prefix-affinity picks kept on the affine replica."`
	SpillPicks    uint64 `json:"spill_picks" prom:"vgend_fleet_spill_picks_total" help:"Prefix-affinity picks spilled to least-loaded."`
	// MeanDecodeMS is the decode-time EWMA admission math runs on.
	MeanDecodeMS float64 `json:"mean_decode_ms" prom:"vgend_fleet_mean_decode_ms" help:"EWMA of decode wall time (admission estimate)."`
	// Resilience counters: hedges launched/won, failovers to a sibling
	// after a fault, requests served by a non-routed replica (steals),
	// drains started and model swaps completed.
	Hedges    uint64 `json:"hedges" prom:"vgend_fleet_hedges_total" help:"Hedged attempts launched against a second replica."`
	HedgeWins uint64 `json:"hedge_wins" prom:"vgend_fleet_hedge_wins_total" help:"Hedges that answered before the primary replica."`
	Failovers uint64 `json:"failovers" prom:"vgend_fleet_failovers_total" help:"Retries on a sibling after a replica fault."`
	Steals    uint64 `json:"steals" prom:"vgend_fleet_steals_total" help:"Requests served by a non-routed replica (work stealing)."`
	Drains    uint64 `json:"drains" prom:"vgend_fleet_drains_total" help:"Replica drains started."`
	Swaps     uint64 `json:"swaps" prom:"vgend_fleet_swaps_total" help:"Rolling model swaps completed."`
	// Autoscaler actions and bounds (bounds zero, and absent from both
	// bodies, when autoscaling is off).
	ScaleUps     uint64 `json:"scale_ups" prom:"vgend_fleet_scale_ups_total" help:"Replicas added by the autoscaler."`
	ScaleDowns   uint64 `json:"scale_downs" prom:"vgend_fleet_scale_downs_total" help:"Replicas removed by the autoscaler."`
	AutoscaleMin int    `json:"autoscale_min,omitempty" prom:"vgend_fleet_scale_min_replicas" help:"Autoscaler fleet-size floor."`
	AutoscaleMax int    `json:"autoscale_max,omitempty" prom:"vgend_fleet_scale_max_replicas" help:"Autoscaler fleet-size ceiling."`
	// Fleet aggregates every replica engine's counters (serve.Aggregate),
	// in the engine's own families so single-engine dashboards keep working.
	Fleet serve.Metrics `json:"fleet"`
	// PerReplica lists each member in fleet order.
	PerReplica []ReplicaMetrics `json:"per_replica" label:"replica"`
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
		Router:     f.router.Name(),
		Replicas:   len(replicas),
		Hedges:     f.elastic.hedges.Load(),
		HedgeWins:  f.elastic.hedgeWins.Load(),
		Failovers:  f.elastic.failovers.Load(),
		Steals:     f.elastic.steals.Load(),
		Drains:     f.elastic.drains.Load(),
		Swaps:      f.elastic.swaps.Load(),
		ScaleUps:   f.elastic.scaleUps.Load(),
		ScaleDowns: f.elastic.scaleDowns.Load(),
	}
	m.AutoscaleMin, m.AutoscaleMax = f.AutoscaleBounds()
	f.st.mu.Lock()
	m.Requests = f.st.requests
	m.UnknownModel = f.st.unknownModel
	m.MeanDecodeMS = f.st.meanDecodeMS
	m.ShedByPolicy = maps.Clone(f.st.shedByPolicy)
	m.ShedByPriority = maps.Clone(f.st.shedByPriority)
	f.st.mu.Unlock()
	for _, v := range m.ShedByPolicy {
		m.Shed += v
	}
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
	m.Fleet = serve.Aggregate(engines)
	return m
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

// WritePrometheusTo implements serve.Backend: the snapshot's tagged
// fields (the aggregate in the engine's own shape, the fleet_ and
// per-replica families), then the few no field can declare by itself.
func (f *Fleet) WritePrometheusTo(w io.Writer, uptimeS float64) {
	m := f.Metrics()
	models := make([]string, len(m.PerReplica))
	for i, r := range m.PerReplica {
		models[i] = r.Model
	}
	x := serve.NewExposition(strings.Join(models, ","), uptimeS)
	x.Struct(m)
	x.Sample("vgend_fleet_scale_replicas", "Current fleet size as the autoscaler sees it.", m.Replicas)
	for _, r := range m.PerReplica {
		x.Sample("vgend_replica_routed_total", "Requests routed per replica.", r.Routed, "replica", r.Name, "model", r.Model)
		breaker := map[string]int{"open": 1, "half-open": 2}[r.BreakerState]
		x.Sample("vgend_replica_breaker_state", "Circuit state per replica (0 closed, 1 open, 2 half-open).", breaker, "replica", r.Name, "state", r.BreakerState)
		draining := map[string]int{"draining": 1}[r.State]
		x.Sample("vgend_replica_draining", "Replica lifecycle state (1 = draining).", draining, "replica", r.Name)
		x.Sample("vgend_replica_adapt_level", "Load-degradation rung per replica (0 tree, 1 linear, 2 nodraft).", r.Engine.AdaptLevel, "replica", r.Name, "mode", r.Engine.Adapt)
	}
	x.Render(w)
}
