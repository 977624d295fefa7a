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
	// State is the lifecycle state ("active" or "draining").
	State string `json:"state"`
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
	// AffinityPicks/SpillPicks split prefix-affinity routing decisions.
	AffinityPicks uint64 `json:"affinity_picks" prom:"vgend_fleet_affinity_picks_total" help:"Prefix-affinity picks kept on the affine replica."`
	SpillPicks    uint64 `json:"spill_picks" prom:"vgend_fleet_spill_picks_total" help:"Prefix-affinity picks spilled to least-loaded."`
	// MeanDecodeMS is the decode-time EWMA admission math runs on.
	MeanDecodeMS float64 `json:"mean_decode_ms" prom:"vgend_fleet_mean_decode_ms" help:"EWMA of decode wall time (admission estimate)."`
	// Elasticity counters: requests served by a non-routed replica
	// (steals) and drains started.
	Steals uint64 `json:"steals" prom:"vgend_fleet_steals_total" help:"Requests served by a non-routed replica (work stealing)."`
	Drains uint64 `json:"drains" prom:"vgend_fleet_drains_total" help:"Replica drains started."`
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

// Metrics snapshots the fleet.
func (f *Fleet) Metrics() Metrics {
	replicas := f.Replicas()
	m := Metrics{
		Router:     routerName,
		Replicas:   len(replicas),
		Steals:     f.elastic.steals.Load(),
		Drains:     f.elastic.drains.Load(),
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
	if p, ok := f.router.(*prefixAffinity); ok {
		m.AffinityPicks, m.SpillPicks = p.affine.Load(), p.spill.Load()
	}
	engines := make([]serve.Metrics, 0, len(replicas))
	for _, r := range replicas {
		em := r.Engine().Metrics()
		engines = append(engines, em)
		state := "active"
		if r.Draining() {
			state = "draining"
		}
		m.PerReplica = append(m.PerReplica, ReplicaMetrics{
			Name:            r.name,
			Model:           r.modelName,
			Scheme:          r.scheme,
			DefaultStrategy: r.defaultStrategy,
			Routed:          r.routed.Load(),
			Inflight:        r.inflight.Load(),
			Stolen:          r.stolen.Load(),
			State:           state,
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
		replicas = append(replicas, map[string]any{
			"name":        r.name,
			"model":       r.modelName,
			"scheme":      r.scheme,
			"workers":     eng.Workers(),
			"queue_depth": eng.QueueDepth(),
			"state":       state,
		})
	}
	seen := map[string]bool{}
	var models []string
	for _, r := range members {
		if !seen[r.modelName] {
			seen[r.modelName] = true
			models = append(models, r.modelName)
		}
	}
	sort.Strings(models)
	return map[string]any{
		"status":   "ok",
		"router":   routerName,
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
		draining := map[string]int{"draining": 1}[r.State]
		x.Sample("vgend_replica_draining", "Replica lifecycle state (1 = draining).", draining, "replica", r.Name)
	}
	x.Render(w)
}
