package cluster

import (
	"io"
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
	// Routed counts requests the router sent here; Inflight is how many
	// of them are not yet answered; Stolen counts requests served here
	// that were routed elsewhere (work stealing).
	Routed   uint64 `json:"routed"`
	Inflight int64  `json:"inflight"`
	Stolen   uint64 `json:"stolen" prom:"vgend_replica_stolen_total" help:"Requests served here that were routed elsewhere."`
	// Engine is the replica engine's own snapshot; the exposition
	// carries its replica-tagged fields.
	Engine serve.Metrics `json:"engine" families:"replica"`
}

// Metrics is a point-in-time fleet snapshot: per-replica detail plus
// fleet-wide aggregates, tagged like serve.Metrics.
type Metrics struct {
	Router   string `json:"router" prom:"vgend_fleet_info" label:"router" help:"Fleet identity (value is always 1)."`
	Replicas int    `json:"replicas" prom:"vgend_fleet_replicas" help:"Fleet replica count."`
	// Requests counts fleet submissions (before routing).
	Requests uint64 `json:"requests" prom:"vgend_fleet_requests_total" help:"Fleet submissions before routing."`
	// UnknownModel counts routing failures.
	UnknownModel uint64 `json:"unknown_model" prom:"vgend_fleet_unknown_model_total" help:"Requests naming a model no replica serves."`
	// Steals counts requests served by a non-routed replica.
	Steals uint64 `json:"steals" prom:"vgend_fleet_steals_total" help:"Requests served by a non-routed replica (work stealing)."`
	// Fleet aggregates every replica engine's counters (serve.Aggregate),
	// in the engine's own families so single-engine dashboards keep working.
	Fleet serve.Metrics `json:"fleet"`
	// PerReplica lists each member in fleet order.
	PerReplica []ReplicaMetrics `json:"per_replica" label:"replica"`
}

// Metrics snapshots the fleet.
func (f *Fleet) Metrics() Metrics {
	m := Metrics{
		Router:       routerName,
		Replicas:     len(f.replicas),
		Requests:     f.requests.Load(),
		UnknownModel: f.unknownModel.Load(),
		Steals:       f.steals.Load(),
	}
	engines := make([]serve.Metrics, 0, len(f.replicas))
	for _, r := range f.replicas {
		em := r.Engine().Metrics()
		engines = append(engines, em)
		m.PerReplica = append(m.PerReplica, ReplicaMetrics{
			Name:     r.name,
			Model:    r.modelName,
			Scheme:   r.scheme,
			Routed:   r.routed.Load(),
			Inflight: r.inflight.Load(),
			Stolen:   r.stolen.Load(),
			Engine:   em,
		})
	}
	m.Fleet = serve.Aggregate(engines)
	return m
}

// Healthz implements serve.Backend: fleet liveness with per-replica
// identity (the uptime key is added by the handler).
func (f *Fleet) Healthz() map[string]any {
	replicas := make([]map[string]any, 0, len(f.replicas))
	for _, r := range f.replicas {
		eng := r.Engine()
		replicas = append(replicas, map[string]any{
			"name":        r.name,
			"model":       r.modelName,
			"scheme":      r.scheme,
			"workers":     eng.Workers(),
			"queue_depth": eng.QueueDepth(),
		})
	}
	seen := map[string]bool{}
	var models []string
	for _, r := range f.replicas {
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
	for _, r := range m.PerReplica {
		x.Sample("vgend_replica_routed_total", "Requests routed per replica.", r.Routed, "replica", r.Name, "model", r.Model)
	}
	x.Render(w)
}
