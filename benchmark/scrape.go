package main

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// counters is a /metrics body flattened to dotted numeric paths:
// "engine.requests", "engine.per_strategy.Ours.completed",
// "engine.accept_depth_hist.0", "cluster.affinity_picks",
// "phase.sweep". The engine section is the daemon's own in
// single-engine mode and the fleet-wide sum in fleet mode, so callers
// read one shape.
type counters map[string]float64

// parseMetrics flattens a /metrics JSON body. It accepts both shapes
// vgend serves: {"engine": {...}} and {"cluster": {..., "fleet":
// {...}, "per_replica": [...]}}.
func parseMetrics(body []byte) (counters, error) {
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	c := counters{}
	switch {
	case raw["engine"] != nil:
		flatten(c, "engine", raw["engine"])
	case raw["cluster"] != nil:
		cl, ok := raw["cluster"].(map[string]any)
		if !ok || cl["fleet"] == nil {
			return nil, fmt.Errorf("parse /metrics: cluster body without a fleet section")
		}
		flatten(c, "engine", cl["fleet"])
		if reps, ok := cl["per_replica"].([]any); ok {
			for i, r := range reps {
				if m, ok := r.(map[string]any); ok {
					flatten(c, "replica."+strconv.Itoa(i)+".routed", m["routed"])
				}
			}
			c["cluster.replica_count"] = float64(len(reps))
		}
		delete(cl, "fleet")
		delete(cl, "per_replica")
		flatten(c, "cluster", cl)
	default:
		return nil, fmt.Errorf("parse /metrics: neither an engine nor a cluster section")
	}
	flatten(c, "phase", raw["phase_seconds"])
	// /metrics exposes sweep occupancy as a running mean only; mean ×
	// sweeps turns it back into a sum a window delta can be taken of.
	c["engine.sweep_slots"] = c["engine.sched_mean_sweep_occupancy"] * c["engine.sched_sweeps"]
	return c, nil
}

func flatten(c counters, prefix string, v any) {
	switch x := v.(type) {
	case float64:
		c[prefix] = x
	case map[string]any:
		for k, sub := range x {
			flatten(c, prefix+"."+k, sub)
		}
	case []any:
		for i, sub := range x {
			flatten(c, prefix+"."+strconv.Itoa(i), sub)
		}
	}
}

// sub returns after − before per path. Every path used downstream is a
// monotone counter or a running sum, except the few gauges read from
// the after-scrape directly.
func (after counters) sub(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
