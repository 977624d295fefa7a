package cluster

import (
	"fmt"
	"sync"
	"time"
)

// The autoscaler grows and shrinks the fleet on the signals the
// cluster already measures: queue-wait time accumulating in the
// replica engines and admission sheds. Every action needs sustained
// evidence (patience ticks) and is followed by a cooldown, so one
// bursty tick can never flap the fleet size.

// AutoscaleConfig turns the replica autoscaler on and bounds it.
type AutoscaleConfig struct {
	// Enabled turns the autoscaler on.
	Enabled bool
	// Min and Max clamp the fleet size. Min defaults to the configured
	// replica count; Max defaults to 2× Min.
	Min, Max int
}

// The controller's tuning: it samples every autoscaleInterval;
// autoscaleUpPatience ticks of sustained pressure add a replica,
// autoscaleDownPatience ticks of a fully idle fleet remove one, and
// autoscaleCooldown ticks after any action take no further action (the
// hysteresis gap). Pressure starts at a mean per-replica backlog of
// twice the template's workers (autoscaler.upLoad).
const (
	autoscaleInterval     = 250 * time.Millisecond
	autoscaleUpPatience   = 2
	autoscaleDownPatience = 8
	autoscaleCooldown     = 4
)

// autoscaler holds the controller state between ticks.
type autoscaler struct {
	f        *Fleet
	min, max int
	// upLoad is the mean per-replica backlog (queued + inflight) that
	// votes to scale up.
	upLoad float64

	mu            sync.Mutex
	upVotes       int
	downVotes     int
	cooldown      int
	lastSheds     uint64
	lastQueueWait float64
}

// newAutoscaler resolves cfg's bounds against the fleet; New starts
// its loop.
func newAutoscaler(f *Fleet, cfg AutoscaleConfig) (*autoscaler, error) {
	n := len(f.Replicas())
	if cfg.Min <= 0 {
		cfg.Min = n
	}
	if cfg.Max <= 0 {
		cfg.Max = 2 * cfg.Min
	}
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("cluster: autoscale max %d < min %d", cfg.Max, cfg.Min)
	}
	if n > cfg.Max {
		return nil, fmt.Errorf("cluster: %d replicas exceed autoscale max %d", n, cfg.Max)
	}
	workers := max(f.template.Engine.Workers, 1)
	return &autoscaler{f: f, min: cfg.Min, max: cfg.Max, upLoad: float64(2 * workers), lastSheds: f.shedTotal()}, nil
}

func (a *autoscaler) loop() {
	defer a.f.wg.Done()
	t := time.NewTicker(autoscaleInterval)
	defer t.Stop()
	for {
		select {
		case <-a.f.quit:
			return
		case <-t.C:
			a.tick()
		}
	}
}

// tick samples the fleet and takes at most one scaling action.
func (a *autoscaler) tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cooldown > 0 {
		a.cooldown--
		return
	}

	reps := a.f.Replicas()
	active := 0
	totalLoad := 0
	queueWait := 0.0
	for _, r := range reps {
		if r.state.Load() == stateActive {
			active++
		}
		totalLoad += r.load()
		queueWait += r.Engine().Metrics().QueueWaitSeconds
	}
	if active == 0 {
		return
	}
	sheds := a.f.shedTotal()
	shedDelta := sheds - a.lastSheds
	a.lastSheds = sheds
	waitDelta := queueWait - a.lastQueueWait
	a.lastQueueWait = queueWait
	perReplica := float64(totalLoad) / float64(active)

	// Pressure: sustained backlog, requests shed, or queue-wait still
	// accumulating. Idle: nothing queued, nothing waiting, nothing shed.
	pressure := perReplica >= a.upLoad || shedDelta > 0 ||
		(waitDelta > 0 && perReplica >= a.upLoad/2)
	idle := totalLoad == 0 && shedDelta == 0 && waitDelta == 0

	switch {
	case pressure:
		a.upVotes++
		a.downVotes = 0
	case idle:
		a.downVotes++
		a.upVotes = 0
	default:
		a.upVotes = 0
		a.downVotes = 0
	}

	if a.upVotes >= autoscaleUpPatience && len(reps) < a.max {
		if _, err := a.f.addReplica(); err == nil {
			a.upVotes = 0
			a.cooldown = autoscaleCooldown
		}
		return
	}
	if a.downVotes >= autoscaleDownPatience && len(reps) > a.min {
		if victim := a.f.scaleDownVictim(); victim != nil {
			a.f.retireReplica(victim)
			a.downVotes = 0
			a.cooldown = autoscaleCooldown
		}
	}
}

// AutoscaleBounds reports the configured (min, max) fleet size, or
// (0, 0) when autoscaling is off.
func (f *Fleet) AutoscaleBounds() (int, int) {
	if f.auto == nil {
		return 0, 0
	}
	return f.auto.min, f.auto.max
}
