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

// AutoscaleConfig tunes the replica autoscaler.
type AutoscaleConfig struct {
	// Enabled turns the autoscaler on.
	Enabled bool
	// Min and Max clamp the fleet size. Min defaults to the configured
	// replica count; Max defaults to 2× Min.
	Min, Max int
	// Interval is the sampling cadence (default 250ms). Zero or
	// negative disables the background ticker — Tick is then driven
	// manually (deterministic tests).
	Interval time.Duration
	// UpLoad is the mean per-replica backlog (queued + inflight) that
	// votes to scale up (default 2× the template's workers).
	UpLoad float64
	// UpPatience ticks of sustained pressure add a replica (default 2);
	// DownPatience ticks of a fully idle fleet remove one (default 8).
	UpPatience, DownPatience int
	// Cooldown ticks after any action during which no further action is
	// taken (default 4) — the hysteresis gap.
	Cooldown int
}

func (c AutoscaleConfig) withDefaults(baseReplicas, workers int) AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = baseReplicas
	}
	if c.Max <= 0 {
		c.Max = 2 * c.Min
	}
	if c.Interval == 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.UpLoad <= 0 {
		if workers < 1 {
			workers = 1
		}
		c.UpLoad = float64(2 * workers)
	}
	if c.UpPatience <= 0 {
		c.UpPatience = 2
	}
	if c.DownPatience <= 0 {
		c.DownPatience = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 4
	}
	return c
}

// autoscaler holds the controller state between ticks.
type autoscaler struct {
	f   *Fleet
	cfg AutoscaleConfig

	mu            sync.Mutex
	upVotes       int
	downVotes     int
	cooldown      int
	lastSheds     uint64
	lastQueueWait float64
}

func newAutoscaler(f *Fleet, cfg AutoscaleConfig) (*autoscaler, error) {
	cfg = cfg.withDefaults(len(f.Replicas()), f.template.Engine.Workers)
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("cluster: autoscale max %d < min %d", cfg.Max, cfg.Min)
	}
	if len(f.Replicas()) > cfg.Max {
		return nil, fmt.Errorf("cluster: %d replicas exceed autoscale max %d", len(f.Replicas()), cfg.Max)
	}
	a := &autoscaler{f: f, cfg: cfg, lastSheds: f.shedTotal()}
	if cfg.Interval > 0 {
		f.wg.Add(1)
		go a.loop()
	}
	return a, nil
}

func (a *autoscaler) loop() {
	defer a.f.wg.Done()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.f.quit:
			return
		case <-t.C:
			a.f.AutoscaleTick()
		}
	}
}

// AutoscaleTick samples the fleet and takes at most one scaling
// action. Exported so tests (and operators driving Interval<=0) can
// step the controller deterministically; a no-op without autoscaling.
func (f *Fleet) AutoscaleTick() {
	if f.auto != nil {
		f.auto.tick()
	}
}

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
	pressure := perReplica >= a.cfg.UpLoad || shedDelta > 0 ||
		(waitDelta > 0 && perReplica >= a.cfg.UpLoad/2)
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

	if a.upVotes >= a.cfg.UpPatience && len(reps) < a.cfg.Max {
		if _, err := a.f.addReplica(); err == nil {
			a.upVotes = 0
			a.cooldown = a.cfg.Cooldown
		}
		return
	}
	if a.downVotes >= a.cfg.DownPatience && len(reps) > a.cfg.Min {
		if victim := a.f.scaleDownVictim(); victim != nil {
			a.f.retireReplica(victim)
			a.downVotes = 0
			a.cooldown = a.cfg.Cooldown
		}
	}
}

// AutoscaleBounds reports the configured (min, max) fleet size, or
// (0, 0) when autoscaling is off.
func (f *Fleet) AutoscaleBounds() (int, int) {
	if f.auto == nil {
		return 0, 0
	}
	return f.auto.cfg.Min, f.auto.cfg.Max
}
