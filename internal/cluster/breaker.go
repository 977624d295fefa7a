package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// breakerState is the classic three-state circuit: Closed passes
// traffic and counts consecutive failures; Open fails fast for a
// cooldown; HalfOpen admits a single probe whose outcome decides
// between closing again and re-opening.
type breakerState int32

const (
	BreakerClosed breakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one replica's circuit breaker. Failures are replica
// faults only — injected faults, decode errors, and wedge-timeout
// signals (a hedge winning because this replica never answered). Shed,
// backpressure and client cancellation are protocol outcomes and count
// as neutral: they release a half-open probe without moving the state.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failures while closed
	probes   int       // outstanding half-open probes (capped at 1)
	openedAt time.Time // when the circuit last tripped

	threshold int           // consecutive failures that trip the circuit
	cooldown  time.Duration // open dwell before the first probe
	now       func() time.Time

	opens atomic.Uint64 // times the circuit tripped open
}

const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = time.Second
)

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// ready is the router's non-consuming peek: can this replica take a
// request right now? Open circuits answer no until the cooldown
// elapses; half-open circuits answer no while a probe is out.
func (b *breaker) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	default: // half-open
		return b.probes == 0
	}
}

// allow consumes a dispatch slot: it transitions a cooled-down open
// circuit to half-open and reserves the probe. Every true return must
// be balanced by exactly one onSuccess/onFailure/onNeutral.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probes = 1
		return true
	default: // half-open
		if b.probes > 0 {
			return false
		}
		b.probes = 1
		return true
	}
}

// onSuccess records a served request: it closes a half-open circuit
// and clears the failure streak.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.probes = 0
	}
}

// onFailure records a replica fault: it extends the failure streak
// (tripping at the threshold) and re-opens a half-open circuit whose
// probe just failed.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	case BreakerOpen:
		// Late failure from before the trip: the circuit is already
		// doing its job. Don't refresh openedAt — recovery stays
		// deterministic at openedAt+cooldown.
	}
}

// onNeutral records a protocol outcome (shed, backpressure, client
// cancellation): it releases a half-open probe without judging the
// replica either way.
func (b *breaker) onNeutral() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// trip opens the circuit (caller holds b.mu).
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probes = 0
	b.opens.Add(1)
}

// snapshot reports the current state and the open-trip count.
func (b *breaker) snapshot() (breakerState, uint64) {
	b.mu.Lock()
	st := b.state
	b.mu.Unlock()
	return st, b.opens.Load()
}
