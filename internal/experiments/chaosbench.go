package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// This file is the chaos/fault-injection tier: a deterministic fault
// plane wired into replica engines through serve.Config.StepFault, and
// a bench that kills or wedges a replica mid-run and measures what
// clients actually see — availability, non-shed errors, and p99 —
// before, during, and after the fault. The CI gate
// (TestChaosRecoveryGate, `make chaos-gate`) pins the elasticity
// claim: a faulted fleet must answer every request through hedges,
// failover and breakers, and recover its latency once healed.

// ErrInjected is the error every injected fault surfaces inside the
// engine. It is NOT a protocol error (not shed, not backpressure), so
// the dispatch layer treats it exactly like a real replica fault:
// retryable, breaker-charging.
var ErrInjected = errors.New("chaos: injected replica fault")

// FaultKind enumerates the injectable replica faults.
type FaultKind int32

const (
	// FaultNone: healthy replica.
	FaultNone FaultKind = iota
	// FaultKill fails every decode fast — the crashed-process shape.
	FaultKill
	// FaultWedge blocks every decode until its context dies or the
	// fault is healed — the hung-accelerator shape. While the fault is
	// armed, only hedge timeouts and cancellation get a request off a
	// wedged replica; Heal (the operator restart) releases parked
	// decodes to complete normally.
	FaultWedge
	// FaultSlow stalls each fault-plane consult by a fixed delay. The
	// continuous scheduler consults once per verification sweep, so the
	// stall multiplies decode wall time — the degraded-replica shape.
	FaultSlow
	// FaultErrRate fails every Nth decode deterministically — the
	// flaky-replica shape.
	FaultErrRate
)

// String names the fault for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultKill:
		return "kill"
	case FaultWedge:
		return "wedge"
	case FaultSlow:
		return "slow"
	case FaultErrRate:
		return "error-rate"
	default:
		return fmt.Sprintf("fault(%d)", int32(k))
	}
}

// faultSlot is one replica's injected state. All fields are atomics:
// the bench flips faults from the driver goroutine while engine
// workers consult concurrently.
type faultSlot struct {
	kind     atomic.Int32
	delay    atomic.Int64  // FaultSlow: stall per consult, nanoseconds
	everyN   atomic.Uint64 // FaultErrRate: fail every Nth consult
	consults atomic.Uint64
	// unwedge is armed (a fresh channel) per wedge epoch and closed by
	// Heal, releasing decodes parked in the wedge hook. Without it a
	// parked hook outlives the fault, and enough wedge epochs park every
	// scheduler in the fleet — a deadline-less client fleet would then
	// deadlock: no dispatch can conclude, so no attempt context ever
	// dies, so nothing unparks.
	unwedge atomic.Pointer[chan struct{}]
}

// FaultPlane is a deterministic fault-injection plane for a fleet:
// one slot per replica index, flipped at runtime with Inject/Heal,
// delivered into the engines as StepFault hooks. No randomness —
// FaultErrRate fails on a fixed modulus — so chaos runs replay.
type FaultPlane struct {
	slots []faultSlot
}

// NewFaultPlane returns a plane for n replicas, all healthy.
func NewFaultPlane(n int) *FaultPlane {
	return &FaultPlane{slots: make([]faultSlot, n)}
}

// Inject arms replica i with a fault. FaultSlow and FaultErrRate take
// their parameter via InjectSlow / InjectErrRate.
func (p *FaultPlane) Inject(i int, k FaultKind) {
	s := &p.slots[i]
	if k == FaultWedge {
		// Arm the release channel before the kind becomes visible: any
		// hook that observes the wedge observes its channel too.
		ch := make(chan struct{})
		s.unwedge.Store(&ch)
	}
	s.kind.Store(int32(k))
}

// InjectSlow arms replica i to stall every consult by d.
func (p *FaultPlane) InjectSlow(i int, d time.Duration) {
	p.slots[i].delay.Store(int64(d))
	p.slots[i].kind.Store(int32(FaultSlow))
}

// InjectErrRate arms replica i to fail every nth decode.
func (p *FaultPlane) InjectErrRate(i int, n uint64) {
	if n < 1 {
		n = 1
	}
	p.slots[i].everyN.Store(n)
	p.slots[i].kind.Store(int32(FaultErrRate))
}

// Heal returns replica i to healthy and releases any decodes parked in
// its wedge hook.
func (p *FaultPlane) Heal(i int) {
	s := &p.slots[i]
	s.kind.Store(int32(FaultNone))
	if ch := s.unwedge.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Kind reports replica i's current fault.
func (p *FaultPlane) Kind(i int) FaultKind {
	return FaultKind(p.slots[i].kind.Load())
}

// Hook builds replica i's serve.Config.StepFault hook. The hook
// honours ctx (a wedged decode unblocks the moment its context dies —
// hedge cancellation, client hangup, or engine Close) and Heal (a
// healed wedge releases its parked decodes to complete normally).
func (p *FaultPlane) Hook(i int) func(ctx context.Context) error {
	s := &p.slots[i]
	return func(ctx context.Context) error {
		switch FaultKind(s.kind.Load()) {
		case FaultKill:
			return ErrInjected
		case FaultWedge:
			ch := s.unwedge.Load()
			if ch == nil {
				return nil // healed between the kind check and here
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-*ch:
				return nil
			}
		case FaultSlow:
			select {
			case <-time.After(time.Duration(s.delay.Load())):
			case <-ctx.Done():
				return ctx.Err()
			}
		case FaultErrRate:
			if n := s.everyN.Load(); n > 0 && s.consults.Add(1)%n == 0 {
				return ErrInjected
			}
		}
		return nil
	}
}

// One chaos scenario's sizes: a three-phase workload (before / during
// / after) against a hedging, breaker-guarded fleet. The only thing a
// caller varies is the fault kind.
const (
	// chaosReplicas is the fleet size, chaosClients the concurrent
	// load-generator count, chaosRounds the requests per client per
	// phase and chaosPrompts the distinct-prompt count.
	chaosReplicas, chaosClients, chaosRounds, chaosPrompts = 3, 6, 6, 6
	// chaosWorkers sizes each replica engine: with one worker a single
	// wedged decode stalls the whole replica, the worst case.
	chaosWorkers = 1
	// chaosSlowBy is FaultSlow's stall per sweep and chaosErrEvery
	// FaultErrRate's modulus (every 2nd decode fails).
	chaosSlowBy   = 5 * time.Millisecond
	chaosErrEvery = 2
	// chaosHedgeAfter is the fleet hedge timer — the only thing that
	// gets a request off a wedged replica.
	chaosHedgeAfter = 25 * time.Millisecond
	// chaosBreakerThreshold / chaosBreakerCooldown configure the
	// per-replica circuit breakers.
	chaosBreakerThreshold = 2
	chaosBreakerCooldown  = 150 * time.Millisecond
)

// ChaosPhase is one phase's client-side measurement.
type ChaosPhase struct {
	Name     string
	Requests int
	// OK / Shed / Faults partition the outcomes: successful responses,
	// documented shed-protocol refusals, and everything else — the
	// client-visible errors the elasticity machinery exists to prevent.
	OK     int
	Shed   int
	Faults int
	// FirstFault is the first non-shed error, for the report.
	FirstFault string
	P99WallMS  float64
}

// Availability is the fraction of requests answered within protocol
// (success or documented shed) — 1.0 means zero client-visible errors
// beyond the shed protocol.
func (p ChaosPhase) Availability() float64 {
	if p.Requests == 0 {
		return 1
	}
	return float64(p.OK+p.Shed) / float64(p.Requests)
}

// ChaosResult is one scenario's full measurement.
type ChaosResult struct {
	Fault  string
	Target string // replica the fault was injected into
	Before ChaosPhase
	During ChaosPhase
	After  ChaosPhase
	// Resilience counters accumulated across the run.
	Hedges       uint64
	HedgeWins    uint64
	Failovers    uint64
	BreakerOpens uint64
}

// ChaosBench runs one chaos scenario: a before phase to find the
// hottest (most-serving) replica, fault injected there for the during
// phase (FaultNone runs the unfaulted baseline the gate compares
// against), then heal, a breaker-cooldown pause, and an after phase. Every phase reuses the same client/prompt schedule with
// phase-distinct seeds, so decodes are real work (no cache or dedup
// short-circuits) and the three phases are comparable.
func ChaosBench(m *model.Model, prompts []string, fault FaultKind) (*ChaosResult, error) {
	if len(prompts) < chaosPrompts {
		return nil, fmt.Errorf("chaos bench needs %d prompts, got %d", chaosPrompts, len(prompts))
	}
	prompts = prompts[:chaosPrompts]

	plane := NewFaultPlane(chaosReplicas)
	specs := make([]cluster.ReplicaSpec, chaosReplicas)
	for i := range specs {
		specs[i] = cluster.ReplicaSpec{
			Model: m,
			Engine: serve.Config{
				Workers:   chaosWorkers,
				CacheSize: -1, // real decodes only: a cache hit skips the fault plane
				StepFault: plane.Hook(i),
			},
		}
	}
	fleet, err := cluster.New(specs, cluster.Config{
		HedgeAfter:       chaosHedgeAfter,
		BreakerThreshold: chaosBreakerThreshold,
		BreakerCooldown:  chaosBreakerCooldown,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	res := &ChaosResult{Fault: fault.String()}

	before, served := runChaosPhase(fleet, prompts, "before", 0)
	res.Before = before

	// Fault the replica that served the most before-phase traffic: the
	// affinity hotspot, where the fault hurts most.
	target := hottestReplica(fleet, served)
	res.Target = fleet.Replicas()[target].Name()
	switch fault {
	case FaultSlow:
		plane.InjectSlow(target, chaosSlowBy)
	case FaultErrRate:
		plane.InjectErrRate(target, chaosErrEvery)
	default:
		plane.Inject(target, fault)
	}

	res.During, _ = runChaosPhase(fleet, prompts, "during", 1)

	plane.Heal(target)
	// Let the breaker cool down and re-admit the healed replica before
	// measuring recovery.
	time.Sleep(chaosBreakerCooldown + 50*time.Millisecond)

	res.After, _ = runChaosPhase(fleet, prompts, "after", 2)

	fm := fleet.Metrics()
	res.Hedges = fm.Hedges
	res.HedgeWins = fm.HedgeWins
	res.Failovers = fm.Failovers
	for _, rm := range fm.PerReplica {
		res.BreakerOpens += rm.BreakerOpens
	}
	return res, nil
}

// runChaosPhase fires one phase of the workload and classifies every
// outcome. The returned map counts responses per serving replica.
func runChaosPhase(fleet *cluster.Fleet, prompts []string, name string, phase int) (ChaosPhase, map[string]int) {
	const total = chaosClients * chaosRounds
	latencies := make([]float64, 0, total)
	served := map[string]int{}
	out := ChaosPhase{Name: name, Requests: total}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < chaosRounds; k++ {
				req := serve.Request{
					Prompt: prompts[(c+k)%len(prompts)],
					// Phase-and-request-distinct seeds: no two requests
					// in the run share a cache or dedup key.
					Options: chaosOptions(int64(phase*10_000 + c*100 + k)),
				}
				t0 := time.Now()
				resp, err := fleet.Generate(context.Background(), req)
				wall := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				var shed *serve.ShedError
				switch {
				case err == nil:
					out.OK++
					served[resp.Replica]++
					latencies = append(latencies, wall)
				case errors.As(err, &shed):
					out.Shed++
				default:
					out.Faults++
					if out.FirstFault == "" {
						out.FirstFault = fmt.Sprintf("client %d round %d: %v", c, k, err)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Float64s(latencies)
	out.P99WallMS = percentile(latencies, 0.99)
	return out, served
}

// hottestReplica maps the busiest serving replica back to its spec
// index (fleet construction order).
func hottestReplica(fleet *cluster.Fleet, served map[string]int) int {
	target, best := 0, -1
	for i, r := range fleet.Replicas() {
		if n := served[r.Name()]; n > best {
			target, best = i, n
		}
	}
	return target
}

// chaosOptions is the chaos-bench decode option set: sampled, short,
// seeded per request.
func chaosOptions(seed int64) core.Options {
	return core.Options{Temperature: 0.6, MaxNewTokens: 32, Seed: seed}
}
