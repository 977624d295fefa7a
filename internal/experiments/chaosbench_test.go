package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// chaosRecoveryRatio is the CI recovery gate: once the fault is healed
// and the breaker has cooled, the after-phase p99 must sit within 1.5x
// of the unfaulted run's after-phase p99 — same bound the
// latency-under-load gate uses, so "recovered" means the same thing
// across tiers.
const chaosRecoveryRatio = 1.5

// requireAvailable fails the run on the non-negotiable half of the
// gate: every phase of every scenario must answer every request within
// protocol — zero client-visible errors beyond documented shedding.
// This is a hard failure, never retried: availability is not timing
// noise.
func requireAvailable(t *testing.T, label string, res *ChaosResult) {
	t.Helper()
	for _, p := range []ChaosPhase{res.Before, res.During, res.After} {
		if p.Faults != 0 {
			t.Fatalf("%s %s phase: %d non-shed client errors (first: %s)", label, p.Name, p.Faults, p.FirstFault)
		}
		if p.Availability() != 1.0 {
			t.Fatalf("%s %s phase: availability %.3f, want 1.0", label, p.Name, p.Availability())
		}
	}
}

// TestChaosRecoveryGate is `make chaos-gate`: with a replica killed
// (and, separately, wedged) mid-run, the fleet must answer every
// request within protocol — recovery via failover and hedging, faults
// absorbed by the breaker — and once healed, short-request p99 must
// recover to within 1.5x of an unfaulted run. The latency half gets
// three attempts (wall-clock on shared runners is noisy); the
// availability half never does.
func TestChaosRecoveryGate(t *testing.T) {
	m, prompts := testRunner().ServingFixture()
	for _, tc := range []struct {
		fault FaultKind
		// check asserts the fault actually exercised the machinery it
		// was designed to exercise.
		check func(res *ChaosResult) error
	}{
		{FaultKill, func(res *ChaosResult) error {
			if res.Failovers < 1 {
				return fmt.Errorf("killed replica never triggered a failover")
			}
			if res.BreakerOpens < 1 {
				return fmt.Errorf("killed replica never tripped its breaker")
			}
			return nil
		}},
		{FaultWedge, func(res *ChaosResult) error {
			if res.Hedges < 1 || res.HedgeWins < 1 {
				return fmt.Errorf("wedged replica: hedges=%d wins=%d, want both >= 1 (nothing else unblocks a wedge)",
					res.Hedges, res.HedgeWins)
			}
			if res.BreakerOpens < 1 {
				return fmt.Errorf("wedge-timeout signal never tripped the breaker")
			}
			return nil
		}},
	} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			var lastErr error
			for attempt := 1; attempt <= 3; attempt++ {
				base, err := ChaosBench(m, prompts, FaultNone)
				if err != nil {
					t.Fatal(err)
				}
				requireAvailable(t, "baseline", base)
				res, err := ChaosBench(m, prompts, tc.fault)
				if err != nil {
					t.Fatal(err)
				}
				requireAvailable(t, tc.fault.String(), res)
				ratio := res.After.P99WallMS / base.After.P99WallMS
				t.Logf("attempt %d: fault=%s target=%s before/during/after p99 = %.2f/%.2f/%.2f ms, baseline after p99 = %.2f ms, recovery ratio = %.2f, hedges=%d wins=%d failovers=%d opens=%d",
					attempt, res.Fault, res.Target,
					res.Before.P99WallMS, res.During.P99WallMS, res.After.P99WallMS,
					base.After.P99WallMS, ratio,
					res.Hedges, res.HedgeWins, res.Failovers, res.BreakerOpens)
				switch {
				case tc.check(res) != nil:
					lastErr = tc.check(res)
				case ratio > chaosRecoveryRatio:
					lastErr = fmt.Errorf("after-phase p99 %.2fms is %.2fx the unfaulted %.2fms (gate %.1fx): fleet did not recover",
						res.After.P99WallMS, ratio, base.After.P99WallMS, chaosRecoveryRatio)
				default:
					return
				}
				t.Logf("attempt %d failed: %v", attempt, lastErr)
			}
			t.Fatal(lastErr)
		})
	}
}

// TestFaultPlaneKinds pins the plane's per-kind contract: kill fails
// fast, wedge blocks until the context dies or the fault heals, slow
// stalls then succeeds, error-rate fails deterministically on its
// modulus, and Heal restores every kind to healthy.
func TestFaultPlaneKinds(t *testing.T) {
	p := NewFaultPlane(2)
	hook := p.Hook(0)

	if err := hook(context.Background()); err != nil {
		t.Fatalf("healthy hook: %v", err)
	}

	p.Inject(0, FaultKill)
	if err := hook(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("kill: %v, want ErrInjected", err)
	}

	p.Inject(0, FaultWedge)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- hook(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("wedge returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("wedge after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("wedge did not honour ctx cancellation")
	}

	// Heal must release parked wedges too: a decode with no deadline of
	// its own would otherwise stay parked past the fault epoch, and
	// enough epochs would park every scheduler in the fleet.
	p.Inject(0, FaultWedge)
	done = make(chan error, 1)
	go func() { done <- hook(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("wedge returned before heal: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	p.Heal(0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healed wedge: %v, want nil (decode resumes)", err)
		}
	case <-time.After(time.Second):
		t.Fatal("heal did not release the parked wedge")
	}

	p.InjectSlow(0, 10*time.Millisecond)
	t0 := time.Now()
	if err := hook(context.Background()); err != nil {
		t.Fatalf("slow: %v", err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("slow stalled only %v, want >= 10ms", d)
	}

	p.InjectErrRate(0, 3)
	var errs int
	for i := 0; i < 9; i++ {
		if err := hook(context.Background()); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("error-rate: %v", err)
			}
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("error-rate every 3rd over 9 consults: %d errors, want 3", errs)
	}

	p.Heal(0)
	if err := hook(context.Background()); err != nil {
		t.Fatalf("healed hook: %v", err)
	}
	if got := p.Kind(1); got != FaultNone {
		t.Fatalf("untouched slot kind = %v, want none", got)
	}
}

// TestChaosChurnSoak is the chaos-soak tier (`make chaos-soak`, run
// under -race -shuffle=on in CI): while clients hammer a hedging,
// stealing, breaker-guarded fleet, the fault plane cycles every fault
// kind across the replicas — at most one replica faulted at a time, so
// protocol-level recovery is always possible — and every single
// request must still be answered within protocol.
func TestChaosChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	m, prompts := testRunner().ServingFixture()
	const replicas = 3
	plane := NewFaultPlane(replicas)
	specs := make([]cluster.ReplicaSpec, replicas)
	for i := range specs {
		specs[i] = cluster.ReplicaSpec{
			Model: m,
			Engine: serve.Config{
				Workers:   1,
				CacheSize: -1,
				StepFault: plane.Hook(i),
			},
		}
	}
	fleet, err := cluster.New(specs, cluster.Config{
		HedgeAfter:       20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		Steal:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		kinds := []FaultKind{FaultKill, FaultWedge, FaultSlow, FaultErrRate}
		for j := 0; ; j++ {
			target := j % replicas
			switch kinds[j%len(kinds)] {
			case FaultSlow:
				plane.InjectSlow(target, 3*time.Millisecond)
			case FaultErrRate:
				plane.InjectErrRate(target, 2)
			default:
				plane.Inject(target, kinds[j%len(kinds)])
			}
			select {
			case <-stop:
				plane.Heal(target)
				return
			case <-time.After(40 * time.Millisecond):
			}
			plane.Heal(target)
		}
	}()

	const clients, rounds = 6, 10
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				req := serve.Request{
					Prompt:  prompts[(c+k)%len(prompts)],
					Options: chaosOptions(int64(c*1000 + k)),
				}
				_, err := fleet.Generate(context.Background(), req)
				var shed *serve.ShedError
				if err != nil && !errors.As(err, &shed) {
					errCh <- fmt.Errorf("client %d round %d: %w", c, k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("non-shed client error under churn: %v", err)
	}
	fm := fleet.Metrics()
	t.Logf("churn counters: hedges=%d wins=%d failovers=%d steals=%d", fm.Hedges, fm.HedgeWins, fm.Failovers, fm.Steals)
}
