package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// This file is the resilient dispatch path between routing and the
// replica engines: hedged retries (race a second replica when the
// first is slow), failover (retry a sibling when a replica faults),
// and work stealing (idle replicas pull overflow from affinity
// hotspots). With hedging off and one replica it degenerates to a
// single engine call — the byte-identity guarantee rides on that.

// maxDispatchReplicas bounds how many distinct replicas one request
// may race concurrently across hedges and failovers;
// maxDispatchAttempts bounds total attempts including re-admissions of
// replicas whose earlier attempt concluded (a fault that migrates
// across the fleet can burn every distinct replica once without any
// replica being persistently bad — the re-admission budget is what
// lets such a request still land).
const (
	maxDispatchReplicas = 3
	maxDispatchAttempts = 2 * maxDispatchReplicas
)

// outcome is one attempt's result.
type outcome struct {
	resp *serve.Response
	err  error
	r    *Replica
	// span is the attempt's trace span (nil untraced); the dispatch
	// loop marks the winner on it. Attr writes stay safe after End.
	span *trace.Span
}

// Attempt roles, recorded on attempt spans so a flight-recorder entry
// names why each replica was tried.
const (
	rolePrimary  = "primary"
	roleHedge    = "hedge"
	roleFailover = "failover"
	roleSteal    = "steal"
)

// outcomeLabel classifies one attempt's result for its span.
func outcomeLabel(resp *serve.Response, err error) string {
	e := firstErr(resp, err)
	var shed *serve.ShedError
	switch {
	case e == nil:
		return "ok"
	case errors.As(e, &shed):
		return "shed"
	case errors.Is(e, serve.ErrQueueFull):
		return "queue_full"
	case errors.Is(e, context.Canceled), errors.Is(e, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(e, serve.ErrClosed):
		return "closed"
	default:
		return "fault"
	}
}

// sendTraced wraps send in an attempt span: replica, role and outcome
// attrs, with the span threaded into the engine's context so queue and
// decode spans nest under the attempt that caused them. Each attempt
// goroutine owns its span end-to-end — a hedged loser ends its span
// after the trace finished, which the recorder renders correctly.
func (f *Fleet) sendTraced(ctx context.Context, req serve.Request, r *Replica, wait bool, role string) (*serve.Response, error, *trace.Span) {
	var sp *trace.Span
	if tr := trace.FromContext(ctx); tr != nil {
		sp = tr.Start(trace.SpanFromContext(ctx), trace.KindAttempt, r.name)
		sp.SetAttr("replica", r.name)
		sp.SetAttr("role", role)
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	resp, err := f.send(ctx, req, r, wait)
	if sp != nil {
		sp.SetAttr("outcome", outcomeLabel(resp, err))
		if resp != nil && resp.Cached {
			sp.SetAttr("cached", "true")
		}
		sp.End()
	}
	return resp, err, sp
}

// send submits req to one replica's engine with its default-strategy
// substitution applied.
func (f *Fleet) send(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, error) {
	// The breaker's dispatch-side transition: a cooled-down open
	// circuit moves to half-open here and this request becomes its
	// probe. The return value is deliberately ignored — routing already
	// filtered on ready(), and when no sibling qualifies the fleet
	// serves through a tripped breaker rather than failing the client.
	r.breaker.allow()
	r.serving.Add(1)
	defer r.serving.Add(-1)
	eng := r.Engine()
	if wait {
		return eng.Generate(ctx, withDefaultStrategy(req, r))
	}
	return eng.TryGenerate(ctx, withDefaultStrategy(req, r))
}

// firstErr collapses the two error channels of an engine call: the
// submission error, else the decode error riding in the response.
func firstErr(resp *serve.Response, err error) error {
	if err != nil {
		return err
	}
	if resp != nil {
		return resp.Err
	}
	return nil
}

// neutralOutcome reports protocol outcomes that judge the traffic, not
// the replica: shed, backpressure, routing misses and cancellation
// (the client's or a hedge loser's).
func neutralOutcome(err error) bool {
	var shed *serve.ShedError
	if errors.As(err, &shed) {
		return true
	}
	return errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, serve.ErrClosed) ||
		errors.Is(err, serve.ErrUnknownModel) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// recordBreaker folds one attempt's outcome into the replica's
// circuit: success closes, replica faults count toward tripping,
// protocol outcomes only release a half-open probe.
func (f *Fleet) recordBreaker(r *Replica, resp *serve.Response, err error) {
	switch e := firstErr(resp, err); {
	case e == nil:
		r.breaker.onSuccess()
	case neutralOutcome(e):
		r.breaker.onNeutral()
	default:
		r.breaker.onFailure()
	}
}

// retryable reports whether an attempt's outcome warrants trying a
// sibling: replica faults and draining races, but never success, shed
// (the protocol answer), backpressure, or a dead client.
func retryable(resp *serve.Response, err error, ctx context.Context) bool {
	e := firstErr(resp, err)
	if e == nil || ctx.Err() != nil {
		return false
	}
	var shed *serve.ShedError
	if errors.As(e, &shed) {
		return false
	}
	if errors.Is(e, serve.ErrQueueFull) || errors.Is(e, serve.ErrUnknownModel) {
		return false
	}
	return true
}

// pickAlternate chooses a serveable sibling carrying the primary's
// model, by rendezvous order for the key — the consistent "second
// choice" every hedge and failover of this prompt family agrees on.
// Untried siblings come first, while fewer than maxDispatchReplicas
// have been tried; then any sibling with no attempt outstanding, which
// re-admits a replica whose earlier attempt concluded and whose breaker
// has readmitted it (when some attempt never concludes — a wedged
// replica holds its attempt until cancellation — that is the only way
// to answer a client with no deadline of its own). Nil when nothing
// qualifies. The attempt budgets are the callers'.
func (f *Fleet) pickAlternate(key string, primary *Replica, tried, outstanding map[string]bool) *Replica {
	cands, err := f.candidates(primary.modelName)
	if err != nil {
		return nil
	}
	pick := func(exclude map[string]bool) *Replica {
		pool := make([]*Replica, 0, len(cands))
		for _, r := range cands {
			if !exclude[r.name] && r.serveable() {
				pool = append(pool, r)
			}
		}
		if len(pool) == 0 {
			return nil
		}
		return f.router.Pick(key, pool)
	}
	if len(tried) < maxDispatchReplicas {
		if r := pick(tried); r != nil {
			return r
		}
	}
	return pick(outstanding)
}

// exhausted converts a spent retry budget into the documented shed
// protocol: the fleet currently cannot serve this request, retry after
// a breaker cooldown. Only multi-replica fleets speak it — a lone
// replica forwards its engine's own answer untouched (the pre-fleet
// contract). The cause rides in the reason so operators see what the
// retries died on.
func (f *Fleet) exhausted(primary *Replica, err error) error {
	if cands, cerr := f.candidates(primary.modelName); cerr != nil || len(cands) < 2 {
		return err
	}
	return &serve.ShedError{
		Policy:     "fleet",
		Reason:     fmt.Sprintf("retry budget exhausted across replicas: %v", err),
		RetryAfter: primary.breaker.cooldown,
	}
}

// streamGuard wraps a streamed request's OnStep so dispatch can tell
// whether any step has reached the client; nil for unstreamed
// requests, which keeps their path free of the allocation.
func streamGuard(req *serve.Request) *atomic.Bool {
	if req.OnStep == nil {
		return nil
	}
	streamed := new(atomic.Bool)
	onStep := req.OnStep
	req.OnStep = func(ev core.StepEvent) {
		streamed.Store(true)
		onStep(ev)
	}
	return streamed
}

// dispatch runs one routed request with hedging and failover. It
// reports the winning response and the replica that produced it; role
// names the first attempt on its span (primary, or steal when a
// stealer serves work routed elsewhere). The primary's inflight
// counter is owned by the caller (route incremented it); alternates
// are accounted here.
//
// A streamed request is never hedged — two attempts would stream the
// same steps twice, and a loser could still call OnStep after the
// winner returned — and fails over only while none of its steps has
// reached the client. A fault after that is returned as-is, so the
// stream ends with its error line instead of restarting.
func (f *Fleet) dispatch(ctx context.Context, req serve.Request, primary *Replica, wait bool, role string) (*serve.Response, *Replica, error) {
	key := affinityKey(req.Prompt)
	tried := map[string]bool{primary.name: true}
	streamed := streamGuard(&req)

	if f.cfg.HedgeAfter <= 0 || streamed != nil {
		// Inline path: no goroutines, no timers. A lone replica sees
		// exactly one engine call — byte-identical to pre-fleet.
		resp, err, sp := f.sendTraced(ctx, req, primary, wait, role)
		f.recordBreaker(primary, resp, err)
		served := primary
		attempts := 1
		for retryable(resp, err, ctx) {
			if streamed != nil && streamed.Load() {
				return resp, served, err
			}
			var alt *Replica
			if attempts < maxDispatchAttempts {
				// Every attempt here has concluded: nothing is outstanding.
				alt = f.pickAlternate(key, primary, tried, nil)
			}
			if alt == nil {
				return resp, served, f.exhausted(primary, err)
			}
			tried[alt.name] = true
			attempts++
			f.elastic.failovers.Add(1)
			alt.inflight.Add(1)
			resp, err, sp = f.sendTraced(ctx, req, alt, wait, roleFailover)
			alt.inflight.Add(-1)
			f.recordBreaker(alt, resp, err)
			served = alt
		}
		sp.SetAttr("won", "true")
		return resp, served, err
	}

	// Hedged path: race attempts under one cancellable context; the
	// first conclusive outcome wins and cancels the rest.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, maxDispatchReplicas+1)
	launch := func(r *Replica, counted bool, role string) {
		go func() {
			if counted {
				r.inflight.Add(1)
				defer r.inflight.Add(-1)
			}
			resp, err, sp := f.sendTraced(actx, req, r, wait, role)
			f.recordBreaker(r, resp, err)
			ch <- outcome{resp, err, r, sp}
		}()
	}
	launch(primary, false, role)
	pending := 1
	attempts := 1
	primaryDone := false
	outstanding := map[string]bool{primary.name: true}
	hedgeLaunched := map[string]bool{}
	// next launches an alternate as a hedge or a failover, if one
	// qualifies.
	next := func(role string) bool {
		alt := f.pickAlternate(key, primary, tried, outstanding)
		if alt == nil {
			return false
		}
		tried[alt.name] = true
		outstanding[alt.name] = true
		attempts++
		pending++
		if role == roleHedge {
			hedgeLaunched[alt.name] = true
			f.elastic.hedges.Add(1)
		} else {
			f.elastic.failovers.Add(1)
		}
		launch(alt, true, role)
		return true
	}
	timer := time.NewTimer(f.cfg.HedgeAfter)
	defer timer.Stop()
	for {
		select {
		case o := <-ch:
			pending--
			delete(outstanding, o.r.name)
			if o.r == primary {
				primaryDone = true
			}
			if !retryable(o.resp, o.err, ctx) {
				o.span.SetAttr("won", "true")
				if o.r != primary && hedgeLaunched[o.r.name] {
					f.elastic.hedgeWins.Add(1)
				}
				if o.r != primary && !primaryDone {
					// An alternate answered while the primary still
					// hasn't: the wedge-timeout signal. The primary's
					// own attempt will resolve as a neutral
					// cancellation once actx dies, so this is its only
					// failure record.
					primary.breaker.onFailure()
				}
				return o.resp, o.r, o.err
			}
			if pending > 0 {
				continue // the other attempts may still win
			}
			// Every attempt in flight has faulted: fail over now
			// rather than waiting for the hedge timer. A spent budget
			// (or an empty pool) is the protocol answer, not the raw
			// fault.
			if attempts >= maxDispatchAttempts || !next(roleFailover) {
				return o.resp, o.r, f.exhausted(primary, o.err)
			}
		case <-timer.C:
			// Each firing may race one more replica, bounded by the
			// outstanding-attempt and total-attempt budgets. The timer
			// always rearms: a no-candidate moment (every sibling's
			// breaker open) can resolve one cooldown later, and without
			// the rearm a wedged primary would pin this request forever.
			if len(outstanding) < maxDispatchReplicas && attempts < maxDispatchAttempts {
				next(roleHedge)
			}
			timer.Reset(f.cfg.HedgeAfter)
		case <-ctx.Done():
			// Client gone: abandon the race (attempts unwind via actx
			// into the buffered channel).
			return nil, primary, ctx.Err()
		}
	}
}

// --- work stealing ---

// stealQueueCap bounds the fleet-wide overflow queue; a full queue
// falls back to direct dispatch on the routed replica.
const stealQueueCap = 64

// stealJob is one routed request parked on the fleet-wide queue for
// whichever replica frees up first (possibly the routed one itself).
type stealJob struct {
	ctx    context.Context
	req    serve.Request
	routed *Replica // the affinity choice, for steal accounting
	wait   bool
	// claimed guarantees exactly-once service between stealers and the
	// submitter's fallback paths.
	claimed atomic.Bool
	done    chan outcome
}

func (j *stealJob) claim() bool { return j.claimed.CompareAndSwap(false, true) }

// stealThreshold is the routed replica's backlog above which a request
// is offered to the steal queue instead of pinned to affinity.
func stealThreshold(r *Replica) int {
	w := r.Engine().Workers()
	if w < 1 {
		w = 1
	}
	return 2 * w
}

// stealCapacity is the load below which an idle replica pulls stolen
// work.
func stealCapacity(r *Replica) int {
	w := r.Engine().Workers()
	if w < 1 {
		w = 1
	}
	return w
}

// serveRouted runs a routed request: steal-queue diversion when the
// routed replica is backlogged and stealing is on, otherwise (and as
// the fallback) hedged dispatch.
func (f *Fleet) serveRouted(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, *Replica, error) {
	if f.stealq == nil || r.load() <= stealThreshold(r) {
		return f.dispatch(ctx, req, r, wait, rolePrimary)
	}
	job := &stealJob{ctx: ctx, req: req, routed: r, wait: wait, done: make(chan outcome, 1)}
	select {
	case f.stealq <- job:
	default:
		// Overflow queue full: the fleet is saturated everywhere,
		// queue on the routed replica as usual.
		return f.dispatch(ctx, req, r, wait, rolePrimary)
	}
	select {
	case o := <-job.done:
		return o.resp, o.r, o.err
	case <-ctx.Done():
		if job.claim() {
			return nil, r, ctx.Err()
		}
		o := <-job.done // a stealer won the claim; its answer is coming
		return o.resp, o.r, o.err
	case <-f.quit:
		if job.claim() {
			return f.dispatch(ctx, req, r, wait, rolePrimary)
		}
		o := <-job.done
		return o.resp, o.r, o.err
	}
}

// startStealer launches one replica's steal loop (caller must hold no
// locks that Close waits on).
func (f *Fleet) startStealer(r *Replica) {
	f.wg.Add(1)
	go f.stealer(r)
}

// stealer pulls overflow work whenever its replica has spare capacity.
// The poll tick bounds how stale the capacity check can be; the claim
// CAS keeps service exactly-once against the submitter's fallbacks.
func (f *Fleet) stealer(r *Replica) {
	defer f.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-f.quit:
			return
		default:
		}
		// Capacity is engine-local (queued + actually submitted), not
		// the fleet-level inflight — jobs parked on the steal queue
		// count against their routed replica's inflight and would
		// otherwise starve its own stealer forever.
		busy := r.Engine().QueueDepth() + int(r.serving.Load())
		if !r.serveable() || busy >= stealCapacity(r) {
			select {
			case <-f.quit:
				return
			case <-tick.C:
			}
			continue
		}
		select {
		case <-f.quit:
			return
		case job := <-f.stealq:
			if !job.claim() {
				continue
			}
			role := rolePrimary
			if r != job.routed {
				role = roleSteal
			}
			r.inflight.Add(1)
			resp, served, err := f.dispatch(job.ctx, job.req, r, job.wait, role)
			r.inflight.Add(-1)
			if served != job.routed {
				f.elastic.steals.Add(1)
				served.stolen.Add(1)
			}
			job.done <- outcome{resp, err, served, nil}
		case <-tick.C:
		}
	}
}
