package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// This file is the path between routing and the replica engines: one
// attempt per request, on the routed replica or on an idle sibling that
// stole it from its group's overflow queue. A failed attempt is not
// retried elsewhere (the package comment says why): its error comes
// back to the client as itself. A replica alone in its group has no
// queue, so its path is a single engine call — the byte-identity
// guarantee rides on that.

// outcome is one attempt's result.
type outcome struct {
	resp *serve.Response
	err  error
	r    *Replica
}

// Attempt roles, recorded on attempt spans: the routed replica served
// the request, or a sibling stole it.
const (
	rolePrimary = "primary"
	roleSteal   = "steal"
)

// outcomeLabel classifies one attempt's result for its span.
func outcomeLabel(resp *serve.Response, err error) string {
	e := firstErr(resp, err)
	switch {
	case e == nil:
		return "ok"
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
// decode spans nest under the attempt that caused them.
func (f *Fleet) sendTraced(ctx context.Context, req serve.Request, r *Replica, wait bool, role string) (*serve.Response, error) {
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
	return resp, err
}

// send submits req to one replica's engine.
func (f *Fleet) send(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, error) {
	r.serving.Add(1)
	defer r.serving.Add(-1)
	eng := r.Engine()
	if wait {
		return eng.Generate(ctx, req)
	}
	return eng.TryGenerate(ctx, req)
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

// --- work stealing ---

// stealQueueCap bounds a group's overflow queue; a full queue falls
// back to direct dispatch on the routed replica.
const stealQueueCap = 64

// stealJob is one routed request parked on its group's queue for
// whichever member frees up first (possibly the routed one itself).
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

// serveRouted runs a routed request: diversion to its group's steal
// queue when the routed replica is backlogged, otherwise (and as the
// fallback) one attempt on the routed replica.
func (f *Fleet) serveRouted(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, *Replica, error) {
	direct := func() (*serve.Response, *Replica, error) {
		resp, err := f.sendTraced(ctx, req, r, wait, rolePrimary)
		return resp, r, err
	}
	if r.stealq == nil || r.load() <= stealThreshold(r) {
		return direct()
	}
	job := &stealJob{ctx: ctx, req: req, routed: r, wait: wait, done: make(chan outcome, 1)}
	select {
	case r.stealq <- job:
	default:
		// Overflow queue full: the group is saturated everywhere,
		// queue on the routed replica as usual.
		return direct()
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
			return direct()
		}
		o := <-job.done
		return o.resp, o.r, o.err
	}
}

// stealer pulls its group's overflow work whenever its replica has
// spare capacity. The poll tick bounds how stale the capacity check can
// be; the claim CAS keeps service exactly-once against the submitter's
// fallbacks.
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
		if busy >= stealCapacity(r) {
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
		case job := <-r.stealq:
			if job.claim() {
				job.done <- f.serveStolen(r, job)
			}
		case <-tick.C:
		}
	}
}

// serveStolen runs a claimed job on the stealing replica r, which may
// be the routed replica itself.
func (f *Fleet) serveStolen(r *Replica, job *stealJob) outcome {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	role := rolePrimary
	if r != job.routed {
		role = roleSteal
	}
	resp, err := f.sendTraced(job.ctx, job.req, r, job.wait, role)
	if r != job.routed {
		f.steals.Add(1)
		r.stolen.Add(1)
	}
	return outcome{resp, err, r}
}
