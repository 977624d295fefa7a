package cluster

import (
	"context"
	"errors"

	"repro/internal/serve"
	"repro/internal/trace"
)

// This file is the path between routing and the replica engines: one
// attempt per request, submitted to the routed replica's engine. The
// request joins its model group's shared queue there, and whichever
// member admits it first decodes it — the routed replica, or an idle
// sibling that steals it. A failed attempt is not retried elsewhere
// (the package comment says why): its error comes back to the client
// as itself.

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

// send submits req to the routed replica r's engine inside an attempt
// span (replica, role and outcome attrs, with the span threaded into
// the engine's context so queue and decode spans nest under it), then
// credits the replica that answered: a decode admitted by a sibling is
// a steal, and the response names the replica that decoded it, or r
// when its LRU answered.
func (f *Fleet) send(ctx context.Context, req serve.Request, r *Replica, wait bool) (*serve.Response, error) {
	var sp *trace.Span
	if tr := trace.FromContext(ctx); tr != nil {
		sp = tr.Start(trace.SpanFromContext(ctx), trace.KindAttempt, r.name)
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	var resp *serve.Response
	var err error
	if wait {
		resp, err = r.eng.Generate(ctx, req)
	} else {
		resp, err = r.eng.TryGenerate(ctx, req)
	}
	served, role := r, rolePrimary
	if resp != nil {
		if served = f.byEngine[resp.Engine]; served != r {
			role = roleSteal
			f.steals.Add(1)
			served.stolen.Add(1)
		}
		resp.Replica = served.name
	}
	if sp != nil {
		sp.SetAttr("replica", served.name)
		sp.SetAttr("role", role)
		sp.SetAttr("outcome", outcomeLabel(resp, err))
		if resp != nil && resp.Cached {
			sp.SetAttr("cached", "true")
		}
		sp.End()
	}
	return resp, err
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
