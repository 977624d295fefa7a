package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// This file is the continuous scheduler. One goroutine owns the batch
// membership; each iteration it
//
//  1. admits queued requests, in arrival order, into free batch slots
//     (up to MaxBatch),
//  2. runs one verification sweep — every running decode advances
//     exactly one core.DecodeState.Step, parallelized across up to
//     Workers goroutines (on real hardware this is the single batched
//     tree-verification forward pass over all in-flight requests), and
//  3. retires finished decodes (their slots free immediately).
//
// Requests therefore join and leave the running batch at every
// verification step. A decode holds its slot from admission to
// retirement; when every slot is held, a queued request waits for the
// next retirement. Admission and retirement fall only between sweeps,
// which the step-wise decode loop makes output-invariant, so
// scheduling never changes bytes.

// schedTask is one decode's residency in the continuous scheduler.
type schedTask struct {
	t     *task
	label string
	// st is the resumable decode, created lazily on the task's first
	// sweep so session preparation parallelizes across the sweep
	// goroutines instead of serializing in the admission loop.
	st *core.DecodeState
	// beginErr is a terminal pre-decode outcome: the task's context
	// was already dead, or its options named an unknown strategy.
	beginErr error
	// faultErr is a mid-decode abort injected by Config.StepFault: the
	// decode is abandoned, not finished.
	faultErr error
	// done latches Step reporting completion (set from sweep workers,
	// read by the scheduler after the sweep barrier).
	done bool
	// wall accumulates this decode's own step time — busy time, not
	// residency: the decode shares the engine with the whole batch.
	wall time.Duration
}

// scheduler is the continuous dispatch loop. It exits once quit is
// closed and every queued and running decode has been retired (Close
// drains).
func (e *Engine) scheduler() {
	defer e.wg.Done()
	dec := core.NewDecoder(e.m).WithSessionCache(e.sessions)
	var running, retired []*schedTask
	quitting := false

	admit := func(t *task) {
		wait := time.Since(t.enqueued)
		t.wait = wait
		t.pickedUp()
		e.st.queueWait(wait)
		running = append(running, &schedTask{t: t, label: t.req.Options.StrategyLabel()})
	}

	for {
		if !quitting {
			select {
			case <-e.quit:
				quitting = true
			default:
			}
		}
	fill:
		for len(running) < e.cfg.MaxBatch {
			select {
			case t := <-e.queue:
				admit(t)
			default:
				break fill
			}
		}
		if len(running) == 0 {
			// Nothing runnable: block for work, or finish the drain.
			e.st.schedRunning(0)
			if quitting {
				select {
				case t := <-e.queue:
					admit(t)
					continue
				default:
					return
				}
			}
			select {
			case t := <-e.queue:
				admit(t)
			case <-e.quit:
				quitting = true
			}
			continue
		}
		e.st.schedRunning(len(running))

		e.sweep(dec, running)

		keep := running[:0]
		retired = retired[:0]
		for _, x := range running {
			if x.done {
				retired = append(retired, x)
			} else {
				keep = append(keep, x)
			}
		}
		for i := len(keep); i < len(running); i++ {
			running[i] = nil
		}
		running = keep
		// Publish the post-sweep gauge BEFORE delivering retired
		// responses: a client acting on its response (scraping metrics,
		// submitting a follow-up) must never observe its own finished
		// decode still occupying a batch slot.
		e.st.schedRunning(len(running))
		for i, x := range retired {
			e.retire(x)
			retired[i] = nil
		}

		// The sweep boundary is the scheduler's only guaranteed
		// scheduling point: with Workers <= 1 the sweep runs inline as
		// pure computation, and on GOMAXPROCS=1 a client whose response
		// was just delivered would otherwise wait for the runtime's
		// asynchronous preemption (tens of milliseconds) before it could
		// observe it. Yield once per sweep so retired requests return to
		// their callers with sweep-granularity latency, not preemption-
		// granularity.
		runtime.Gosched()
	}
}

// sweep advances every running decode one verification step,
// fanned out over up to Workers goroutines. The barrier at the end is
// the step boundary: admission and retirement happen against a
// quiesced batch.
func (e *Engine) sweep(dec *core.Decoder, running []*schedTask) {
	e.st.sweep(len(running))
	if len(running) == 1 || e.cfg.Workers <= 1 {
		for _, x := range running {
			x.done = e.stepOne(dec, x)
		}
		return
	}
	workers := e.cfg.Workers
	if workers > len(running) {
		workers = len(running)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(running) {
					return
				}
				x := running[i]
				x.done = e.stepOne(dec, x)
			}
		}()
	}
	wg.Wait()
}

// stepOne advances one decode by one step, lazily beginning it on its
// first sweep. Reports whether the decode is finished.
func (e *Engine) stepOne(dec *core.Decoder, x *schedTask) bool {
	start := time.Now()
	defer func() { x.wall += time.Since(start) }()
	if x.st == nil {
		if err := x.t.ctx.Err(); err != nil {
			// Dead before its first step (cancelled while queued): no
			// decode state to build, retire carries the context error.
			x.beginErr = err
			return true
		}
		st, err := dec.BeginDecode(x.t.ctx, x.t.promptIDs, x.t.req.Options, x.t.req.OnStep)
		if err != nil {
			x.beginErr = err
			return true
		}
		x.st = st
	}
	if e.cfg.StepFault != nil {
		// Fault-injection plane: consulted every sweep so a fault
		// (crash, wedge, slowdown) lands mid-decode, where real replica
		// failures land. A wedging hook blocks the sweep worker here,
		// exactly like a hung forward pass would.
		if err := e.cfg.StepFault(x.t.ctx); err != nil {
			x.faultErr = err
			return true
		}
	}
	return x.st.Step()
}

// retire finalizes a finished decode and delivers its Response to the
// submitting caller. A decode that ended in an error is counted
// canceled when the error is its context's and failed otherwise, and
// answered with what it produced: the partial Result of a finished
// decode, an empty one when it never began or was abandoned.
func (e *Engine) retire(x *schedTask) {
	var res *core.Result
	var err error
	switch {
	case x.st == nil:
		// Never began: cancelled while queued, or an unknown strategy.
		res, err = &core.Result{}, x.beginErr
	case x.faultErr != nil:
		// Injected fault mid-decode: the state is abandoned, not
		// finished; only its span needs closing.
		if sp := x.st.TraceSpan(); sp != nil {
			sp.SetAttr("error", x.faultErr.Error())
			sp.End()
		}
		res, err = &core.Result{}, x.faultErr
	default:
		res, err = x.st.Finish()
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.st.count(&e.st.m.Canceled)
	case err != nil:
		e.st.count(&e.st.m.Failed)
	default:
		if e.cache != nil && x.t.req.OnStep == nil {
			e.cache.add(x.t.key, res)
		}
		e.st.complete(x.label, res, x.wall)
	}
	x.t.done <- &Response{Result: res, Err: err, Wall: x.wall, Strategy: x.label, QueueWait: x.t.wait}
}
