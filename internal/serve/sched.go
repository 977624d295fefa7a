package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// This file is the continuous scheduler. One goroutine owns the batch
// membership; each iteration it
//
//  1. admits queued requests and resumes parked decodes into free
//     batch slots (up to MaxBatch), alternating between the two
//     sources so neither starves,
//  2. runs one verification sweep — every running decode advances
//     exactly one core.DecodeState.Step, parallelized across up to
//     Workers goroutines (on real hardware this is the single batched
//     tree-verification forward pass over all in-flight requests),
//  3. retires finished decodes (their slots free immediately), and
//  4. preempts decodes that have held a slot for PreemptQuantum
//     sweeps while other work is waiting: the decode parks with its
//     session pages pinned (core.DecodeState.Park) and re-enters
//     round-robin.
//
// Requests therefore join and leave the running batch at every
// verification step, and a long decode can never serialize short
// requests behind it for more than a quantum. Preemption checkpoints
// fall only between sweeps, which the step-wise decode loop makes
// output-invariant, so scheduling never changes bytes.

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
	// faultErr is a mid-decode abort injected by Config.StepFault (the
	// chaos plane): the decode has live state that must be dropped, not
	// finished.
	faultErr error
	// done latches Step reporting completion (set from sweep workers,
	// read by the scheduler after the sweep barrier).
	done bool
	// wall accumulates this decode's own step time — busy time, not
	// residency: the decode shares the engine with the whole batch.
	wall time.Duration
	// residency counts sweeps since admission or last resume — the
	// preemption clock.
	residency int
	// park is the open preemption span while the decode sits parked
	// (nil untraced or running); parks counts preemptions for the
	// decode span's attrs.
	park  *trace.Span
	parks int
}

// scheduler is the continuous dispatch loop. It exits once quit is
// closed and every queued, running and parked decode has been retired
// (Close drains).
func (e *Engine) scheduler() {
	defer e.wg.Done()
	dec := core.NewDecoder(e.m).WithSessionCache(e.sessions)
	var running, parked, retired []*schedTask
	quitting := false
	fromParked := false

	admit := func(t *task) {
		wait := time.Since(t.enqueued)
		t.wait = wait
		t.pickedUp()
		e.st.queueWait(wait)
		if e.ctrl != nil {
			e.ctrl.ObserveQueueWait(wait.Seconds() * 1000)
		}
		running = append(running, &schedTask{t: t, label: t.req.Options.StrategyLabel()})
	}
	resume := func() {
		x := parked[0]
		parked = parked[1:]
		x.residency = 0
		x.st.Resume()
		x.park.End()
		x.park = nil
		e.st.count(&e.st.m.Resumes)
		running = append(running, x)
	}
	// admitOne fills one free slot, alternating between the queue and
	// the parked set when both have work so sustained arrivals cannot
	// starve parked decodes (or vice versa). Reports whether a slot
	// was filled.
	admitOne := func() bool {
		tryQueue := func() bool {
			select {
			case t := <-e.queue:
				admit(t)
				return true
			default:
				return false
			}
		}
		if fromParked && len(parked) > 0 {
			fromParked = false
			resume()
			return true
		}
		if tryQueue() {
			fromParked = len(parked) > 0
			return true
		}
		if len(parked) > 0 {
			resume()
			return true
		}
		return false
	}

	for {
		if !quitting {
			select {
			case <-e.quit:
				quitting = true
			default:
			}
		}
		for len(running) < e.cfg.MaxBatch && admitOne() {
		}
		if len(running) == 0 {
			// Nothing runnable (parked is empty too, or admitOne would
			// have resumed): block for work, or finish the drain.
			e.st.schedGauges(0, len(parked))
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
		e.st.schedGauges(len(running), len(parked))
		e.observeSweep(len(running), len(parked))

		e.sweep(dec, running)

		// Retire finished decodes; preempt over-quantum residents when
		// other work is waiting for a slot.
		waiters := len(e.queue) > 0 || len(parked) > 0
		keep := running[:0]
		retired = retired[:0]
		for _, x := range running {
			switch {
			case x.done:
				retired = append(retired, x)
			case waiters && e.cfg.PreemptQuantum > 0 && x.residency >= e.cfg.PreemptQuantum:
				x.st.Park()
				x.parks++
				if tr := trace.FromContext(x.t.ctx); tr != nil {
					x.park = tr.Start(x.st.TraceSpan(), trace.KindPark, "")
					x.park.SetAttrInt("residency", int64(x.residency))
				}
				e.st.count(&e.st.m.Preemptions)
				parked = append(parked, x)
			default:
				keep = append(keep, x)
			}
		}
		for i := len(keep); i < len(running); i++ {
			running[i] = nil
		}
		running = keep
		// Publish the post-sweep gauges BEFORE delivering retired
		// responses: a client acting on its response (scraping metrics,
		// submitting a follow-up) must never observe its own finished
		// decode still occupying a batch slot.
		e.st.schedGauges(len(running), len(parked))
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
// the step boundary: admission, retirement and preemption all happen
// against a quiesced batch.
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
	x.residency++
	return x.st.Step()
}

// retire finalizes a finished decode and delivers its Response — to
// the submitting caller and, when the task leads a single-flight, to
// every follower sharing it.
func (e *Engine) retire(x *schedTask) {
	if x.st == nil {
		// Never began: cancelled while queued, or an unknown strategy.
		if errors.Is(x.beginErr, context.Canceled) || errors.Is(x.beginErr, context.DeadlineExceeded) {
			e.st.count(&e.st.m.Canceled)
			e.finish(x.t, &Response{Err: x.beginErr, Strategy: x.label, QueueWait: x.t.wait})
			return
		}
		e.st.count(&e.st.m.Failed)
		e.finish(x.t, &Response{Result: &core.Result{}, Err: x.beginErr, Wall: x.wall, Strategy: x.label, QueueWait: x.t.wait})
		return
	}
	if sp := x.st.TraceSpan(); sp != nil && x.parks > 0 {
		sp.SetAttrInt("parks", int64(x.parks))
	}
	if x.faultErr != nil {
		// Injected fault mid-decode: the state is abandoned, not
		// finished — Drop releases its pinned session pages.
		x.st.Drop()
		if sp := x.st.TraceSpan(); sp != nil {
			sp.SetAttr("error", x.faultErr.Error())
			sp.End()
		}
		if errors.Is(x.faultErr, context.Canceled) || errors.Is(x.faultErr, context.DeadlineExceeded) {
			e.st.count(&e.st.m.Canceled)
		} else {
			e.st.count(&e.st.m.Failed)
		}
		e.finish(x.t, &Response{Result: &core.Result{}, Err: x.faultErr, Wall: x.wall, Strategy: x.label, QueueWait: x.t.wait})
		return
	}
	res, err := x.st.Finish()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.st.count(&e.st.m.Canceled)
		} else {
			e.st.count(&e.st.m.Failed)
		}
		e.finish(x.t, &Response{Result: res, Err: err, Wall: x.wall, Strategy: x.label, QueueWait: x.t.wait})
		return
	}
	if e.cache != nil && x.t.req.OnStep == nil {
		e.cache.add(x.t.key, res)
	}
	e.st.complete(x.label, res, x.wall)
	e.observeResult(x.t.req, x.label, res)
	e.finish(x.t, &Response{Result: res, Wall: x.wall, Strategy: x.label, QueueWait: x.t.wait})
}

// observeSweep is the scheduler's per-sweep consultation of the
// speculation controller: batch occupancy (running over batch slots)
// and queue pressure (queued + parked over queue capacity) drive the
// load-degradation ladder.
func (e *Engine) observeSweep(running, parked int) {
	if e.ctrl == nil {
		return
	}
	occ := float64(running) / float64(e.cfg.MaxBatch)
	q := float64(len(e.queue)+parked) / float64(cap(e.queue))
	e.ctrl.ObserveSweep(occ, q)
}
