package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// This file is the continuous scheduler. NewEngine starts Workers
// persistent worker goroutines; Close joins them. Resident decodes —
// the ones holding a batch slot, at most MaxBatch — wait their turn in
// one FIFO ready ring. At each step boundary a worker admits queued
// requests into free slots (first in first out, at the ring's tail),
// puts the decode it just stepped back at the tail, or retires it if it
// finished, and takes the ring's head for its next step.
//
// There is no batch-wide barrier: a decode is re-queued the moment its
// own step ends, so one slow step does not idle the other workers.
// While other decodes wait in the ring, FIFO order is the round: the
// head has waited behind every decode re-queued before it. A decode
// alone in the ring has no round — its worker would step it again and
// again beside the others' running steps — so it is paced instead: it
// does not start a step while a step that began before its own last
// one is still running. The worker waits rather than lap, which on an
// oversubscribed host hands its core to the slower step's thread; that
// is what keeps a short request beside a long cheap-step decode fast.
// A step that has run longer than stuckStep no longer paces anyone, so
// a wedged decode costs its own worker only.
//
// A decode holds its slot from admission to retirement, is stepped by
// one goroutine at a time, and the step-wise decode loop makes where
// its steps run output-invariant, so scheduling never changes bytes.

// stuckStep is how long a step may run before the others stop pacing
// themselves on it: long enough to cover a healthy step, short enough
// that a wedged one costs the rest of the batch little.
const stuckStep = 10 * time.Millisecond

// schedTask is one decode's residency in the continuous scheduler.
type schedTask struct {
	t     *task
	label string
	// st is the resumable decode, created lazily on the task's first
	// step so session preparation runs on the workers instead of
	// serializing at admission.
	st *core.DecodeState
	// beginErr is a terminal pre-decode outcome: the task's context
	// was already dead, or its options named an unknown strategy.
	beginErr error
	// faultErr is a mid-decode abort — an error from Config.StepFault
	// or a panic recovered from the step: the decode is abandoned, not
	// finished.
	faultErr error
	// wall accumulates this decode's own step time — busy time, not
	// residency: the decode shares the engine with the whole batch.
	wall time.Duration
	// step numbers the decode's latest step (0 before its first).
	step uint64
}

// sched is the scheduler state the workers share.
type sched struct {
	mu sync.Mutex
	// ready is the FIFO of resident decodes no worker holds; resident
	// counts every decode holding a slot, ready or being stepped.
	ready    readyRing
	resident int
	// steps numbers the steps handed out; stepping[w] is the step
	// worker w is running, the zero value when it runs none.
	steps    uint64
	stepping []inflight
	// wake (buffered, 1) rouses one idle worker: sent after an enqueue
	// and whenever a worker leaves work behind in the ring or exits.
	wake chan struct{}
}

// inflight is a running step: its number and when it began.
type inflight struct {
	step  uint64
	start time.Time
}

// readyRing is a fixed-capacity FIFO of decodes; its capacity is
// MaxBatch, which bounds the resident decodes it can ever hold.
type readyRing struct {
	buf     []*schedTask
	head, n int
}

func (r *readyRing) push(x *schedTask) {
	r.buf[(r.head+r.n)%len(r.buf)] = x
	r.n++
}

func (r *readyRing) pop() *schedTask {
	x := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return x
}

// kick rouses one idle worker, if none is already due to wake.
func (e *Engine) kick() {
	select {
	case e.sc.wake <- struct{}{}:
	default:
	}
}

// worker w steps decodes until Close has drained the engine.
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	dec := core.NewDecoder(e.m).WithSessionCache(e.sessions)
	paced := time.NewTimer(time.Hour)
	paced.Stop()
	var x *schedTask
	for {
		if x = e.next(w, x, paced); x == nil {
			return
		}
		if e.stepOne(dec, x) {
			e.release(w)
			e.retire(x)
			x = nil
		}
		// The step boundary is the worker's one guaranteed scheduling
		// point: a step is pure computation, and on GOMAXPROCS=1 a
		// client whose response was just delivered (or who is waiting
		// to enqueue) would otherwise wait for the runtime's
		// asynchronous preemption (tens of milliseconds). Yield once
		// per step so requests move with step-granularity latency, not
		// preemption-granularity.
		runtime.Gosched()
	}
}

// next is worker w's step boundary. x is the unfinished decode it just
// stepped (nil when it holds none): next admits queued requests, puts x
// at the ring's tail and hands out the head — at once when other
// decodes wait behind it, else once it no longer laps a running step.
// An idle or pacing worker blocks here (on paced, while it waits for a
// running step to reach stuckStep); next returns nil once Close has
// been called and nothing is queued or resident.
func (e *Engine) next(w int, x *schedTask, paced *time.Timer) *schedTask {
	s := &e.sc
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepping[w] = inflight{}
	for {
		e.admit()
		if x != nil {
			s.ready.push(x)
			x = nil
		}
		var until time.Time
		if s.ready.n > 0 {
			now := time.Now()
			if s.ready.n == 1 {
				until = s.lapsUntil(s.ready.buf[s.ready.head], now)
			}
			if until.IsZero() {
				x = s.ready.pop()
				s.steps++
				x.step = s.steps
				s.stepping[w] = inflight{step: s.steps, start: now}
				if s.ready.n > 0 {
					e.kick()
				}
				e.st.sweep(s.resident)
				return x
			}
			paced.Reset(until.Sub(now))
		}
		quit := e.quit
		select {
		case <-e.quit:
			if s.resident == 0 && len(e.queue) == 0 {
				// Drained: nothing can be enqueued after Close. Pass
				// the news on to the next idle worker.
				e.kick()
				return nil
			}
			quit = nil // wait for the resident decodes instead
		default:
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-quit:
		case <-paced.C:
		}
		paced.Stop()
		s.mu.Lock()
	}
}

// lapsUntil reports whether stepping x now would lap a running step —
// one that began before x's last step and has not yet run stuckStep —
// as the time the last such step reaches stuckStep, or the zero time
// when x may step. Called with e.sc.mu held.
func (s *sched) lapsUntil(x *schedTask, now time.Time) time.Time {
	var until time.Time
	for _, r := range s.stepping {
		if r.step == 0 || r.step >= x.step {
			continue
		}
		if t := r.start.Add(stuckStep); t.After(now) && t.After(until) {
			until = t
		}
	}
	return until
}

// admit moves queued requests, in arrival order, into free batch slots
// at the ring's tail. Called with e.sc.mu held.
func (e *Engine) admit() {
	s := &e.sc
	for s.resident < e.cfg.MaxBatch {
		var t *task
		select {
		case t = <-e.queue:
		default:
			return
		}
		t.wait = time.Since(t.enqueued)
		t.pickedUp()
		e.st.queueWait(t.wait)
		s.resident++
		s.ready.push(&schedTask{t: t, label: t.req.Options.StrategyLabel()})
		e.st.schedRunning(s.resident)
	}
}

// release frees a finished decode's slot. It runs BEFORE retire
// delivers the response: a client acting on its response (scraping
// metrics, submitting a follow-up) must never observe its own finished
// decode still occupying a batch slot.
func (e *Engine) release(w int) {
	s := &e.sc
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepping[w] = inflight{}
	s.resident--
	e.st.schedRunning(s.resident)
}

// stepOne advances one decode by one step, lazily beginning it on its
// first. Reports whether the decode is finished. A panic in the step —
// session preparation, decoder, drafter, oracle, verifier, the caller's
// OnStep — is contained here: the decode is abandoned with the panic
// value as its error, and the worker goes on serving the rest of the
// batch. The locks a step shares with other decodes (the session
// cache's, the tracer's) are released by defer or guard code that
// cannot panic, so a contained panic leaves none of them held.
func (e *Engine) stepOne(dec *core.Decoder, x *schedTask) (done bool) {
	start := time.Now()
	defer func() {
		x.wall += time.Since(start)
		if r := recover(); r != nil {
			x.faultErr = fmt.Errorf("serve: decode panicked: %v", r)
			done = true
		}
	}()
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
		// Fault-injection plane: consulted every step so a fault
		// (crash, wedge, slowdown) lands mid-decode, where real replica
		// failures land. A wedging hook blocks this worker here,
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
	case x.faultErr != nil:
		// Abandoned mid-decode (an injected fault or a panic): the
		// state is not finished; only its span needs closing.
		if x.st != nil {
			if sp := x.st.TraceSpan(); sp != nil {
				sp.SetAttr("error", x.faultErr.Error())
				sp.End()
			}
		}
		res, err = &core.Result{}, x.faultErr
	case x.st == nil:
		// Never began: cancelled while queued, or an unknown strategy.
		res, err = &core.Result{}, x.beginErr
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
