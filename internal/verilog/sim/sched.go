package sim

import (
	"container/heap"
	"iter"
	"strings"

	"repro/internal/verilog"
)

// Options controls resource limits for a simulation run. Zero values
// select the defaults. Two limits are fixed: maxDeltas and maxOutput.
type Options struct {
	// MaxTime aborts the run when simulated time would exceed it.
	MaxTime uint64
	// MaxSteps caps the total number of process activations plus
	// combinational evaluations (runaway protection).
	MaxSteps int
}

const (
	// maxDeltas caps activity within a single time slot (zero-delay
	// oscillation protection).
	maxDeltas = 100_000
	// maxOutput caps the number of bytes $display may produce.
	maxOutput = 1 << 20
)

func (o Options) withDefaults() Options {
	if o.MaxTime == 0 {
		o.MaxTime = 4_000_000
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 4_000_000
	}
	return o
}

// Result summarizes a finished simulation.
type Result struct {
	// Time is the simulated time at which the run ended.
	Time uint64
	// Output is everything written by $display/$write.
	Output string
	// Finished reports whether $finish was executed (as opposed to
	// event exhaustion).
	Finished bool
}

// Passed reports whether the testbench printed the TEST PASSED marker —
// the functional-correctness contract used by the benchmark suites.
func (r *Result) Passed() bool {
	return strings.Contains(r.Output, "TEST PASSED")
}

// timedEvent is a heap entry: either a process wake-up or a deferred
// function (delayed non-blocking updates).
type timedEvent struct {
	t    uint64
	seq  int
	proc *Proc
	fn   func(*Simulator)
}

type eventHeap []timedEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(timedEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Simulator executes an elaborated Design.
type Simulator struct {
	d    *Design
	opts Options

	now      uint64
	events   eventHeap
	seq      int
	runnable []*Proc
	combQ    []*CombProc
	nbaQ     []nbaUpdate

	out      strings.Builder
	finished bool
	steps    int
	rng      uint64
	err      error
}

// New creates a simulator for a design.
func New(d *Design, opts Options) *Simulator {
	return &Simulator{d: d, opts: opts.withDefaults(), rng: 0x9E3779B97F4A7C15}
}

// Run elaborates files, finds or uses the given top module, and runs the
// simulation to completion. It is the package's convenience entry point.
func Run(files []*verilog.SourceFile, top string, opts Options) (*Result, error) {
	var err error
	if top == "" {
		top, err = FindTop(files)
		if err != nil {
			return nil, err
		}
	}
	d, err := Elaborate(files, top)
	if err != nil {
		return nil, err
	}
	return New(d, opts).Run()
}

// RunSource parses src and simulates it (top auto-detected when empty).
func RunSource(src, top string, opts Options) (*Result, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return Run([]*verilog.SourceFile{f}, top, opts)
}

// Run executes the design until $finish, event exhaustion or a resource
// limit. The returned error is non-nil for runtime failures and limit
// violations; the Result is still returned when available.
func (s *Simulator) Run() (*Result, error) {
	defer s.killAll()

	// Apply declaration initializers (integer i = 0; style).
	if err := s.applyDeclInits(s.d.Top); err != nil {
		return nil, err
	}

	// Time zero: every combinational process evaluates once, every
	// procedural process starts.
	for _, cp := range s.d.Combs {
		cp.queued = true
		s.combQ = append(s.combQ, cp)
	}
	for _, p := range s.d.Procs {
		s.startProc(p)
		s.runnable = append(s.runnable, p)
	}

	for {
		if err := s.runTimeSlot(); err != nil {
			return s.result(), err
		}
		if s.finished || len(s.events) == 0 {
			return s.result(), nil
		}
		next := s.events[0].t
		if next > s.opts.MaxTime {
			return s.result(), rte("scheduler", "simulation exceeded max time %d", s.opts.MaxTime)
		}
		s.now = next
		for len(s.events) > 0 && s.events[0].t == s.now {
			ev := heap.Pop(&s.events).(timedEvent)
			if ev.fn != nil {
				ev.fn(s)
				continue
			}
			s.runnable = append(s.runnable, ev.proc)
		}
	}
}

func (s *Simulator) result() *Result {
	return &Result{Time: s.now, Output: s.out.String(), Finished: s.finished}
}

// runTimeSlot drains the active region (combinational + procedural) and
// the NBA region repeatedly until the slot is quiet.
func (s *Simulator) runTimeSlot() error {
	deltas := 0
	bumpDelta := func() error {
		deltas++
		if deltas > maxDeltas {
			return rte("scheduler", "zero-delay oscillation: %d deltas at time %d", deltas, s.now)
		}
		return nil
	}
	for {
		progress := false
		for len(s.combQ) > 0 {
			cp := s.combQ[0]
			s.combQ = s.combQ[1:]
			cp.queued = false
			if err := cp.run(s); err != nil {
				return err
			}
			progress = true
			if err := s.countStep(); err != nil {
				return err
			}
			if err := bumpDelta(); err != nil {
				return err
			}
		}
		if s.finished {
			return nil
		}
		if len(s.runnable) > 0 {
			p := s.runnable[0]
			s.runnable = s.runnable[1:]
			if err := s.resumeProc(p); err != nil {
				return err
			}
			progress = true
			if s.finished {
				return nil
			}
		} else if len(s.nbaQ) > 0 {
			q := s.nbaQ
			s.nbaQ = nil
			for _, u := range q {
				s.applyUpdate(u)
			}
			progress = true
		}
		if !progress {
			return nil
		}
		if err := bumpDelta(); err != nil {
			return err
		}
	}
}

func (s *Simulator) countStep() error {
	s.steps++
	if s.steps > s.opts.MaxSteps {
		return rte("scheduler", "step limit %d exceeded at time %d", s.opts.MaxSteps, s.now)
	}
	return nil
}

func (s *Simulator) applyDeclInits(sc *Scope) error {
	for _, it := range sc.Module.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		for _, dn := range nd.Names {
			if dn.Init == nil {
				continue
			}
			v, err := s.eval(sc, dn.Init, 0)
			if err != nil {
				return err
			}
			sig := sc.lookup(dn.Name)
			if sig != nil && !sig.IsArray {
				s.setSignal(sig, 0, v)
			}
		}
	}
	for _, kid := range sc.Kids {
		if err := s.applyDeclInits(kid); err != nil {
			return err
		}
	}
	return nil
}

// --- Procedural processes (iter.Pull coroutines) ---

// killToken and finishToken are panic sentinels used inside process
// coroutines; they never escape this package.
type killToken struct{}
type finishToken struct{}

// simPanic wraps a runtime error raised inside a process coroutine.
type simPanic struct{ err error }

// startProc makes p a coroutine that runs its body until it blocks,
// yielding what it waits on. It ends when its body does, on $finish,
// on a runtime error (kept on p.err) or when the scheduler stops it.
func (s *Simulator) startProc(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(procReport) bool) {
		ctx := &procCtx{s: s, p: p, yield: yield}
		defer func() {
			switch r := recover().(type) {
			case nil, killToken, finishToken:
			case simPanic:
				p.err = r.err
			default:
				panic(r)
			}
		}()
		for {
			before := ctx.blockCount
			ctx.exec(p.scope, p.body)
			if p.kind == procInitial {
				return
			}
			if ctx.blockCount == before {
				ctx.failf("always block executes without any timing control")
			}
		}
	})
}

// resumeProc runs a process until it blocks or ends, and arms what it
// blocked on.
func (s *Simulator) resumeProc(p *Proc) error {
	if err := s.countStep(); err != nil {
		return err
	}
	rep, ok := p.next()
	switch {
	case !ok:
		return p.err
	case len(rep.sens) == 0:
		s.seq++
		heap.Push(&s.events, timedEvent{t: s.now + rep.delay, seq: s.seq, proc: p})
	default:
		w := &waiter{proc: p, items: rep.sens}
		seen := map[*Signal]bool{}
		for _, item := range rep.sens {
			for _, dep := range item.deps {
				if !seen[dep] {
					seen[dep] = true
					dep.watchers = append(dep.watchers, w)
				}
			}
		}
	}
	return nil
}

// killAll stops every process coroutine that has not ended.
func (s *Simulator) killAll() {
	for _, p := range s.d.Procs {
		if p.stop != nil {
			p.stop()
		}
	}
}

// scheduleAt registers fn to run at absolute time t.
func (s *Simulator) scheduleAt(t uint64, fn func(*Simulator)) {
	s.seq++
	heap.Push(&s.events, timedEvent{t: t, seq: s.seq, fn: fn})
}
