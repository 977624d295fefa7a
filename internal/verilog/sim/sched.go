package sim

import (
	"container/heap"
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

// procState tracks the lifecycle of a procedural goroutine.
type procState int

const (
	stateBlocked procState = iota // waiting on resume channel
	stateDone                     // goroutine exited
)

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

	states map[*Proc]procState

	out      strings.Builder
	finished bool
	steps    int
	rng      uint64
	err      error
}

// New creates a simulator for a design.
func New(d *Design, opts Options) *Simulator {
	return &Simulator{d: d, opts: opts.withDefaults(), states: map[*Proc]procState{}, rng: 0x9E3779B97F4A7C15}
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
			v, err := s.eval(sc, dn.Init)
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

// --- Procedural process goroutines (lockstep handshake) ---

// killToken and finishToken are panic sentinels used inside process
// goroutines; they never escape this package.
type killToken struct{}
type finishToken struct{}

// simPanic wraps a runtime error raised inside a process goroutine.
type simPanic struct{ err error }

func (s *Simulator) startProc(p *Proc) {
	p.resume = make(chan bool)
	p.report = make(chan procReport)
	s.states[p] = stateBlocked
	go func() {
		if !<-p.resume {
			return
		}
		ctx := &procCtx{s: s, p: p}
		defer func() {
			r := recover()
			switch r := r.(type) {
			case nil:
				p.report <- procReport{kind: reportDone}
			case killToken:
				// scheduler told us to die: exit silently
			case finishToken:
				p.report <- procReport{kind: reportDone}
			case simPanic:
				p.report <- procReport{kind: reportError, err: r.err}
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
				panic(simPanic{rte(p.name, "always block executes without any timing control")})
			}
		}
	}()
}

// resumeProc hands control to a process goroutine and handles its report.
func (s *Simulator) resumeProc(p *Proc) error {
	if s.states[p] == stateDone {
		return nil
	}
	if err := s.countStep(); err != nil {
		return err
	}
	p.resume <- true
	rep := <-p.report
	switch rep.kind {
	case reportDone:
		s.states[p] = stateDone
	case reportError:
		s.states[p] = stateDone
		return rep.err
	case reportBlockedDelay:
		s.seq++
		heap.Push(&s.events, timedEvent{t: s.now + rep.delay, seq: s.seq, proc: p})
	case reportBlockedEvent:
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

// killAll terminates every still-blocked process goroutine.
func (s *Simulator) killAll() {
	for p, st := range s.states {
		if st == stateBlocked {
			p.resume <- false
			s.states[p] = stateDone
		}
	}
}

// scheduleAt registers fn to run at absolute time t.
func (s *Simulator) scheduleAt(t uint64, fn func(*Simulator)) {
	s.seq++
	heap.Push(&s.events, timedEvent{t: t, seq: s.seq, fn: fn})
}
