package sim

import (
	"repro/internal/verilog"
)

// procCtx is the execution context of a procedural block. All its
// methods run inside the process coroutine; they hand control back to
// the scheduler only through block().
type procCtx struct {
	s          *Simulator
	p          *Proc
	yield      func(procReport) bool
	blockCount int
	loopGuard  int
}

// maxLoopGuard caps statements executed between two blocking points,
// catching zero-time infinite loops inside a single activation.
const maxLoopGuard = 2_000_000

func (c *procCtx) fail(err error)           { panic(simPanic{err}) }
func (c *procCtx) failf(f string, a ...any) { c.fail(rte(c.p.name, f, a...)) }

func (c *procCtx) guard() {
	c.loopGuard++
	if c.loopGuard > maxLoopGuard {
		c.failf("runaway loop without timing control")
	}
}

// evalMust evaluates an expression, panicking on error.
func (c *procCtx) evalMust(sc *Scope, e verilog.Expr) Value {
	v, err := c.s.eval(sc, e, 0)
	if err != nil {
		c.fail(err)
	}
	return v
}

// block yields rep to the scheduler and parks until resumed; a process
// the scheduler stops unwinds from here.
func (c *procCtx) block(rep procReport) {
	if !c.yield(rep) {
		panic(killToken{})
	}
	c.blockCount++
	c.loopGuard = 0
}

func (c *procCtx) waitDelay(d uint64) {
	c.block(procReport{delay: d})
}

func (c *procCtx) waitEvent(items []*sensWait) {
	if len(items) == 0 {
		c.failf("event control with empty sensitivity")
	}
	c.block(procReport{sens: items})
}

// exec interprets one statement.
func (c *procCtx) exec(sc *Scope, st verilog.Stmt) {
	if st == nil {
		return
	}
	c.guard()
	switch v := st.(type) {
	case *verilog.NullStmt:

	case *verilog.Block:
		for _, s := range v.Stmts {
			c.exec(sc, s)
		}

	case *verilog.Assign:
		slots, err := c.s.resolve(sc, v.LHS, true, nil)
		if err != nil {
			c.fail(err)
		}
		val, err := c.s.eval(sc, v.RHS, width(slots))
		if err != nil {
			c.fail(err)
		}
		switch {
		case v.NonBlocking && v.Delay != nil:
			// q <= #d rhs: the target resolved now lands at now+d.
			d := c.evalMust(sc, v.Delay)
			c.s.scheduleAt(c.s.now+d.Uint64(), func(s *Simulator) {
				s.write(slots, val, true)
			})
		case v.Delay != nil:
			// x = #d rhs: RHS evaluated before the wait per LRM, the
			// target resolved again after it.
			d := c.evalMust(sc, v.Delay)
			c.waitDelay(d.Uint64())
			if slots, err = c.s.resolve(sc, v.LHS, false, nil); err != nil {
				c.fail(err)
			}
			c.s.write(slots, val, false)
		default:
			c.s.write(slots, val, v.NonBlocking)
		}

	case *verilog.If:
		cond := c.evalMust(sc, v.Cond)
		if t, _ := cond.Truth(); t {
			c.exec(sc, v.Then)
		} else {
			c.exec(sc, v.Else)
		}

	case *verilog.Case:
		c.execCase(sc, v)

	case *verilog.For:
		c.exec(sc, v.Init)
		for {
			cond := c.evalMust(sc, v.Cond)
			t, _ := cond.Truth()
			if !t {
				break
			}
			c.exec(sc, v.Body)
			c.exec(sc, v.Step)
			c.guard()
		}

	case *verilog.While:
		for {
			cond := c.evalMust(sc, v.Cond)
			t, _ := cond.Truth()
			if !t {
				break
			}
			c.exec(sc, v.Body)
			c.guard()
		}

	case *verilog.Repeat:
		cnt := c.evalMust(sc, v.Count)
		if cnt.HasXZ() {
			return
		}
		n := cnt.Int64()
		for i := int64(0); i < n; i++ {
			c.exec(sc, v.Body)
			c.guard()
		}

	case *verilog.Forever:
		for {
			before := c.blockCount
			c.exec(sc, v.Body)
			if c.blockCount == before {
				c.failf("forever loop without timing control")
			}
			if c.s.finished {
				panic(finishToken{})
			}
		}

	case *verilog.DelayStmt:
		d := c.evalMust(sc, v.Delay)
		if d.HasXZ() {
			c.failf("x/z delay value")
		}
		c.waitDelay(d.Uint64())
		c.exec(sc, v.Body)

	case *verilog.EventCtrlStmt:
		var items []*sensWait
		if v.Star {
			// @*: wake on any change of any signal the body reads.
			// anyChange avoids re-evaluating expressions, which also
			// makes memory reads (mem[addr]) work in @* blocks.
			for _, sig := range c.p.starSens {
				items = append(items, &sensWait{
					edge:      verilog.EdgeLevel,
					anyChange: true,
					sc:        sc,
					deps:      []*Signal{sig},
				})
			}
			// A @* with nothing to read can never wake: treat as error.
			if len(items) == 0 {
				c.failf("@* with no readable signals")
			}
		} else {
			for _, it := range v.Items {
				deps := map[*Signal]bool{}
				if err := collectDeps(sc, it.Expr, deps); err != nil {
					c.fail(err)
				}
				sw := &sensWait{edge: it.Edge, expr: it.Expr, sc: sc, last: c.evalMust(sc, it.Expr)}
				for d := range deps {
					sw.deps = append(sw.deps, d)
				}
				items = append(items, sw)
			}
		}
		c.waitEvent(items)
		c.exec(sc, v.Body)

	case *verilog.SysCall:
		c.execSysCall(sc, v)

	default:
		c.failf("unsupported statement %T", st)
	}
}

func (c *procCtx) execCase(sc *Scope, v *verilog.Case) {
	// Per the LRM, all case expressions size to the widest involved.
	w, err := c.s.exprWidth(sc, v.Expr)
	if err != nil {
		c.fail(err)
	}
	for _, item := range v.Items {
		for _, e := range item.Exprs {
			iw, err := c.s.exprWidth(sc, e)
			if err != nil {
				c.fail(err)
			}
			if iw > w {
				w = iw
			}
		}
	}
	sel, err := c.s.eval(sc, v.Expr, w)
	if err != nil {
		c.fail(err)
	}
	var deflt *verilog.CaseItem
	for _, item := range v.Items {
		if item.Default {
			deflt = item
			continue
		}
		for _, e := range item.Exprs {
			ev, err := c.s.eval(sc, e, w)
			if err != nil {
				c.fail(err)
			}
			if caseMatch(v.Kind, sel, ev) {
				c.exec(sc, item.Body)
				return
			}
		}
	}
	if deflt != nil {
		c.exec(sc, deflt.Body)
	}
}

// caseMatch implements case/casez/casex comparison. For casez, z bits in
// either operand are wildcards; for casex, x and z bits are wildcards.
func caseMatch(kind verilog.CaseKind, sel, item Value) bool {
	w := sel.W
	if item.W > w {
		w = item.W
	}
	a, b := sel.Extend(w), item.Extend(w)
	var wild uint64
	switch kind {
	case verilog.CaseExact:
		return a.A&mask(w) == b.A&mask(w) && a.B&mask(w) == b.B&mask(w)
	case verilog.CaseZ:
		// z = (a=0,b=1)
		wild = (^a.A & a.B) | (^b.A & b.B)
	case verilog.CaseX:
		wild = a.B | b.B
	}
	m := mask(w) &^ wild
	return a.A&m == b.A&m && a.B&m == b.B&m
}
