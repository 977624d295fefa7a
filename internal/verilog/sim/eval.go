package sim

import (
	"fmt"

	"repro/internal/verilog"
)

// RuntimeError reports a failure during simulation (unsupported dynamic
// construct, width overflow, runaway loop, ...).
type RuntimeError struct {
	Where string
	Msg   string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("sim: %s: %s", e.Where, e.Msg) }

func rte(where, format string, args ...any) error {
	return &RuntimeError{Where: where, Msg: fmt.Sprintf(format, args...)}
}

// exprWidth computes the self-determined bit length of an expression
// (LRM table 5-22 subset). Replication counts and part-select bounds
// are evaluated, so the result can depend on current signal values.
func (s *Simulator) exprWidth(sc *Scope, e verilog.Expr) (int, error) {
	switch v := e.(type) {
	case *verilog.Number:
		return v.Width, nil
	case *verilog.StringLit:
		if len(v.Val) == 0 {
			return 8, nil
		}
		return 8 * len(v.Val), nil
	case *verilog.Ident:
		if _, ok := sc.Params[v.Name]; ok {
			return 32, nil
		}
		sig := sc.lookup(v.Name)
		if sig == nil {
			return 0, rte(sc.Name, "unknown identifier %q", v.Name)
		}
		return sig.W, nil
	case *verilog.Unary:
		switch v.Op {
		case "~", "-", "+":
			return s.exprWidth(sc, v.X)
		default: // reductions and !
			return 1, nil
		}
	case *verilog.Binary:
		switch v.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			wx, err := s.exprWidth(sc, v.X)
			if err != nil {
				return 0, err
			}
			wy, err := s.exprWidth(sc, v.Y)
			if err != nil {
				return 0, err
			}
			if wy > wx {
				wx = wy
			}
			return wx, nil
		case "<<", ">>", "<<<", ">>>", "**":
			return s.exprWidth(sc, v.X)
		default: // comparisons, logical ops
			return 1, nil
		}
	case *verilog.Ternary:
		wx, err := s.exprWidth(sc, v.TrueE)
		if err != nil {
			return 0, err
		}
		wy, err := s.exprWidth(sc, v.FalseE)
		if err != nil {
			return 0, err
		}
		if wy > wx {
			wx = wy
		}
		return wx, nil
	case *verilog.Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := s.exprWidth(sc, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *verilog.Repl:
		cnt, err := s.eval(sc, v.Count)
		if err != nil {
			return 0, err
		}
		w, err := s.exprWidth(sc, v.X)
		if err != nil {
			return 0, err
		}
		return int(cnt.Uint64()) * w, nil
	case *verilog.Index:
		if id, ok := v.X.(*verilog.Ident); ok {
			if sig := sc.lookup(id.Name); sig != nil && sig.IsArray {
				return sig.W, nil
			}
		}
		return 1, nil
	case *verilog.RangeSel:
		msbV, err := s.eval(sc, v.MSB)
		if err != nil {
			return 0, err
		}
		lsbV, err := s.eval(sc, v.LSB)
		if err != nil {
			return 0, err
		}
		hi, lo := int(msbV.Int64()), int(lsbV.Int64())
		if hi < lo {
			hi, lo = lo, hi
		}
		return hi - lo + 1, nil
	case *verilog.SysFuncCall:
		return 32, nil
	}
	return 0, rte(sc.Name, "unsupported expression %T", e)
}

// evalCtx evaluates e with a context width (LRM context-determined
// sizing): arithmetic/bitwise operands widen to the context before the
// operation so carries and borrows are preserved, e.g. in
// {cout, sum} = a + b + cin.
func (s *Simulator) evalCtx(sc *Scope, e verilog.Expr, w int) (Value, error) {
	switch v := e.(type) {
	case *verilog.Binary:
		switch v.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			x, err := s.evalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			y, err := s.evalCtx(sc, v.Y, w)
			if err != nil {
				return Value{}, err
			}
			return binaryOp(v.Op)(x, y), nil
		case "<<", ">>", "<<<", ">>>":
			x, err := s.evalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			n, err := s.eval(sc, v.Y)
			if err != nil {
				return Value{}, err
			}
			return binaryOp(v.Op)(x, n), nil
		}
	case *verilog.Unary:
		switch v.Op {
		case "~":
			x, err := s.evalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			return Not(x), nil
		case "-":
			x, err := s.evalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			return Neg(x), nil
		case "+":
			return s.evalCtx(sc, v.X, w)
		}
	case *verilog.Ternary:
		c, err := s.eval(sc, v.Cond)
		if err != nil {
			return Value{}, err
		}
		t, known := c.Truth()
		if !known {
			a, err := s.evalCtx(sc, v.TrueE, w)
			if err != nil {
				return Value{}, err
			}
			b, err := s.evalCtx(sc, v.FalseE, w)
			if err != nil {
				return Value{}, err
			}
			return Merge(a, b), nil
		}
		if t {
			return s.evalCtx(sc, v.TrueE, w)
		}
		return s.evalCtx(sc, v.FalseE, w)
	}
	out, err := s.eval(sc, e)
	if err != nil {
		return Value{}, err
	}
	if out.W < w {
		out = out.Extend(w)
	}
	return out, nil
}

// binaryOp maps an arithmetic, bitwise or shift operator to the
// function that computes it, and any other operator to nil. It is the
// one operator table of both evaluation paths: evalBinary's
// self-determined one and evalCtx's context-widened one.
func binaryOp(op string) func(x, y Value) Value {
	switch op {
	case "+":
		return Add
	case "-":
		return Sub
	case "*":
		return Mul
	case "/":
		return Div
	case "%":
		return Mod
	case "**":
		return Pow
	case "&":
		return And
	case "|":
		return Or
	case "^":
		return Xor
	case "~^", "^~":
		return Xnor
	case "<<", "<<<":
		return Shl
	case ">>":
		return Shr
	case ">>>":
		return Sshr
	}
	return nil
}

// eval computes the current value of an expression in a scope.
func (s *Simulator) eval(sc *Scope, e verilog.Expr) (Value, error) {
	switch v := e.(type) {
	case *verilog.Number:
		return Value{W: v.Width, A: v.A, B: v.B, Signed: v.Signed}, nil

	case *verilog.StringLit:
		// Verilog string literals are bit vectors of 8 bits per char.
		if len(v.Val) > 8 {
			return Value{}, rte(sc.Name, "string literal longer than 8 chars in expression")
		}
		var a uint64
		for i := 0; i < len(v.Val); i++ {
			a = a<<8 | uint64(v.Val[i])
		}
		w := 8 * len(v.Val)
		if w == 0 {
			w = 8
		}
		return FromUint64(a, w), nil

	case *verilog.Ident:
		if pv, ok := sc.Params[v.Name]; ok {
			return FromInt64(pv, 32), nil
		}
		sig := sc.lookup(v.Name)
		if sig == nil {
			return Value{}, rte(sc.Name, "unknown identifier %q", v.Name)
		}
		if sig.IsArray {
			return Value{}, rte(sc.Name, "memory %q used without an index", v.Name)
		}
		out := sig.Words[0]
		out.Signed = sig.Signed
		return out, nil

	case *verilog.Unary:
		x, err := s.eval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		switch v.Op {
		case "+":
			return x, nil
		case "-":
			return Neg(x), nil
		case "~":
			return Not(x), nil
		case "!":
			t, known := x.Truth()
			if !known {
				return X(1), nil
			}
			return Bool(!t), nil
		case "&":
			return ReduceAnd(x), nil
		case "|":
			return ReduceOr(x), nil
		case "^":
			return ReduceXor(x), nil
		case "~&":
			return Not(ReduceAnd(x)), nil
		case "~|":
			return Not(ReduceOr(x)), nil
		case "~^", "^~":
			return Not(ReduceXor(x)), nil
		}
		return Value{}, rte(sc.Name, "unsupported unary operator %q", v.Op)

	case *verilog.Binary:
		return s.evalBinary(sc, v)

	case *verilog.Ternary:
		c, err := s.eval(sc, v.Cond)
		if err != nil {
			return Value{}, err
		}
		t, known := c.Truth()
		if !known {
			a, err := s.eval(sc, v.TrueE)
			if err != nil {
				return Value{}, err
			}
			b, err := s.eval(sc, v.FalseE)
			if err != nil {
				return Value{}, err
			}
			return Merge(a, b), nil
		}
		if t {
			return s.eval(sc, v.TrueE)
		}
		return s.eval(sc, v.FalseE)

	case *verilog.Concat:
		parts := make([]Value, len(v.Parts))
		w := 0
		for i, p := range v.Parts {
			pv, err := s.eval(sc, p)
			if err != nil {
				return Value{}, err
			}
			parts[i] = pv
			w += pv.W
		}
		if w > 64 {
			return Value{}, rte(sc.Name, "concatenation wider than 64 bits")
		}
		return Concat(parts), nil

	case *verilog.Repl:
		cnt, err := s.eval(sc, v.Count)
		if err != nil {
			return Value{}, err
		}
		if cnt.HasXZ() {
			return Value{}, rte(sc.Name, "x/z replication count")
		}
		n := int(cnt.Uint64())
		xv, err := s.eval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		if n < 0 || n*xv.W > 64 {
			return Value{}, rte(sc.Name, "replication wider than 64 bits")
		}
		parts := make([]Value, n)
		for i := range parts {
			parts[i] = xv
		}
		if n == 0 {
			return Value{W: 0}, nil
		}
		return Concat(parts), nil

	case *verilog.Index:
		// Memory word read?
		if id, ok := v.X.(*verilog.Ident); ok {
			if sig := sc.lookup(id.Name); sig != nil && sig.IsArray {
				idx, err := s.eval(sc, v.Idx)
				if err != nil {
					return Value{}, err
				}
				if idx.HasXZ() {
					return X(sig.W), nil
				}
				wi := sig.wordIndex(int(idx.Int64()))
				if wi < 0 {
					return X(sig.W), nil
				}
				out := sig.Words[wi]
				out.Signed = sig.Signed
				return out, nil
			}
		}
		base, err := s.eval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		idx, err := s.eval(sc, v.Idx)
		if err != nil {
			return Value{}, err
		}
		if idx.HasXZ() {
			return X(1), nil
		}
		off := int(idx.Int64())
		if id, ok := v.X.(*verilog.Ident); ok {
			if sig := sc.lookup(id.Name); sig != nil {
				off = sig.bitOffset(off)
			}
		}
		if off < 0 || off >= base.W {
			return X(1), nil
		}
		a, b := base.Bit(off)
		return Value{W: 1, A: a, B: b}, nil

	case *verilog.RangeSel:
		base, err := s.eval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		msbV, err := s.eval(sc, v.MSB)
		if err != nil {
			return Value{}, err
		}
		lsbV, err := s.eval(sc, v.LSB)
		if err != nil {
			return Value{}, err
		}
		if msbV.HasXZ() || lsbV.HasXZ() {
			return X(1), nil
		}
		hi, lo := int(msbV.Int64()), int(lsbV.Int64())
		if id, ok := v.X.(*verilog.Ident); ok {
			if sig := sc.lookup(id.Name); sig != nil {
				hi, lo = sig.bitOffset(hi), sig.bitOffset(lo)
			}
		}
		if hi < lo {
			hi, lo = lo, hi
		}
		return Slice(base, hi, lo), nil

	case *verilog.SysFuncCall:
		return s.evalSysFunc(sc, v)
	}
	return Value{}, rte(sc.Name, "unsupported expression %T", e)
}

func (s *Simulator) evalBinary(sc *Scope, v *verilog.Binary) (Value, error) {
	// Short-circuitable logical operators.
	if v.Op == "&&" || v.Op == "||" {
		x, err := s.eval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		y, err := s.eval(sc, v.Y)
		if err != nil {
			return Value{}, err
		}
		xt, xk := x.Truth()
		yt, yk := y.Truth()
		if v.Op == "&&" {
			switch {
			case xk && !xt, yk && !yt:
				return Bool(false), nil
			case xk && yk:
				return Bool(xt && yt), nil
			default:
				return X(1), nil
			}
		}
		switch {
		case xk && xt, yk && yt:
			return Bool(true), nil
		case xk && yk:
			return Bool(xt || yt), nil
		default:
			return X(1), nil
		}
	}

	// Comparisons size both operands to the larger side's width
	// (context-determined), so (a+b) == 300 keeps the carry.
	switch v.Op {
	case "==", "!=", "===", "!==", "<", ">", "<=", ">=":
		wx, err := s.exprWidth(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		wy, err := s.exprWidth(sc, v.Y)
		if err != nil {
			return Value{}, err
		}
		if wy > wx {
			wx = wy
		}
		x, err := s.evalCtx(sc, v.X, wx)
		if err != nil {
			return Value{}, err
		}
		y, err := s.evalCtx(sc, v.Y, wx)
		if err != nil {
			return Value{}, err
		}
		return compareBin(v.Op, x, y), nil
	}

	x, err := s.eval(sc, v.X)
	if err != nil {
		return Value{}, err
	}
	y, err := s.eval(sc, v.Y)
	if err != nil {
		return Value{}, err
	}
	if op := binaryOp(v.Op); op != nil {
		return op(x, y), nil
	}
	return Value{}, rte(sc.Name, "unsupported binary operator %q", v.Op)
}

// compareBin dispatches a width-matched comparison.
func compareBin(op string, x, y Value) Value {
	switch op {
	case "==":
		return EqLogical(x, y)
	case "!=":
		eq := EqLogical(x, y)
		if eq.HasXZ() {
			return eq
		}
		return Bool(eq.A == 0)
	case "===":
		return Bool(x.EqExact(y))
	case "!==":
		return Bool(!x.EqExact(y))
	case "<":
		return Less(x, y)
	case ">":
		return Less(y, x)
	case "<=":
		gt := Less(y, x)
		if gt.HasXZ() {
			return gt
		}
		return Bool(gt.A == 0)
	case ">=":
		lt := Less(x, y)
		if lt.HasXZ() {
			return lt
		}
		return Bool(lt.A == 0)
	}
	return X(1)
}

func (s *Simulator) evalSysFunc(sc *Scope, v *verilog.SysFuncCall) (Value, error) {
	switch v.Name {
	case "$time", "$stime", "$realtime":
		return FromUint64(s.now, 64), nil
	case "$random":
		// xorshift64*: deterministic across runs.
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		out := FromUint64(s.rng*2685821657736338717>>32, 32)
		out.Signed = true
		return out, nil
	case "$signed":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$signed wants 1 argument")
		}
		x, err := s.eval(sc, v.Args[0])
		if err != nil {
			return Value{}, err
		}
		x.Signed = true
		return x, nil
	case "$unsigned":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$unsigned wants 1 argument")
		}
		x, err := s.eval(sc, v.Args[0])
		if err != nil {
			return Value{}, err
		}
		x.Signed = false
		return x, nil
	case "$clog2":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$clog2 wants 1 argument")
		}
		x, err := s.eval(sc, v.Args[0])
		if err != nil {
			return Value{}, err
		}
		if x.HasXZ() {
			return X(32), nil
		}
		n := x.Uint64()
		r := 0
		for (uint64(1) << uint(r)) < n {
			r++
		}
		return FromUint64(uint64(r), 32), nil
	}
	return Value{}, rte(sc.Name, "unsupported system function %q", v.Name)
}
