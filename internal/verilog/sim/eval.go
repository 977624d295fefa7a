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
		cnt, err := s.eval(sc, v.Count, 0)
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
		msbV, err := s.eval(sc, v.MSB, 0)
		if err != nil {
			return 0, err
		}
		lsbV, err := s.eval(sc, v.LSB, 0)
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

// binaryOp maps an arithmetic, bitwise or shift operator to the
// function that computes it, and any other operator to nil.
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

// eval computes the current value of an expression in a scope at
// context width w (LRM context-determined sizing; 0 means
// self-determined). The operands of arithmetic and bitwise operators,
// of ~, - and +, the arms of ?: and a shift's left operand take w, so
// they widen before the operation and carries and borrows are kept,
// as in {cout, sum} = a + b + cin. Every other expression, ** and
// shift counts included, is evaluated at its own width and then
// widened to w.
func (s *Simulator) eval(sc *Scope, e verilog.Expr, w int) (Value, error) {
	var out Value
	switch v := e.(type) {
	case *verilog.Number:
		out = Value{W: v.Width, A: v.A, B: v.B, Signed: v.Signed}

	case *verilog.StringLit:
		// Verilog string literals are bit vectors of 8 bits per char.
		if len(v.Val) > 8 {
			return Value{}, rte(sc.Name, "string literal longer than 8 chars in expression")
		}
		var a uint64
		for i := 0; i < len(v.Val); i++ {
			a = a<<8 | uint64(v.Val[i])
		}
		out = FromUint64(a, max(8*len(v.Val), 8))

	case *verilog.Ident:
		if pv, ok := sc.Params[v.Name]; ok {
			out = FromInt64(pv, 32)
			break
		}
		sig := sc.lookup(v.Name)
		if sig == nil {
			return Value{}, rte(sc.Name, "unknown identifier %q", v.Name)
		}
		if sig.IsArray {
			return Value{}, rte(sc.Name, "memory %q used without an index", v.Name)
		}
		out = sig.Words[0]
		out.Signed = sig.Signed

	case *verilog.Unary:
		xw := 0
		if v.Op == "~" || v.Op == "-" || v.Op == "+" {
			xw = w
		}
		x, err := s.eval(sc, v.X, xw)
		if err != nil {
			return Value{}, err
		}
		switch v.Op {
		case "+":
			out = x
		case "-":
			out = Neg(x)
		case "~":
			out = Not(x)
		case "!":
			out = X(1)
			if t, known := x.Truth(); known {
				out = Bool(!t)
			}
		case "&":
			out = ReduceAnd(x)
		case "|":
			out = ReduceOr(x)
		case "^":
			out = ReduceXor(x)
		case "~&":
			out = Not(ReduceAnd(x))
		case "~|":
			out = Not(ReduceOr(x))
		case "~^", "^~":
			out = Not(ReduceXor(x))
		default:
			return Value{}, rte(sc.Name, "unsupported unary operator %q", v.Op)
		}

	case *verilog.Binary:
		var err error
		if out, err = s.evalBinary(sc, v, w); err != nil {
			return Value{}, err
		}

	case *verilog.Ternary:
		c, err := s.eval(sc, v.Cond, 0)
		if err != nil {
			return Value{}, err
		}
		t, known := c.Truth()
		if known {
			arm := v.FalseE
			if t {
				arm = v.TrueE
			}
			if out, err = s.eval(sc, arm, w); err != nil {
				return Value{}, err
			}
			break
		}
		a, err := s.eval(sc, v.TrueE, w)
		if err != nil {
			return Value{}, err
		}
		b, err := s.eval(sc, v.FalseE, w)
		if err != nil {
			return Value{}, err
		}
		out = Merge(a, b)

	case *verilog.Concat:
		parts := make([]Value, len(v.Parts))
		total := 0
		for i, p := range v.Parts {
			pv, err := s.eval(sc, p, 0)
			if err != nil {
				return Value{}, err
			}
			parts[i] = pv
			total += pv.W
		}
		if total > 64 {
			return Value{}, rte(sc.Name, "concatenation wider than 64 bits")
		}
		out = Concat(parts)

	case *verilog.Repl:
		cnt, err := s.eval(sc, v.Count, 0)
		if err != nil {
			return Value{}, err
		}
		if cnt.HasXZ() {
			return Value{}, rte(sc.Name, "x/z replication count")
		}
		n := int(cnt.Uint64())
		xv, err := s.eval(sc, v.X, 0)
		if err != nil {
			return Value{}, err
		}
		if n < 0 || n*xv.W > 64 {
			return Value{}, rte(sc.Name, "replication wider than 64 bits")
		}
		if n > 0 {
			parts := make([]Value, n)
			for i := range parts {
				parts[i] = xv
			}
			out = Concat(parts)
		}

	case *verilog.Index:
		var err error
		if out, err = s.evalIndex(sc, v); err != nil {
			return Value{}, err
		}

	case *verilog.RangeSel:
		base, err := s.eval(sc, v.X, 0)
		if err != nil {
			return Value{}, err
		}
		msbV, err := s.eval(sc, v.MSB, 0)
		if err != nil {
			return Value{}, err
		}
		lsbV, err := s.eval(sc, v.LSB, 0)
		if err != nil {
			return Value{}, err
		}
		if msbV.HasXZ() || lsbV.HasXZ() {
			out = X(1)
			break
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
		out = Slice(base, hi, lo)

	case *verilog.SysFuncCall:
		var err error
		if out, err = s.evalSysFunc(sc, v); err != nil {
			return Value{}, err
		}

	default:
		return Value{}, rte(sc.Name, "unsupported expression %T", e)
	}
	if out.W < w {
		out = out.Extend(w)
	}
	return out, nil
}

// evalIndex evaluates a bit select or a memory word read at its own
// width.
func (s *Simulator) evalIndex(sc *Scope, v *verilog.Index) (Value, error) {
	id, _ := v.X.(*verilog.Ident)
	var sig *Signal
	if id != nil {
		sig = sc.lookup(id.Name)
	}
	if sig != nil && sig.IsArray {
		idx, err := s.eval(sc, v.Idx, 0)
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
	base, err := s.eval(sc, v.X, 0)
	if err != nil {
		return Value{}, err
	}
	idx, err := s.eval(sc, v.Idx, 0)
	if err != nil {
		return Value{}, err
	}
	if idx.HasXZ() {
		return X(1), nil
	}
	off := int(idx.Int64())
	if sig != nil {
		off = sig.bitOffset(off)
	}
	if off < 0 || off >= base.W {
		return X(1), nil
	}
	a, b := base.Bit(off)
	return Value{W: 1, A: a, B: b}, nil
}

// evalBinary evaluates a binary operator at context width w (see eval).
func (s *Simulator) evalBinary(sc *Scope, v *verilog.Binary, w int) (Value, error) {
	// Short-circuitable logical operators.
	if v.Op == "&&" || v.Op == "||" {
		x, err := s.eval(sc, v.X, 0)
		if err != nil {
			return Value{}, err
		}
		y, err := s.eval(sc, v.Y, 0)
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
		wx = max(wx, wy)
		x, err := s.eval(sc, v.X, wx)
		if err != nil {
			return Value{}, err
		}
		y, err := s.eval(sc, v.Y, wx)
		if err != nil {
			return Value{}, err
		}
		return compareBin(v.Op, x, y), nil
	}

	xw, yw := w, w
	switch v.Op {
	case "**":
		xw, yw = 0, 0
	case "<<", ">>", "<<<", ">>>":
		yw = 0
	}
	x, err := s.eval(sc, v.X, xw)
	if err != nil {
		return Value{}, err
	}
	y, err := s.eval(sc, v.Y, yw)
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
		x, err := s.eval(sc, v.Args[0], 0)
		if err != nil {
			return Value{}, err
		}
		x.Signed = true
		return x, nil
	case "$unsigned":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$unsigned wants 1 argument")
		}
		x, err := s.eval(sc, v.Args[0], 0)
		if err != nil {
			return Value{}, err
		}
		x.Signed = false
		return x, nil
	case "$clog2":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$clog2 wants 1 argument")
		}
		x, err := s.eval(sc, v.Args[0], 0)
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
