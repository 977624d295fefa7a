package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/verilog"
)

// This file keeps the simulator's two evaluators as they were before
// they became one, eval at a context width: refEval (self-determined)
// and refEvalCtx (context-determined). They are the reference that
// checkEvalMatchesReference holds eval to.

// checkEvalMatchesReference elaborates src under top and compares eval
// with the reference on every expression of every instance, in the
// instance's scope, with every signal word set to a random 4-state
// value, at the self-determined width (0), the expression's own width,
// one bit more and 64 bits. It returns the number of comparisons made.
func checkEvalMatchesReference(t *testing.T, name, src, top string, rng *rand.Rand) int {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := Elaborate([]*verilog.SourceFile{f}, top)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s := New(d, Options{})
	n := 0
	var walk func(sc *Scope)
	walk = func(sc *Scope) {
		verilog.Inspect(sc.Module, func(node verilog.Node) bool {
			e, ok := node.(verilog.Expr)
			if !ok {
				return true
			}
			for range 4 {
				n += compareAt(t, name, s, sc, e, rng)
			}
			return true
		})
		for _, kid := range sc.Kids {
			walk(kid)
		}
	}
	walk(d.Top)
	return n
}

// compareAt sets every signal word of s's design to a random 4-state
// value and compares eval with the reference on e at each width.
func compareAt(t *testing.T, name string, s *Simulator, sc *Scope, e verilog.Expr, rng *rand.Rand) int {
	for _, sig := range s.d.Signals {
		for i := range sig.Words {
			m := mask(sig.W)
			sig.Words[i].A = rng.Uint64() & m
			sig.Words[i].B = 0
			if rng.IntN(2) == 0 {
				sig.Words[i].B = rng.Uint64() & rng.Uint64() & rng.Uint64() & m
			}
		}
	}
	widths := []int{0, 64}
	if self, err := s.exprWidth(sc, e); err == nil {
		widths = append(widths, self, self+1)
	}
	for _, w := range widths {
		// $random draws from s.rng: both sides start from one state.
		seed := s.rng
		var want Value
		var wantErr error
		if w == 0 {
			want, wantErr = s.refEval(sc, e)
		} else {
			want, wantErr = s.refEvalCtx(sc, e, w)
		}
		s.rng = seed
		got, gotErr := s.eval(sc, e, w)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: %s line %d: %T at width %d: eval = %+v, %v; reference = %+v, %v",
				name, sc.Name, e.Pos(), e, w, got, gotErr, want, wantErr)
		}
	}
	return len(widths)
}

// refEvalCtx evaluates e with a context width (LRM context-determined
// sizing): arithmetic/bitwise operands widen to the context before the
// operation so carries and borrows are preserved, e.g. in
// {cout, sum} = a + b + cin.
func (s *Simulator) refEvalCtx(sc *Scope, e verilog.Expr, w int) (Value, error) {
	switch v := e.(type) {
	case *verilog.Binary:
		switch v.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			x, err := s.refEvalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			y, err := s.refEvalCtx(sc, v.Y, w)
			if err != nil {
				return Value{}, err
			}
			return binaryOp(v.Op)(x, y), nil
		case "<<", ">>", "<<<", ">>>":
			x, err := s.refEvalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			n, err := s.refEval(sc, v.Y)
			if err != nil {
				return Value{}, err
			}
			return binaryOp(v.Op)(x, n), nil
		}
	case *verilog.Unary:
		switch v.Op {
		case "~":
			x, err := s.refEvalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			return Not(x), nil
		case "-":
			x, err := s.refEvalCtx(sc, v.X, w)
			if err != nil {
				return Value{}, err
			}
			return Neg(x), nil
		case "+":
			return s.refEvalCtx(sc, v.X, w)
		}
	case *verilog.Ternary:
		c, err := s.refEval(sc, v.Cond)
		if err != nil {
			return Value{}, err
		}
		t, known := c.Truth()
		if !known {
			a, err := s.refEvalCtx(sc, v.TrueE, w)
			if err != nil {
				return Value{}, err
			}
			b, err := s.refEvalCtx(sc, v.FalseE, w)
			if err != nil {
				return Value{}, err
			}
			return Merge(a, b), nil
		}
		if t {
			return s.refEvalCtx(sc, v.TrueE, w)
		}
		return s.refEvalCtx(sc, v.FalseE, w)
	}
	out, err := s.refEval(sc, e)
	if err != nil {
		return Value{}, err
	}
	if out.W < w {
		out = out.Extend(w)
	}
	return out, nil
}

// refEval computes the current value of an expression in a scope.
func (s *Simulator) refEval(sc *Scope, e verilog.Expr) (Value, error) {
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
		x, err := s.refEval(sc, v.X)
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
		return s.refEvalBinary(sc, v)

	case *verilog.Ternary:
		c, err := s.refEval(sc, v.Cond)
		if err != nil {
			return Value{}, err
		}
		t, known := c.Truth()
		if !known {
			a, err := s.refEval(sc, v.TrueE)
			if err != nil {
				return Value{}, err
			}
			b, err := s.refEval(sc, v.FalseE)
			if err != nil {
				return Value{}, err
			}
			return Merge(a, b), nil
		}
		if t {
			return s.refEval(sc, v.TrueE)
		}
		return s.refEval(sc, v.FalseE)

	case *verilog.Concat:
		parts := make([]Value, len(v.Parts))
		w := 0
		for i, p := range v.Parts {
			pv, err := s.refEval(sc, p)
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
		cnt, err := s.refEval(sc, v.Count)
		if err != nil {
			return Value{}, err
		}
		if cnt.HasXZ() {
			return Value{}, rte(sc.Name, "x/z replication count")
		}
		n := int(cnt.Uint64())
		xv, err := s.refEval(sc, v.X)
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
				idx, err := s.refEval(sc, v.Idx)
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
		base, err := s.refEval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		idx, err := s.refEval(sc, v.Idx)
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
		base, err := s.refEval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		msbV, err := s.refEval(sc, v.MSB)
		if err != nil {
			return Value{}, err
		}
		lsbV, err := s.refEval(sc, v.LSB)
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
		return s.refEvalSysFunc(sc, v)
	}
	return Value{}, rte(sc.Name, "unsupported expression %T", e)
}

func (s *Simulator) refEvalBinary(sc *Scope, v *verilog.Binary) (Value, error) {
	// Short-circuitable logical operators.
	if v.Op == "&&" || v.Op == "||" {
		x, err := s.refEval(sc, v.X)
		if err != nil {
			return Value{}, err
		}
		y, err := s.refEval(sc, v.Y)
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
		x, err := s.refEvalCtx(sc, v.X, wx)
		if err != nil {
			return Value{}, err
		}
		y, err := s.refEvalCtx(sc, v.Y, wx)
		if err != nil {
			return Value{}, err
		}
		return compareBin(v.Op, x, y), nil
	}

	x, err := s.refEval(sc, v.X)
	if err != nil {
		return Value{}, err
	}
	y, err := s.refEval(sc, v.Y)
	if err != nil {
		return Value{}, err
	}
	if op := binaryOp(v.Op); op != nil {
		return op(x, y), nil
	}
	return Value{}, rte(sc.Name, "unsupported binary operator %q", v.Op)
}

func (s *Simulator) refEvalSysFunc(sc *Scope, v *verilog.SysFuncCall) (Value, error) {
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
		x, err := s.refEval(sc, v.Args[0])
		if err != nil {
			return Value{}, err
		}
		x.Signed = true
		return x, nil
	case "$unsigned":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$unsigned wants 1 argument")
		}
		x, err := s.refEval(sc, v.Args[0])
		if err != nil {
			return Value{}, err
		}
		x.Signed = false
		return x, nil
	case "$clog2":
		if len(v.Args) != 1 {
			return Value{}, rte(sc.Name, "$clog2 wants 1 argument")
		}
		x, err := s.refEval(sc, v.Args[0])
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
