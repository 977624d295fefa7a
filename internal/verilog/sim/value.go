// Package sim implements an event-driven simulator for the Verilog
// subset parsed by the parent verilog package: 4-state values up to 64
// bits, delta cycles with a separate non-blocking-assignment region,
// always/initial/assign processes, module hierarchy and the system tasks
// needed by self-checking testbenches ($display, $time, $finish, ...).
//
// It is the repository's substitute for Icarus Verilog in the paper's
// functional evaluation: a generated design is "functionally correct"
// when its benchmark testbench runs to completion and prints TEST PASSED.
package sim

import (
	"fmt"
	"strings"

	"repro/internal/verilog"
)

// Value is a 4-state logic vector of width W (1..64). Bit i is decoded
// from the planes as: (A,B) = (0,0) -> 0, (1,0) -> 1, (0,1) -> z,
// (1,1) -> x. Signed records whether the value originated from a signed
// context; it controls extension and ordering.
type Value struct {
	W      int
	A, B   uint64
	Signed bool
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// X returns an all-x value of width w.
func X(w int) Value { return Value{W: w, A: mask(w), B: mask(w)} }

// FromUint64 builds a fully defined value from the low w bits of v.
func FromUint64(v uint64, w int) Value { return Value{W: w, A: v & mask(w)} }

// FromInt64 builds a signed value from v truncated to w bits.
func FromInt64(v int64, w int) Value {
	return Value{W: w, A: uint64(v) & mask(w), Signed: true}
}

// Bool converts a truth value to a 1-bit Value.
func Bool(b bool) Value {
	if b {
		return FromUint64(1, 1)
	}
	return FromUint64(0, 1)
}

// HasXZ reports whether any bit is x or z.
func (v Value) HasXZ() bool { return v.B != 0 }

// Uint64 returns the defined bits of v as an unsigned integer
// (x/z bits read as 0).
func (v Value) Uint64() uint64 { return v.A &^ v.B & mask(v.W) }

// Int64 returns v as an integer. Signed values sign-extend from bit
// W-1; unsigned values convert directly (an unsigned 4'b1000 is 8, not
// -8 — this matters for memory addressing).
func (v Value) Int64() int64 {
	u := v.Uint64()
	if v.Signed && v.W < 64 && u&(uint64(1)<<uint(v.W-1)) != 0 {
		u |= ^mask(v.W)
	}
	return int64(u)
}

// Truth implements Verilog truthiness: true when any bit is a defined 1;
// unknown (x) when no defined 1 exists but some bit is x/z.
// The second result reports whether the truth value is known.
func (v Value) Truth() (bool, bool) {
	if v.A&^v.B&mask(v.W) != 0 {
		return true, true
	}
	if v.B&mask(v.W) != 0 {
		return false, false
	}
	return false, true
}

// Bit returns the (a,b) planes of bit i, or x when out of range.
func (v Value) Bit(i int) (uint64, uint64) {
	if i < 0 || i >= v.W {
		return 1, 1
	}
	return v.A >> uint(i) & 1, v.B >> uint(i) & 1
}

// Extend returns v extended or truncated to width w. Signed values
// sign-extend (replicating the MSB's 4-state planes); unsigned values
// zero-extend.
func (v Value) Extend(w int) Value {
	if w == v.W {
		return v
	}
	out := Value{W: w, Signed: v.Signed}
	if w < v.W {
		out.A = v.A & mask(w)
		out.B = v.B & mask(w)
		return out
	}
	out.A, out.B = v.A&mask(v.W), v.B&mask(v.W)
	if v.W > 0 {
		ta, tb := v.Bit(v.W - 1)
		if v.Signed || tb == 1 {
			// Sign-extend; x/z MSBs also propagate per LRM.
			ext := mask(w) &^ mask(v.W)
			if tb == 1 {
				out.B |= ext
				if ta == 1 {
					out.A |= ext
				}
			} else if v.Signed && ta == 1 {
				out.A |= ext
			}
		}
	}
	return out
}

// Eq234 reports exact 4-state equality (the === operator).
func (v Value) EqExact(o Value) bool {
	w := v.W
	if o.W > w {
		w = o.W
	}
	a := v.Extend(w)
	b := o.Extend(w)
	return a.A&mask(w) == b.A&mask(w) && a.B&mask(w) == b.B&mask(w)
}

// String renders the value as a binary literal for diagnostics.
func (v Value) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'b", v.W)
	for i := v.W - 1; i >= 0; i-- {
		a, b := v.Bit(i)
		switch {
		case b == 0 && a == 0:
			sb.WriteByte('0')
		case b == 0 && a == 1:
			sb.WriteByte('1')
		case b == 1 && a == 0:
			sb.WriteByte('z')
		default:
			sb.WriteByte('x')
		}
	}
	return sb.String()
}

// --- Bitwise operations with x/z propagation ---

// Not computes ~v; x/z bits produce x.
func Not(v Value) Value {
	m := mask(v.W)
	a := ^v.A & m
	// x/z inputs -> x output (a=1,b=1).
	a |= v.B
	return Value{W: v.W, A: a, B: v.B}
}

func binWidth(x, y Value) int {
	if x.W > y.W {
		return x.W
	}
	return y.W
}

// And computes x & y with 0-dominance: 0 & anything = 0.
func And(x, y Value) Value {
	w := binWidth(x, y)
	x, y = x.Extend(w), y.Extend(w)
	m := mask(w)
	defX, defY := ^x.B&m, ^y.B&m
	zeroX := defX &^ x.A // defined zeros of x
	zeroY := defY &^ y.A
	ones := (x.A & defX) & (y.A & defY)
	zero := zeroX | zeroY
	unk := m &^ (ones | zero)
	return Value{W: w, A: ones | unk, B: unk}
}

// Or computes x | y with 1-dominance: 1 | anything = 1.
func Or(x, y Value) Value {
	w := binWidth(x, y)
	x, y = x.Extend(w), y.Extend(w)
	m := mask(w)
	defX, defY := ^x.B&m, ^y.B&m
	ones := (x.A & defX) | (y.A & defY)
	zero := (defX &^ x.A) & (defY &^ y.A)
	unk := m &^ (ones | zero)
	return Value{W: w, A: ones | unk, B: unk}
}

// Xor computes x ^ y; any x/z bit produces x.
func Xor(x, y Value) Value {
	w := binWidth(x, y)
	x, y = x.Extend(w), y.Extend(w)
	m := mask(w)
	unk := (x.B | y.B) & m
	a := (x.A ^ y.A) & m
	a = a&^unk | unk
	return Value{W: w, A: a, B: unk}
}

// Xnor computes ~(x ^ y).
func Xnor(x, y Value) Value { return Not(Xor(x, y)) }

// --- Reductions ---

// ReduceAnd returns &v as a 1-bit value.
func ReduceAnd(v Value) Value {
	m := mask(v.W)
	if (^v.B&m)&^v.A != 0 { // any defined 0
		return Bool(false)
	}
	if v.B&m != 0 {
		return X(1)
	}
	return Bool(v.A&m == m)
}

// ReduceOr returns |v as a 1-bit value.
func ReduceOr(v Value) Value {
	m := mask(v.W)
	if v.A&^v.B&m != 0 { // any defined 1
		return Bool(true)
	}
	if v.B&m != 0 {
		return X(1)
	}
	return Bool(false)
}

// ReduceXor returns ^v as a 1-bit value.
func ReduceXor(v Value) Value {
	m := mask(v.W)
	if v.B&m != 0 {
		return X(1)
	}
	n := 0
	for bits := v.A & m; bits != 0; bits &= bits - 1 {
		n++
	}
	return Bool(n%2 == 1)
}

// --- Arithmetic (x/z anywhere poisons the result, per LRM) ---

func bothSigned(x, y Value) bool { return x.Signed && y.Signed }

// Add computes x + y modulo 2^w.
func Add(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() {
		return X(w)
	}
	sg := bothSigned(x, y)
	xe, ye := x.Extend(w), y.Extend(w)
	return Value{W: w, A: (xe.A + ye.A) & mask(w), Signed: sg}
}

// Sub computes x - y modulo 2^w.
func Sub(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() {
		return X(w)
	}
	sg := bothSigned(x, y)
	xe, ye := x.Extend(w), y.Extend(w)
	return Value{W: w, A: (xe.A - ye.A) & mask(w), Signed: sg}
}

// Neg computes -x modulo 2^w.
func Neg(x Value) Value {
	if x.HasXZ() {
		return X(x.W)
	}
	return Value{W: x.W, A: (-x.A) & mask(x.W), Signed: x.Signed}
}

// Mul computes x * y modulo 2^w.
func Mul(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() {
		return X(w)
	}
	sg := bothSigned(x, y)
	if sg {
		return Value{W: w, A: uint64(x.Extend(w).Int64()*y.Extend(w).Int64()) & mask(w), Signed: true}
	}
	return Value{W: w, A: (x.Uint64() * y.Uint64()) & mask(w)}
}

// Div computes x / y; division by zero yields x (all-unknown).
func Div(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() || y.Uint64() == 0 {
		return X(w)
	}
	if bothSigned(x, y) {
		return Value{W: w, A: uint64(x.Extend(w).Int64()/y.Extend(w).Int64()) & mask(w), Signed: true}
	}
	return Value{W: w, A: (x.Uint64() / y.Uint64()) & mask(w)}
}

// Mod computes x % y; modulo by zero yields x (all-unknown).
func Mod(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() || y.Uint64() == 0 {
		return X(w)
	}
	if bothSigned(x, y) {
		return Value{W: w, A: uint64(x.Extend(w).Int64()%y.Extend(w).Int64()) & mask(w), Signed: true}
	}
	return Value{W: w, A: (x.Uint64() % y.Uint64()) & mask(w)}
}

// Pow computes x ** y (unsigned exponentiation modulo 2^w).
func Pow(x, y Value) Value {
	w := binWidth(x, y)
	if x.HasXZ() || y.HasXZ() {
		return X(w)
	}
	return Value{W: w, A: verilog.IntPow(x.Uint64(), y.Uint64()) & mask(w)}
}

// --- Shifts ---

// Shl computes x << n.
func Shl(x, n Value) Value {
	if n.HasXZ() {
		return X(x.W)
	}
	sh := n.Uint64()
	if sh >= 64 {
		return Value{W: x.W}
	}
	return Value{W: x.W, A: x.A << sh & mask(x.W), B: x.B << sh & mask(x.W), Signed: x.Signed}
}

// Shr computes x >> n (logical).
func Shr(x, n Value) Value {
	if n.HasXZ() {
		return X(x.W)
	}
	sh := n.Uint64()
	if sh >= 64 {
		return Value{W: x.W}
	}
	m := mask(x.W)
	return Value{W: x.W, A: (x.A & m) >> sh, B: (x.B & m) >> sh, Signed: x.Signed}
}

// Sshr computes x >>> n: arithmetic when x is signed, else logical.
func Sshr(x, n Value) Value {
	if !x.Signed {
		return Shr(x, n)
	}
	if n.HasXZ() {
		return X(x.W)
	}
	sh := n.Uint64()
	if sh >= uint64(x.W) {
		sh = uint64(x.W)
	}
	ta, tb := x.Bit(x.W - 1)
	out := Shr(x, FromUint64(sh, 32))
	if sh > 0 {
		ext := mask(x.W) &^ mask(x.W-int(sh))
		if tb == 1 {
			out.B |= ext
			if ta == 1 {
				out.A |= ext
			}
		} else if ta == 1 {
			out.A |= ext
		}
	}
	out.Signed = true
	return out
}

// --- Comparisons ---

// EqLogical computes == (x/z anywhere yields x).
func EqLogical(x, y Value) Value {
	if x.HasXZ() || y.HasXZ() {
		return X(1)
	}
	w := binWidth(x, y)
	if bothSigned(x, y) {
		return Bool(x.Extend(w).Int64() == y.Extend(w).Int64())
	}
	return Bool(x.Extend(w).Uint64() == y.Extend(w).Uint64())
}

// Less computes x < y (x/z anywhere yields x).
func Less(x, y Value) Value {
	if x.HasXZ() || y.HasXZ() {
		return X(1)
	}
	w := binWidth(x, y)
	if bothSigned(x, y) {
		return Bool(x.Extend(w).Int64() < y.Extend(w).Int64())
	}
	return Bool(x.Extend(w).Uint64() < y.Extend(w).Uint64())
}

// Merge implements the ternary operator's x-merge: where the two arms
// agree on a defined bit the result keeps it, otherwise the bit is x.
func Merge(x, y Value) Value {
	w := binWidth(x, y)
	xe, ye := x.Extend(w), y.Extend(w)
	m := mask(w)
	same := ^(xe.A ^ ye.A) & ^(xe.B | ye.B) & m
	a := xe.A & same
	unk := m &^ same
	return Value{W: w, A: a | unk, B: unk}
}

// Concat joins parts MSB-first into one vector.
func Concat(parts []Value) Value {
	w := 0
	for _, p := range parts {
		w += p.W
	}
	if w > 64 {
		return X(64)
	}
	out := Value{W: w}
	sh := w
	for _, p := range parts {
		sh -= p.W
		out.A |= (p.A & mask(p.W)) << uint(sh)
		out.B |= (p.B & mask(p.W)) << uint(sh)
	}
	return out
}

// Slice extracts bits [hi:lo] of v (hi >= lo); out-of-range bits read x.
func Slice(v Value, hi, lo int) Value {
	w := hi - lo + 1
	if w <= 0 {
		return X(1)
	}
	if w > 64 {
		return X(64)
	}
	out := Value{W: w}
	for i := 0; i < w; i++ {
		a, b := v.Bit(lo + i)
		out.A |= a << uint(i)
		out.B |= b << uint(i)
	}
	return out
}
