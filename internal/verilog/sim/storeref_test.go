package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/verilog"
)

// This file keeps the simulator's two store-target resolvers as they
// were before they became one, resolve: refLvalueWidth (the width an
// assignment evaluates its right-hand side at) and refResolveStore (the
// word-level updates a value lands in). They are the reference that
// checkStoreMatchesReference holds resolve and write to.

// refUpdate is an update of refResolveStore: an nbaUpdate, or with noop
// set a target that takes nothing.
type refUpdate struct {
	nbaUpdate
	noop bool
}

// checkStoreMatchesReference elaborates src under top and compares the
// resolver with the reference on every assignment target of every
// instance (continuous, procedural, in a for loop's steps) and on every
// output-port connection, in the instance's scope, with every signal
// word set to a random 4-state value, reps times each. It returns the
// number of comparisons made.
func checkStoreMatchesReference(t *testing.T, name, src, top string, reps int, rng *rand.Rand) int {
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
			switch v := node.(type) {
			case *verilog.ContAssign:
				n += compareStore(t, name, s, sc, v.LHS, true, reps, rng)
			case *verilog.Assign:
				n += compareStore(t, name, s, sc, v.LHS, true, reps, rng)
			case *verilog.Instance:
				for _, lhs := range outputConns(sc, v) {
					n += compareStore(t, name, s, sc, lhs, false, reps, rng)
				}
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

// outputConns returns the expressions inst connects to output ports.
func outputConns(sc *Scope, inst *verilog.Instance) []verilog.Expr {
	var mod *verilog.Module
	for _, kid := range sc.Kids {
		if kid.Name == sc.Name+"."+inst.InstName {
			mod = kid.Module
		}
	}
	var out []verilog.Expr
	for i, c := range inst.Conns {
		port := (*verilog.Port)(nil)
		if inst.ByName {
			port = mod.PortByName(c.Port)
		} else if i < len(mod.Ports) {
			port = mod.Ports[i]
		}
		if port != nil && port.Dir == verilog.PortOutput && c.Expr != nil {
			out = append(out, c.Expr)
		}
	}
	return out
}

// compareStore compares resolve and write with the reference on lhs,
// reps times, each with fresh random signal words and a random value.
// Every target is compared as the reference resolved an output-port
// connection, and a target after an intra-assignment delay:
// refResolveStore alone. An assignment's target (assign) is compared
// as the reference resolved it too: refLvalueWidth, then
// refResolveStore with a value at least that wide, widths included.
func compareStore(t *testing.T, name string, s *Simulator, sc *Scope, lhs verilog.Expr, assign bool, reps int, rng *rand.Rand) int {
	n := 0
	for range reps {
		randomizeSignals(s, rng)
		seed := s.rng
		for _, strict := range []bool{false, assign} {
			s.rng = seed
			want, wantErr := 0, error(nil)
			if strict {
				want, wantErr = s.refLvalueWidth(sc, lhs)
			}
			w := 1 + rng.IntN(64)
			if strict {
				w = max(want, 1) + rng.IntN(3)
			}
			val := Value{W: w, A: rng.Uint64() & mask(w), B: rng.Uint64() & rng.Uint64() & mask(w), Signed: rng.IntN(2) == 0}
			var wantUpd []nbaUpdate
			if wantErr == nil {
				s.rng = seed
				var upd []refUpdate
				upd, wantErr = s.refResolveStore(sc, lhs, val)
				for _, u := range upd {
					if !u.noop {
						wantUpd = append(wantUpd, u.nbaUpdate)
					}
				}
			}
			s.rng = seed
			slots, err := s.resolve(sc, lhs, strict, nil)
			var got []nbaUpdate
			if err == nil {
				s.nbaQ = nil
				s.write(slots, val, true)
				got = s.nbaQ
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, wantUpd) || strict && err == nil && width(slots) != want {
				t.Errorf("%s: %s line %d (strict %v): store %+v = width %d, %+v, %v; reference = width %d, %+v, %v",
					name, sc.Name, lhs.Pos(), strict, val, width(slots), got, err, want, wantUpd, wantErr)
			}
			n++
			if !assign {
				break
			}
		}
	}
	s.nbaQ = nil
	return n
}

// randomizeSignals sets every signal word of s's design to a random
// 4-state value.
func randomizeSignals(s *Simulator, rng *rand.Rand) {
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
}

// refResolveStore flattens an lvalue into word-level masked updates.
func (s *Simulator) refResolveStore(sc *Scope, lhs verilog.Expr, val Value) ([]refUpdate, error) {
	upd := func(sig *Signal, word int, mask, a, b uint64) []refUpdate {
		return []refUpdate{{nbaUpdate: nbaUpdate{sig: sig, word: word, mask: mask, a: a, b: b}}}
	}
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig := sc.lookup(v.Name)
		if sig == nil {
			return nil, rte(sc.Name, "unknown assignment target %q", v.Name)
		}
		if sig.IsArray {
			return nil, rte(sc.Name, "cannot assign whole memory %q", v.Name)
		}
		ev := val.Extend(sig.W)
		return upd(sig, 0, mask(sig.W), ev.A&mask(sig.W), ev.B&mask(sig.W)), nil

	case *verilog.Index:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, rte(sc.Name, "unsupported nested lvalue index")
		}
		sig := sc.lookup(id.Name)
		if sig == nil {
			return nil, rte(sc.Name, "unknown assignment target %q", id.Name)
		}
		idx, err := s.eval(sc, v.Idx, 0)
		if err != nil {
			return nil, err
		}
		if idx.HasXZ() {
			return []refUpdate{{noop: true}}, nil
		}
		i := int(idx.Int64())
		if sig.IsArray {
			wi := sig.wordIndex(i)
			if wi < 0 {
				return []refUpdate{{noop: true}}, nil
			}
			ev := val.Extend(sig.W)
			return upd(sig, wi, mask(sig.W), ev.A&mask(sig.W), ev.B&mask(sig.W)), nil
		}
		off := sig.bitOffset(i)
		if off < 0 {
			return []refUpdate{{noop: true}}, nil
		}
		a, b := val.Bit(0)
		return upd(sig, 0, 1<<uint(off), a<<uint(off), b<<uint(off)), nil

	case *verilog.RangeSel:
		id, ok := v.X.(*verilog.Ident)
		if !ok {
			return nil, rte(sc.Name, "unsupported nested lvalue range select")
		}
		sig := sc.lookup(id.Name)
		if sig == nil {
			return nil, rte(sc.Name, "unknown assignment target %q", id.Name)
		}
		if sig.IsArray {
			return nil, rte(sc.Name, "part-select on memory %q", id.Name)
		}
		msbV, err := s.eval(sc, v.MSB, 0)
		if err != nil {
			return nil, err
		}
		lsbV, err := s.eval(sc, v.LSB, 0)
		if err != nil {
			return nil, err
		}
		if msbV.HasXZ() || lsbV.HasXZ() {
			return []refUpdate{{noop: true}}, nil
		}
		hi := sig.bitOffset(int(msbV.Int64()))
		lo := sig.bitOffset(int(lsbV.Int64()))
		if hi < lo {
			hi, lo = lo, hi
		}
		if hi < 0 || lo < 0 {
			return []refUpdate{{noop: true}}, nil
		}
		w := hi - lo + 1
		ev := val.Extend(w)
		m := mask(w) << uint(lo)
		return upd(sig, 0, m, (ev.A&mask(w))<<uint(lo), (ev.B&mask(w))<<uint(lo)), nil

	case *verilog.Concat:
		// MSB-first split of val across the parts.
		total := 0
		widths := make([]int, len(v.Parts))
		for i, p := range v.Parts {
			w, err := s.refLvalueWidth(sc, p)
			if err != nil {
				return nil, err
			}
			widths[i] = w
			total += w
		}
		if total > 64 {
			return nil, rte(sc.Name, "lvalue concatenation wider than 64 bits")
		}
		ev := val.Extend(total)
		var out []refUpdate
		pos := total
		for i, p := range v.Parts {
			pos -= widths[i]
			part := Slice(ev, pos+widths[i]-1, pos)
			upd, err := s.refResolveStore(sc, p, part)
			if err != nil {
				return nil, err
			}
			out = append(out, upd...)
		}
		return out, nil
	}
	return nil, rte(sc.Name, "unsupported lvalue %T", lhs)
}

// refLvalueWidth returns the store width of an lvalue part.
func (s *Simulator) refLvalueWidth(sc *Scope, lhs verilog.Expr) (int, error) {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig := sc.lookup(v.Name)
		if sig == nil {
			return 0, rte(sc.Name, "unknown assignment target %q", v.Name)
		}
		return sig.W, nil
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
		if msbV.HasXZ() || lsbV.HasXZ() {
			return 0, rte(sc.Name, "x/z part-select bounds on lvalue")
		}
		hi, lo := int(msbV.Int64()), int(lsbV.Int64())
		if hi < lo {
			hi, lo = lo, hi
		}
		return hi - lo + 1, nil
	case *verilog.Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := s.refLvalueWidth(sc, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	}
	return 0, rte(sc.Name, "unsupported lvalue %T", lhs)
}
