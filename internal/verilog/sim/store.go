package sim

import (
	"repro/internal/verilog"
)

// nbaUpdate is a pending non-blocking assignment: target coordinates are
// resolved at schedule time per the LRM; the write lands in the NBA
// region of the current time slot (or a later slot for #d <= delays).
type nbaUpdate struct {
	sig  *Signal
	word int
	mask uint64 // bits of the word to overwrite
	a, b uint64 // new plane bits, pre-shifted
}

// slot is where w bits of a resolved assignment target land: bits
// [off, off+w) of word word of sig or, with sig nil, nowhere (a select
// whose index is x/z or out of range, whose bits a concatenation still
// counts).
type slot struct {
	sig          *Signal
	word, off, w int
}

// resolve resolves an lvalue once, appending its slots to dst MSB first;
// the target's width is the sum of theirs. An x/z part-select bound is
// an error when strict (an assignment's target, and every part of a
// concatenation) and a target that takes nothing otherwise (a bare
// output-port connection, and a target resolved again after an
// intra-assignment delay).
func (s *Simulator) resolve(sc *Scope, lhs verilog.Expr, strict bool, dst []slot) ([]slot, error) {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig, err := targetSignal(sc, v, "")
		if err != nil {
			return nil, err
		}
		if sig.IsArray {
			return nil, rte(sc.Name, "cannot assign whole memory %q", v.Name)
		}
		return append(dst, slot{sig: sig, w: sig.W}), nil

	case *verilog.Index:
		sig, err := targetSignal(sc, v.X, "index")
		if err != nil {
			return nil, err
		}
		idx, err := s.eval(sc, v.Idx, 0)
		if err != nil {
			return nil, err
		}
		sl := slot{sig: sig, w: 1}
		if sig.IsArray {
			sl.w, sl.word = sig.W, sig.wordIndex(int(idx.Int64()))
		} else {
			sl.off = sig.bitOffset(int(idx.Int64()))
		}
		if idx.HasXZ() || sl.word < 0 || sl.off < 0 {
			sl.sig = nil
		}
		return append(dst, sl), nil

	case *verilog.RangeSel:
		sig, err := targetSignal(sc, v.X, "range select")
		if err != nil {
			return nil, err
		}
		if sig.IsArray {
			return nil, rte(sc.Name, "part-select on memory %q", v.X.(*verilog.Ident).Name)
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
			if strict {
				return nil, rte(sc.Name, "x/z part-select bounds on lvalue")
			}
			return dst, nil
		}
		msb, lsb := int(msbV.Int64()), int(lsbV.Int64())
		hi, lo := sig.bitOffset(msb), sig.bitOffset(lsb)
		if hi < lo {
			hi, lo = lo, hi
		}
		if lo < 0 {
			return append(dst, slot{w: max(msb, lsb) - min(msb, lsb) + 1}), nil
		}
		return append(dst, slot{sig: sig, off: lo, w: hi - lo + 1}), nil

	case *verilog.Concat:
		n := len(dst)
		for _, p := range v.Parts {
			var err error
			if dst, err = s.resolve(sc, p, true, dst); err != nil {
				return nil, err
			}
		}
		if width(dst[n:]) > 64 {
			return nil, rte(sc.Name, "lvalue concatenation wider than 64 bits")
		}
		return dst, nil
	}
	return nil, rte(sc.Name, "unsupported lvalue %T", lhs)
}

// targetSignal returns the signal x names, where x is an assignment
// target or the target of its select sel.
func targetSignal(sc *Scope, x verilog.Expr, sel string) (*Signal, error) {
	id, ok := x.(*verilog.Ident)
	if !ok {
		return nil, rte(sc.Name, "unsupported nested lvalue %s", sel)
	}
	sig := sc.lookup(id.Name)
	if sig == nil {
		return nil, rte(sc.Name, "unknown assignment target %q", id.Name)
	}
	return sig, nil
}

// width returns the number of bits slots take.
func width(slots []slot) int {
	w := 0
	for _, sl := range slots {
		w += sl.w
	}
	return w
}

// write splits val, extended to the slots' width, across them MSB
// first: into their signals at once or, with nba, into the NBA region.
func (s *Simulator) write(slots []slot, val Value, nba bool) {
	pos := width(slots)
	ev := val.Extend(pos)
	for _, sl := range slots {
		pos -= sl.w
		if sl.sig == nil {
			continue
		}
		m := mask(sl.w)
		u := nbaUpdate{sig: sl.sig, word: sl.word, mask: m << uint(sl.off),
			a: (ev.A >> uint(pos) & m) << uint(sl.off), b: (ev.B >> uint(pos) & m) << uint(sl.off)}
		if nba {
			s.nbaQ = append(s.nbaQ, u)
		} else {
			s.applyUpdate(u)
		}
	}
}

// applyUpdate performs a masked word write and propagates the change.
func (s *Simulator) applyUpdate(u nbaUpdate) {
	cur := u.sig.Words[u.word]
	newA := cur.A&^u.mask | u.a
	newB := cur.B&^u.mask | u.b
	if newA == cur.A && newB == cur.B {
		return
	}
	old := cur
	cur.A, cur.B = newA, newB
	u.sig.Words[u.word] = cur
	s.propagate(u.sig, old, cur)
}

// setSignal writes a whole word of a signal and propagates.
func (s *Simulator) setSignal(sig *Signal, word int, v Value) {
	cur := sig.Words[word]
	ev := v.Extend(sig.W)
	m := mask(sig.W)
	if ev.A&m == cur.A&m && ev.B&m == cur.B&m {
		return
	}
	old := cur
	cur.A, cur.B = ev.A&m, ev.B&m
	sig.Words[word] = cur
	s.propagate(sig, old, cur)
}

// propagate queues combinational fanout and wakes procedural waiters
// whose sensitivity matches the change.
func (s *Simulator) propagate(sig *Signal, old, new Value) {
	for _, cp := range sig.combs {
		if !cp.queued {
			cp.queued = true
			s.combQ = append(s.combQ, cp)
		}
	}
	if len(sig.watchers) == 0 {
		return
	}
	kept := sig.watchers[:0]
	for _, w := range sig.watchers {
		if w.fired {
			continue // lazily drop stale entries
		}
		if s.checkWaiter(w, sig) {
			w.fired = true
			s.runnable = append(s.runnable, w.proc)
			continue
		}
		kept = append(kept, w)
	}
	sig.watchers = kept
}

// checkWaiter re-evaluates the sensitivity items of w that depend on sig
// and reports whether any of them triggered.
func (s *Simulator) checkWaiter(w *waiter, sig *Signal) bool {
	trig := false
	for _, item := range w.items {
		depends := false
		for _, d := range item.deps {
			if d == sig {
				depends = true
				break
			}
		}
		if !depends {
			continue
		}
		if item.anyChange {
			trig = true
			continue
		}
		nv, err := s.eval(item.sc, item.expr, 0)
		if err != nil {
			continue // conservatively ignore: the process re-raises on wake
		}
		if edgeTriggered(item.edge, item.last, nv) {
			trig = true
		}
		item.last = nv
	}
	return trig
}

// edgeTriggered implements LRM edge semantics on the LSB for posedge and
// negedge, and any-change semantics for level sensitivity.
func edgeTriggered(edge int, old, new Value) bool {
	switch edge {
	case verilog.EdgeLevel:
		m := mask(old.W)
		if new.W > old.W {
			m = mask(new.W)
		}
		return old.A&m != new.A&m || old.B&m != new.B&m
	case verilog.EdgePos:
		oa, ob := old.Bit(0)
		na, nb := new.Bit(0)
		oldIs0 := oa == 0 && ob == 0
		oldIsXZ := ob == 1
		newIs1 := na == 1 && nb == 0
		newIsXZ := nb == 1
		return (oldIs0 && (newIs1 || newIsXZ)) || (oldIsXZ && newIs1)
	case verilog.EdgeNeg:
		oa, ob := old.Bit(0)
		na, nb := new.Bit(0)
		oldIs1 := oa == 1 && ob == 0
		oldIsXZ := ob == 1
		newIs0 := na == 0 && nb == 0
		newIsXZ := nb == 1
		return (oldIs1 && (newIs0 || newIsXZ)) || (oldIsXZ && newIs0)
	}
	return false
}
