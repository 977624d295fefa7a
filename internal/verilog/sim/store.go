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
	noop bool   // invalid index at schedule time: discard silently
}

// store writes val to an lvalue. When nba is true the write is deferred
// to the NBA region; otherwise it takes effect immediately (blocking
// assignment / continuous assignment semantics).
func (s *Simulator) store(sc *Scope, lhs verilog.Expr, val Value, nba bool) error {
	upd, err := s.resolveStore(sc, lhs, val)
	if err != nil {
		return err
	}
	for _, u := range upd {
		if u.noop {
			continue
		}
		if nba {
			s.nbaQ = append(s.nbaQ, u)
		} else {
			s.applyUpdate(u)
		}
	}
	return nil
}

// resolveStore flattens an lvalue into word-level masked updates.
func (s *Simulator) resolveStore(sc *Scope, lhs verilog.Expr, val Value) ([]nbaUpdate, error) {
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
		return []nbaUpdate{{sig: sig, word: 0, mask: mask(sig.W), a: ev.A & mask(sig.W), b: ev.B & mask(sig.W)}}, nil

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
			return []nbaUpdate{{noop: true}}, nil
		}
		i := int(idx.Int64())
		if sig.IsArray {
			wi := sig.wordIndex(i)
			if wi < 0 {
				return []nbaUpdate{{noop: true}}, nil
			}
			ev := val.Extend(sig.W)
			return []nbaUpdate{{sig: sig, word: wi, mask: mask(sig.W), a: ev.A & mask(sig.W), b: ev.B & mask(sig.W)}}, nil
		}
		off := sig.bitOffset(i)
		if off < 0 {
			return []nbaUpdate{{noop: true}}, nil
		}
		a, b := val.Bit(0)
		return []nbaUpdate{{sig: sig, word: 0, mask: 1 << uint(off), a: a << uint(off), b: b << uint(off)}}, nil

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
			return []nbaUpdate{{noop: true}}, nil
		}
		hi := sig.bitOffset(int(msbV.Int64()))
		lo := sig.bitOffset(int(lsbV.Int64()))
		if hi < lo {
			hi, lo = lo, hi
		}
		if hi < 0 || lo < 0 {
			return []nbaUpdate{{noop: true}}, nil
		}
		w := hi - lo + 1
		ev := val.Extend(w)
		m := mask(w) << uint(lo)
		return []nbaUpdate{{sig: sig, word: 0, mask: m, a: (ev.A & mask(w)) << uint(lo), b: (ev.B & mask(w)) << uint(lo)}}, nil

	case *verilog.Concat:
		// MSB-first split of val across the parts.
		total := 0
		widths := make([]int, len(v.Parts))
		for i, p := range v.Parts {
			w, err := s.lvalueWidth(sc, p)
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
		var out []nbaUpdate
		pos := total
		for i, p := range v.Parts {
			pos -= widths[i]
			part := Slice(ev, pos+widths[i]-1, pos)
			upd, err := s.resolveStore(sc, p, part)
			if err != nil {
				return nil, err
			}
			out = append(out, upd...)
		}
		return out, nil
	}
	return nil, rte(sc.Name, "unsupported lvalue %T", lhs)
}

// lvalueWidth returns the store width of an lvalue part.
func (s *Simulator) lvalueWidth(sc *Scope, lhs verilog.Expr) (int, error) {
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
			w, err := s.lvalueWidth(sc, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	}
	return 0, rte(sc.Name, "unsupported lvalue %T", lhs)
}

// applyUpdate performs a masked word write and propagates the change.
func (s *Simulator) applyUpdate(u nbaUpdate) {
	if u.noop {
		return
	}
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
