package sim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/verilog"
)

// ElabError reports an elaboration failure (unknown module, unknown
// identifier, unsupported lvalue, a parameter override that names no
// parameter, a parameter declared twice, ...). A constant that does not
// fold, or a range too wide, gets here only when an instance's overrides
// make it so (#(.W(100))): at the defaults it is a syntax error.
type ElabError struct {
	Where string
	Msg   string
}

// Error implements the error interface.
func (e *ElabError) Error() string { return fmt.Sprintf("sim: %s: %s", e.Where, e.Msg) }

// Signal is an elaborated net, variable or memory.
type Signal struct {
	Name   string // hierarchical name, e.g. "tb.dut.q"
	W      int
	Signed bool
	Kind   verilog.NetKind
	// Declared bit range; Left/Right preserve source order for index
	// mapping ([7:0] vs [0:7]).
	Left, Right int
	IsArray     bool
	ALo, AHi    int // normalized array bounds, ALo <= AHi
	Words       []Value

	combs    []*CombProc // static fanout: continuous assignments to re-run
	watchers []*waiter   // procedural processes waiting on this signal
	id       int
}

// bitOffset maps a source bit index to a physical offset (0 = LSB of
// storage), or -1 when out of the declared range.
func (s *Signal) bitOffset(i int) int {
	if s.Left >= s.Right {
		off := i - s.Right
		if off < 0 || off >= s.W {
			return -1
		}
		return off
	}
	off := s.Right - i
	if off < 0 || off >= s.W {
		return -1
	}
	return off
}

// wordIndex maps a source array index to a Words offset, or -1.
func (s *Signal) wordIndex(i int) int {
	if !s.IsArray {
		return -1
	}
	if i < s.ALo || i > s.AHi {
		return -1
	}
	return i - s.ALo
}

// CombProc is a combinational process: a continuous assignment or a
// port-connection shim, re-evaluated whenever one of its dependencies
// changes.
type CombProc struct {
	name   string
	run    func(sim *Simulator) error
	queued bool
}

// procKind distinguishes always from initial processes.
type procKind int

const (
	procAlways procKind = iota
	procInitial
)

// Proc is a procedural process (always or initial block), run as an
// iter.Pull coroutine that the scheduler resumes and that yields each
// time it blocks.
type Proc struct {
	name  string
	kind  procKind
	scope *Scope
	body  verilog.Stmt
	// starSens holds the precomputed @* sensitivity of the body.
	starSens []*Signal

	next func() (procReport, bool) // resume until the next block; false once ended
	stop func()
	err  error // the runtime error that ended the process, if any
}

// procReport is what a blocked process waits on: the armed
// sensitivity of an event control, or, when sens is empty, a delay.
type procReport struct {
	sens  []*sensWait
	delay uint64
}

// sensWait is one armed sensitivity entry of a blocked process.
type sensWait struct {
	edge int // verilog.EdgeLevel/Pos/Neg
	// anyChange short-circuits expression re-evaluation: any write to a
	// dep signal triggers (used by @* sensitivity).
	anyChange bool
	expr      verilog.Expr
	sc        *Scope
	last      Value
	deps      []*Signal
}

// waiter links a blocked process to the signals that may wake it.
type waiter struct {
	proc  *Proc
	items []*sensWait
	fired bool
}

// Scope is an elaborated module instance: its signals, parameter values
// and child instances.
type Scope struct {
	Name    string
	Module  *verilog.Module
	Parent  *Scope
	Signals map[string]*Signal
	Params  map[string]int64
	Kids    []*Scope
}

// lookup resolves a name in this scope only (no upward search: the
// supported subset has no cross-module hierarchical references).
func (sc *Scope) lookup(name string) *Signal { return sc.Signals[name] }

// Design is a fully elaborated hierarchy ready for simulation.
type Design struct {
	Top     *Scope
	Signals []*Signal
	Combs   []*CombProc
	Procs   []*Proc
}

// Elaborate builds a Design from the modules of one or more parsed
// source files, instantiating top as the root.
func Elaborate(files []*verilog.SourceFile, top string) (*Design, error) {
	lib := map[string]*verilog.Module{}
	for _, f := range files {
		for _, m := range f.Modules {
			if _, dup := lib[m.Name]; dup {
				return nil, &ElabError{Where: m.Name, Msg: "duplicate module definition"}
			}
			lib[m.Name] = m
		}
	}
	mod, ok := lib[top]
	if !ok {
		return nil, &ElabError{Where: top, Msg: "top module not found"}
	}
	d := &Design{}
	e := &elaborator{lib: lib, d: d, depth: 0}
	sc, err := e.instantiate(mod, top, nil, nil)
	if err != nil {
		return nil, err
	}
	d.Top = sc
	return d, nil
}

// FindTop returns the name of a module that is never instantiated by
// another module in the files — the natural testbench top. When several
// candidates exist the lexically smallest is returned for determinism.
func FindTop(files []*verilog.SourceFile) (string, error) {
	defined := map[string]bool{}
	used := map[string]bool{}
	for _, f := range files {
		for _, m := range f.Modules {
			defined[m.Name] = true
			for _, it := range m.Items {
				if inst, ok := it.(*verilog.Instance); ok {
					used[inst.ModName] = true
				}
			}
		}
	}
	var tops []string
	for name := range defined {
		if !used[name] {
			tops = append(tops, name)
		}
	}
	if len(tops) == 0 {
		return "", &ElabError{Where: "design", Msg: "no top-level module (instantiation cycle?)"}
	}
	sort.Strings(tops)
	return tops[0], nil
}

type elaborator struct {
	lib   map[string]*verilog.Module
	d     *Design
	depth int
}

const maxHierDepth = 64

// instantiate elaborates mod as the scope name under parent; inst is
// the instantiation (nil for the top), whose parameter overrides apply.
func (e *elaborator) instantiate(mod *verilog.Module, name string, parent *Scope, inst *verilog.Instance) (*Scope, error) {
	if e.depth++; e.depth > maxHierDepth {
		return nil, &ElabError{Where: name, Msg: "instantiation too deep (recursive modules?)"}
	}
	defer func() { e.depth-- }()

	sc := &Scope{
		Name:    name,
		Module:  mod,
		Parent:  parent,
		Signals: map[string]*Signal{},
		Params:  map[string]int64{},
	}
	if parent != nil {
		parent.Kids = append(parent.Kids, sc)
	}

	// Pass 1: parameters, ports and nets, folded as written.
	if err := e.declare(sc, inst); err != nil {
		return nil, err
	}

	// Pass 2: behaviour.
	for _, it := range mod.Items {
		switch item := it.(type) {
		case *verilog.ParamDecl, *verilog.NetDecl:
			// declared in pass 1 (initializers applied at sim start)
		case *verilog.ContAssign:
			if err := e.addContAssign(sc, item); err != nil {
				return nil, err
			}
		case *verilog.AlwaysBlock:
			if err := e.addProc(sc, procAlways, item.Body, fmt.Sprintf("%s.always@%d", sc.Name, item.Line)); err != nil {
				return nil, err
			}
		case *verilog.InitialBlock:
			if err := e.addProc(sc, procInitial, item.Body, fmt.Sprintf("%s.initial@%d", sc.Name, item.Line)); err != nil {
				return nil, err
			}
		case *verilog.Instance:
			if err := e.addInstance(sc, item); err != nil {
				return nil, err
			}
		default:
			return nil, &ElabError{Where: sc.Name, Msg: fmt.Sprintf("unsupported module item %T", it)}
		}
	}
	return sc, nil
}

// declare elaborates sc's parameters, ports and nets as written: a
// parameter folds in those declared before it unless inst overrides it,
// and every range folds in the final values. A parameter declared twice
// is an error, so at the defaults those are the values the parser saw.
func (e *elaborator) declare(sc *Scope, inst *verilog.Instance) error {
	overrides, err := paramOverrides(sc, inst)
	if err != nil {
		return err
	}
	for _, it := range sc.Module.Items {
		pd, ok := it.(*verilog.ParamDecl)
		if !ok {
			continue
		}
		for i, pn := range pd.Names {
			if _, dup := sc.Params[pn]; dup {
				return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("parameter %q declared twice", pn)}
			}
			v, over := overrides[pn]
			if !over {
				if v, err = verilog.Fold(pd.Values[i], sc.Params); err != nil {
					return &ElabError{Where: sc.Name, Msg: err.Error()}
				}
			}
			sc.Params[pn] = v
		}
	}
	for _, port := range sc.Module.Ports {
		var r verilog.Range
		if port.HasRng {
			if r, err = sc.foldRange(port.Name, port.Rng, false); err != nil {
				return err
			}
		}
		e.addSignal(sc, port.Name, r.Width(), r.MSB, r.LSB, port.Kind, port.Signed, false, 0, 0)
	}
	for _, it := range sc.Module.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		var r verilog.Range
		if nd.Kind == verilog.NetInteger {
			r.MSB = 31
		}
		if nd.HasRng {
			if r, err = sc.foldRange(nd.Names[0].Name, nd.Rng, false); err != nil {
				return err
			}
		}
		for _, dn := range nd.Names {
			if !dn.IsArray {
				e.addSignal(sc, dn.Name, r.Width(), r.MSB, r.LSB, nd.Kind, nd.Signed, false, 0, 0)
				continue
			}
			a, err := sc.foldRange(dn.Name, dn.ARng, true)
			if err != nil {
				return err
			}
			e.addSignal(sc, dn.Name, r.Width(), r.MSB, r.LSB, nd.Kind, nd.Signed, true, min(a.MSB, a.LSB), max(a.MSB, a.LSB))
		}
	}
	return nil
}

// foldRange folds r's bound expressions in sc's parameters and checks
// its span; name is the declared name an error reports.
func (sc *Scope) foldRange(name string, r verilog.Range, memory bool) (verilog.Range, error) {
	r, err := verilog.FoldRange(r.MSBExpr, r.LSBExpr, sc.Params, memory)
	if err != nil {
		return r, &ElabError{Where: sc.Name + "." + name, Msg: err.Error()}
	}
	return r, nil
}

func (e *elaborator) addSignal(sc *Scope, name string, w, left, right int, kind verilog.NetKind, signed, isArray bool, alo, ahi int) *Signal {
	if old, ok := sc.Signals[name]; ok {
		// Port re-declared by a body NetDecl: merge kind/sign/width.
		old.Kind = kind
		old.Signed = old.Signed || signed
		if w > 1 && old.W == 1 {
			old.W, old.Left, old.Right = w, left, right
			old.Words = []Value{X(w)}
		}
		if isArray {
			old.IsArray, old.ALo, old.AHi = true, alo, ahi
			old.Words = make([]Value, ahi-alo+1)
			for i := range old.Words {
				old.Words[i] = X(w)
			}
		}
		return old
	}
	s := &Signal{
		Name: sc.Name + "." + name, W: w, Signed: signed, Kind: kind,
		Left: left, Right: right, IsArray: isArray, ALo: alo, AHi: ahi,
		id: len(e.d.Signals),
	}
	n := 1
	if isArray {
		n = ahi - alo + 1
	}
	s.Words = make([]Value, n)
	for i := range s.Words {
		s.Words[i] = X(w)
	}
	s.Words[0].Signed = signed
	sc.Signals[name] = s
	e.d.Signals = append(e.d.Signals, s)
	return s
}

func (e *elaborator) addContAssign(sc *Scope, ca *verilog.ContAssign) error {
	deps := map[*Signal]bool{}
	if err := collectDeps(sc, ca.RHS, deps); err != nil {
		return err
	}
	if err := collectLHSIndexDeps(sc, ca.LHS, deps); err != nil {
		return err
	}
	lhs, rhs := ca.LHS, ca.RHS
	e.addComb(fmt.Sprintf("%s.assign@%d", sc.Name, ca.Line), deps, func(s *Simulator) error {
		slots, err := s.resolve(sc, lhs, true, nil)
		if err != nil {
			return err
		}
		v, err := s.eval(sc, rhs, width(slots))
		if err != nil {
			return err
		}
		s.write(slots, v, false)
		return nil
	})
	return nil
}

// addComb registers a combinational process that runs once at time
// zero and again whenever one of deps changes.
func (e *elaborator) addComb(name string, deps map[*Signal]bool, run func(*Simulator) error) {
	cp := &CombProc{name: name, run: run}
	e.d.Combs = append(e.d.Combs, cp)
	for dep := range deps {
		dep.combs = append(dep.combs, cp)
	}
}

func (e *elaborator) addProc(sc *Scope, kind procKind, body verilog.Stmt, name string) error {
	p := &Proc{name: name, kind: kind, scope: sc, body: body}
	// Precompute @* sensitivity: every signal read by the body.
	deps := map[*Signal]bool{}
	if err := collectDeps(sc, body, deps); err != nil {
		return err
	}
	for dep := range deps {
		p.starSens = append(p.starSens, dep)
	}
	sort.Slice(p.starSens, func(i, j int) bool { return p.starSens[i].id < p.starSens[j].id })
	e.d.Procs = append(e.d.Procs, p)
	return nil
}

// paramOverrides maps each parameter inst overrides to its value,
// folded in the parent instance's parameters: a named override to the
// parameter it names, an ordered one to sc's module's parameters in
// declaration order. A localparam cannot be overridden, so an override
// that reaches no parameter is an error.
func paramOverrides(sc *Scope, inst *verilog.Instance) (map[string]int64, error) {
	if inst == nil || len(inst.Params) == 0 {
		return nil, nil
	}
	mod := sc.Module
	var params []string
	for _, it := range mod.Items {
		if pd, ok := it.(*verilog.ParamDecl); ok && !pd.Localparam {
			params = append(params, pd.Names...)
		}
	}
	out := map[string]int64{}
	for i, o := range inst.Params {
		pn := o.Name
		if pn == "" && i < len(params) {
			pn = params[i]
		}
		if !slices.Contains(params, pn) {
			what := fmt.Sprintf("override of %q", o.Name)
			if o.Name == "" {
				what = fmt.Sprintf("ordered override %d", i+1)
			}
			return nil, &ElabError{Where: sc.Name, Msg: fmt.Sprintf("%s names no parameter of module %s", what, mod.Name)}
		}
		v, err := verilog.Fold(o.Value, sc.Parent.Params)
		if err != nil {
			return nil, &ElabError{Where: sc.Name, Msg: err.Error()}
		}
		out[pn] = v
	}
	return out, nil
}

func (e *elaborator) addInstance(sc *Scope, inst *verilog.Instance) error {
	mod, ok := e.lib[inst.ModName]
	if !ok {
		return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("unknown module %q", inst.ModName)}
	}
	child, err := e.instantiate(mod, sc.Name+"."+inst.InstName, sc, inst)
	if err != nil {
		return err
	}

	// Pair up connections with ports.
	conns := make([]verilog.Connection, len(mod.Ports))
	if inst.ByName {
		byName := map[string]verilog.Connection{}
		for _, c := range inst.Conns {
			byName[c.Port] = c
		}
		for i, port := range mod.Ports {
			if c, ok := byName[port.Name]; ok {
				conns[i] = c
				delete(byName, port.Name)
			}
		}
		for name := range byName {
			return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("instance %s connects unknown port %q of %s", inst.InstName, name, mod.Name)}
		}
	} else {
		if len(inst.Conns) > len(mod.Ports) {
			return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("instance %s has %d connections for %d ports", inst.InstName, len(inst.Conns), len(mod.Ports))}
		}
		copy(conns, inst.Conns)
	}

	for i, port := range mod.Ports {
		conn := conns[i]
		if conn.Expr == nil {
			continue // unconnected: inner side stays x
		}
		inner := child.lookup(port.Name)
		if inner == nil {
			return &ElabError{Where: child.Name, Msg: fmt.Sprintf("port %q has no signal", port.Name)}
		}
		switch port.Dir {
		case verilog.PortInput:
			deps := map[*Signal]bool{}
			if err := collectDeps(sc, conn.Expr, deps); err != nil {
				return err
			}
			e.addComb(fmt.Sprintf("%s.port_in.%s", child.Name, port.Name), deps, func(s *Simulator) error {
				v, err := s.eval(sc, conn.Expr, 0)
				if err != nil {
					return err
				}
				s.setSignal(inner, 0, v.Extend(inner.W))
				return nil
			})
		case verilog.PortOutput:
			// The outer target moves when its selects change.
			deps := map[*Signal]bool{inner: true}
			if err := collectLHSIndexDeps(sc, conn.Expr, deps); err != nil {
				return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("output port %q connected to non-lvalue: %s", port.Name, err.(*ElabError).Msg)}
			}
			e.addComb(fmt.Sprintf("%s.port_out.%s", child.Name, port.Name), deps, func(s *Simulator) error {
				slots, err := s.resolve(sc, conn.Expr, false, nil)
				if err != nil {
					return err
				}
				s.write(slots, inner.Words[0], false)
				return nil
			})
		default:
			return &ElabError{Where: sc.Name, Msg: "inout ports are not supported"}
		}
	}
	return nil
}

// collectLHSIndexDeps records signals read by index/range expressions on
// the left-hand side (the target can move when they change). It fails,
// always with an *ElabError, on an expression that is no lvalue or
// reads an unknown name.
func collectLHSIndexDeps(sc *Scope, e verilog.Expr, deps map[*Signal]bool) error {
	switch v := e.(type) {
	case *verilog.Ident:
		return nil
	case *verilog.Index:
		if err := collectDeps(sc, v.Idx, deps); err != nil {
			return err
		}
		return collectLHSIndexDeps(sc, v.X, deps)
	case *verilog.RangeSel:
		if err := collectDeps(sc, v.MSB, deps); err != nil {
			return err
		}
		if err := collectDeps(sc, v.LSB, deps); err != nil {
			return err
		}
		return collectLHSIndexDeps(sc, v.X, deps)
	case *verilog.Concat:
		for _, p := range v.Parts {
			if err := collectLHSIndexDeps(sc, p, deps); err != nil {
				return err
			}
		}
		return nil
	}
	return &ElabError{Where: sc.Name, Msg: fmt.Sprintf("unsupported lvalue %T", e)}
}

// collectDeps records every signal read under n into deps. An
// assignment target contributes only the signals its selects read (the
// target moves when they change), and a delay contributes nothing. Over
// a statement this is the @* sensitivity approximation (slightly wider
// than the LRM's, which is harmless: extra wakeups converge to the same
// values).
func collectDeps(sc *Scope, n verilog.Node, deps map[*Signal]bool) error {
	var err error
	verilog.Inspect(n, func(n verilog.Node) bool {
		if err != nil {
			return false
		}
		switch v := n.(type) {
		case *verilog.Ident:
			if _, isParam := sc.Params[v.Name]; isParam {
				return false
			}
			sig := sc.lookup(v.Name)
			if sig == nil {
				err = &ElabError{Where: sc.Name, Msg: fmt.Sprintf("unknown identifier %q", v.Name)}
				return false
			}
			deps[sig] = true
		case *verilog.Assign:
			if err = collectDeps(sc, v.RHS, deps); err == nil {
				err = collectLHSIndexDeps(sc, v.LHS, deps)
			}
			return false
		case *verilog.DelayStmt:
			err = collectDeps(sc, v.Body, deps)
			return false
		}
		return true
	})
	return err
}
