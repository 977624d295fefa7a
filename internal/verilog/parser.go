package verilog

import (
	"fmt"
	"maps"
)

// Parser converts a token stream into a SourceFile. It folds every
// parameter value, range bound and instance override at the module's
// defaults, to reject a source whose constants do not fold or whose
// ranges are too wide; the tree keeps the expressions as written, and
// each Range its bounds' values at the defaults beside them.
type Parser struct {
	toks   []Token
	pos    int
	params map[string]int64
	// quiet marks a prefix check, which reads only whether the parse
	// failed and where: every failure is errPrefix, formatting nothing.
	// Its toks[0] has stream index base, and it appends to marks (if
	// set) each checkpoint it passes at an index in (base, below).
	quiet       bool
	base, below int
	marks       *[]Checkpoint
}

// Parse lexes and parses a complete Verilog source text.
func Parse(src string) (*SourceFile, error) {
	f, _, err := ParseWithTokens(src)
	return f, err
}

// ParseWithTokens is Parse that also hands back the tokens it lexed, in
// source order and without the final EOF token, so a caller that needs
// both the tree and the token stream lexes the source once.
func ParseWithTokens(src string) (*SourceFile, []Token, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &Parser{toks: toks}
	f, err := p.sourceFrom(Checkpoint{})
	if err != nil {
		return nil, nil, err
	}
	return f, toks, nil
}

// Check reports whether src parses without error. It is the corpus
// syntax gate (the paper's "Stagira parser pass/fail" check).
func Check(src string) error {
	_, err := Parse(src)
	return err
}

func (p *Parser) cur() Token {
	if p.pos >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && t.Text == text
}

func (p *Parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.cur()
	if t.Kind != kind || t.Text != text {
		if p.quiet {
			return t, errPrefix // before the arguments are boxed
		}
		return t, p.errAt(t, "expected %q, found %s", text, describe(t))
	}
	p.pos++
	return t, nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		if p.quiet {
			return t, errPrefix
		}
		return t, p.errAt(t, "expected identifier, found %s", describe(t))
	}
	p.pos++
	return t, nil
}

// describe names a token in a message, formatted only with one.
type describe Token

func (t describe) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// errPrefix is every failure of a prefix check (Parser.quiet).
var errPrefix = &SyntaxError{Msg: "not a source prefix"}

func (p *Parser) errAt(t Token, format string, args ...any) error {
	if p.quiet {
		return errPrefix
	}
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// setParam records a folded parameter. A prefix check writes a copy:
// a checkpoint may hold the map.
func (p *Parser) setParam(name string, v int64) {
	if p.quiet {
		p.params = maps.Clone(p.params)
	}
	p.params[name] = v
}

// mark records a checkpoint at the current position, standing at site.
func (p *Parser) mark(site cpSite) {
	at := p.base + p.pos
	if p.marks == nil || at <= p.base || at >= p.below {
		return
	}
	cp := Checkpoint{Pos: at, site: site}
	if site >= sitePorts {
		cp.params = p.params
	}
	*p.marks = append(*p.marks, cp)
}

// sourceFrom parses the source file on from cp. A parse resumed inside
// a module finishes it in a scratch Module.
func (p *Parser) sourceFrom(cp Checkpoint) (*SourceFile, error) {
	f := &SourceFile{}
	site := cp.site
	if site >= sitePorts {
		p.params = cp.params
		if err := p.moduleRest(&Module{}, site == sitePorts); err != nil {
			return nil, err
		}
		site = siteBetween
	}
	for {
		p.mark(site)
		t := p.cur()
		switch {
		case t.Kind == TokEOF:
			if site == siteStart {
				return nil, p.errAt(t, "no module found")
			}
			return f, nil
		case t.Kind == TokDirective:
			f.Directives = append(f.Directives, t.Text)
			p.pos++
		case t.Kind == TokKeyword && t.Text == "module":
			m, err := p.parseModule()
			if err != nil {
				return nil, err
			}
			f.Modules = append(f.Modules, m)
			site = siteBetween
		default:
			return nil, p.errAt(t, "expected 'module', found %s", describe(t))
		}
	}
}

func (p *Parser) parseModule() (*Module, error) {
	p.params = map[string]int64{}
	kw, err := p.expect(TokKeyword, "module")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Line: kw.Line, Name: name.Text}

	// Optional #(parameter ...) header.
	if p.accept(TokPunct, "#") {
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		for {
			if p.accept(TokKeyword, "parameter") {
				// fallthrough to name=value list below
			}
			pn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cv, err := fold(val, p.params, p.quiet)
			if err != nil {
				return nil, err
			}
			p.setParam(pn.Text, cv)
			m.Items = append(m.Items, &ParamDecl{Line: pn.Line, Names: []string{pn.Text}, Values: []Expr{val}})
			if p.accept(TokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
	}

	// Port header: ANSI (directions inline) or non-ANSI (names only).
	ports := p.accept(TokPunct, "(") && !p.accept(TokPunct, ")")
	if !ports {
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if err := p.moduleRest(m, ports); err != nil {
		return nil, err
	}
	return m, nil
}

// moduleRest parses the rest of module m: with ports, the rest of its
// port list and the ");" closing it, then its items through endmodule.
// Each port name and each item starts at a checkpoint.
func (p *Parser) moduleRest(m *Module, ports bool) error {
	if ports {
		if err := p.parsePortHeader(m); err != nil {
			return err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return err
		}
	}
	for {
		p.mark(siteItems)
		t := p.cur()
		if t.Kind == TokEOF {
			return p.errAt(t, "unexpected end of input inside module %q", m.Name)
		}
		if p.accept(TokKeyword, "endmodule") {
			return nil
		}
		items, err := p.parseModuleItem(m)
		if err != nil {
			return err
		}
		m.Items = append(m.Items, items...)
	}
}

// parsePortHeader parses the parenthesized port list. When it sees a
// direction keyword it parses ANSI declarations; bare identifiers give
// non-ANSI placeholder ports completed later by body declarations.
func (p *Parser) parsePortHeader(m *Module) error {
	// Current ANSI declaration state, inherited by subsequent names. It
	// shapes only the ports, never whether the list parses, so a check
	// resumed at a name's checkpoint starts it afresh.
	dir := PortInput
	kind := NetWire
	signed := false
	hasRng := false
	var rng Range
	sawDir := false
	for {
		p.mark(sitePorts)
		t := p.cur()
		if t.Kind == TokKeyword && (t.Text == "input" || t.Text == "output" || t.Text == "inout") {
			sawDir = true
			p.pos++
			switch t.Text {
			case "input":
				dir = PortInput
			case "output":
				dir = PortOutput
			default:
				dir = PortInout
			}
			kind = NetWire
			signed = false
			hasRng = false
			if p.accept(TokKeyword, "reg") {
				kind = NetReg
			} else if p.accept(TokKeyword, "wire") {
				kind = NetWire
			}
			if p.accept(TokKeyword, "signed") {
				signed = true
			}
			if p.at(TokPunct, "[") {
				r, err := p.parseRange(false)
				if err != nil {
					return err
				}
				hasRng, rng = true, r
			}
		}
		nameTok, err := p.expectIdent()
		if err != nil {
			return err
		}
		port := &Port{Line: nameTok.Line, Name: nameTok.Text}
		if sawDir {
			port.Dir, port.Kind, port.Signed, port.HasRng, port.Rng = dir, kind, signed, hasRng, rng
		}
		m.Ports = append(m.Ports, port)
		if p.accept(TokPunct, ",") {
			continue
		}
		return nil
	}
}

func (p *Parser) parseModuleItem(m *Module) ([]Item, error) {
	t := p.cur()
	switch {
	case t.Kind == TokDirective:
		p.pos++
		return nil, nil
	case t.Kind == TokKeyword:
		switch t.Text {
		case "input", "output", "inout":
			return p.parsePortDecl(m)
		case "wire", "reg", "integer", "tri", "supply0", "supply1":
			d, err := p.parseNetDecl()
			if err != nil {
				return nil, err
			}
			return []Item{d}, nil
		case "parameter", "localparam":
			d, err := p.parseParamDecl()
			if err != nil {
				return nil, err
			}
			return []Item{d}, nil
		case "assign":
			return p.parseContAssigns()
		case "always":
			p.pos++
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return []Item{&AlwaysBlock{Line: t.Line, Body: body}}, nil
		case "initial":
			p.pos++
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return []Item{&InitialBlock{Line: t.Line, Body: body}}, nil
		default:
			return nil, p.errAt(t, "unsupported module item %q", t.Text)
		}
	case t.Kind == TokIdent:
		inst, err := p.parseInstance()
		if err != nil {
			return nil, err
		}
		return []Item{inst}, nil
	}
	return nil, p.errAt(t, "unexpected %s in module body", describe(t))
}

// parsePortDecl handles body-level port declarations (non-ANSI style),
// updating the header's port records in place.
func (p *Parser) parsePortDecl(m *Module) ([]Item, error) {
	t := p.next() // input/output/inout
	var dir PortDir
	switch t.Text {
	case "input":
		dir = PortInput
	case "output":
		dir = PortOutput
	default:
		dir = PortInout
	}
	kind := NetWire
	if p.accept(TokKeyword, "reg") {
		kind = NetReg
	} else if p.accept(TokKeyword, "wire") {
		kind = NetWire
	}
	signed := p.accept(TokKeyword, "signed")
	hasRng := false
	var rng Range
	if p.at(TokPunct, "[") {
		r, err := p.parseRange(false)
		if err != nil {
			return nil, err
		}
		hasRng, rng = true, r
	}
	for {
		nameTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		port := m.PortByName(nameTok.Text)
		if port == nil {
			// Tolerate declarations for ports not in the header
			// (some generated code does this); add them.
			port = &Port{Line: nameTok.Line, Name: nameTok.Text}
			m.Ports = append(m.Ports, port)
		}
		port.Dir, port.Kind, port.Signed, port.HasRng, port.Rng = dir, kind, signed, hasRng, rng
		if p.accept(TokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return nil, nil
}

// parseRange parses [msb:lsb] and checks it at the defaults: a memory's
// word range against MaxWords, a vector's against MaxWidth.
func (p *Parser) parseRange(memory bool) (Range, error) {
	if _, err := p.expect(TokPunct, "["); err != nil {
		return Range{}, err
	}
	msbE, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if _, err := p.expect(TokPunct, ":"); err != nil {
		return Range{}, err
	}
	lsbE, err := p.parseExpr()
	if err != nil {
		return Range{}, err
	}
	if _, err := p.expect(TokPunct, "]"); err != nil {
		return Range{}, err
	}
	return foldRange(msbE, lsbE, p.params, memory, p.quiet)
}

func (p *Parser) parseNetDecl() (*NetDecl, error) {
	t := p.next()
	d := &NetDecl{Line: t.Line}
	switch t.Text {
	case "wire", "tri", "supply0", "supply1":
		d.Kind = NetWire
	case "reg":
		d.Kind = NetReg
	case "integer":
		d.Kind = NetInteger
	}
	d.Signed = p.accept(TokKeyword, "signed") || d.Kind == NetInteger
	if p.at(TokPunct, "[") {
		r, err := p.parseRange(false)
		if err != nil {
			return nil, err
		}
		d.HasRng, d.Rng = true, r
	}
	for {
		nameTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		dn := DeclName{Name: nameTok.Text}
		if p.at(TokPunct, "[") {
			r, err := p.parseRange(true)
			if err != nil {
				return nil, err
			}
			dn.IsArray, dn.ARng = true, r
		}
		if p.accept(TokOp, "=") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			dn.Init = e
		}
		d.Names = append(d.Names, dn)
		if p.accept(TokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseParamDecl() (*ParamDecl, error) {
	t := p.next()
	d := &ParamDecl{Line: t.Line, Localparam: t.Text == "localparam"}
	// Optional range on parameters is accepted and ignored.
	if p.at(TokPunct, "[") {
		if _, err := p.parseRange(false); err != nil {
			return nil, err
		}
	}
	for {
		nameTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cv, err := fold(val, p.params, p.quiet)
		if err != nil {
			return nil, err
		}
		p.setParam(nameTok.Text, cv)
		d.Names = append(d.Names, nameTok.Text)
		d.Values = append(d.Values, val)
		if p.accept(TokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseContAssigns() ([]Item, error) {
	t, err := p.expect(TokKeyword, "assign")
	if err != nil {
		return nil, err
	}
	var delay Expr
	if p.accept(TokPunct, "#") {
		delay, err = p.parseDelayValue()
		if err != nil {
			return nil, err
		}
	}
	var items []Item
	for {
		lhs, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, &ContAssign{Line: t.Line, Delay: delay, LHS: lhs, RHS: rhs})
		if p.accept(TokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return items, nil
}

func (p *Parser) parseInstance() (*Instance, error) {
	mod, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	out := &Instance{Line: mod.Line, ModName: mod.Text}
	if p.accept(TokPunct, "#") {
		if out.Params, err = p.parseParamOverrides(); err != nil {
			return nil, err
		}
	}
	inst, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	out.InstName = inst.Text
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if p.accept(TokPunct, ")") {
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return out, nil
	}
	if p.at(TokPunct, ".") {
		out.ByName = true
		for {
			if _, err := p.expect(TokPunct, "."); err != nil {
				return nil, err
			}
			port, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
			var e Expr
			if !p.at(TokPunct, ")") {
				e, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			out.Conns = append(out.Conns, Connection{Port: port.Text, Expr: e})
			if p.accept(TokPunct, ",") {
				continue
			}
			break
		}
	} else {
		for {
			var e Expr
			var err error
			if !p.at(TokPunct, ",") && !p.at(TokPunct, ")") {
				e, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			out.Conns = append(out.Conns, Connection{Expr: e})
			if p.accept(TokPunct, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseParamOverrides parses an instance's parameter overrides after
// the '#': (.W(4), .D(2)) by name or (4, 2) in order. Each value must
// fold in the instantiating module's parameters.
func (p *Parser) parseParamOverrides() ([]ParamOverride, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	named := p.at(TokPunct, ".")
	var out []ParamOverride
	for {
		var o ParamOverride
		if named {
			if _, err := p.expect(TokPunct, "."); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			o.Name = name.Text
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
		}
		var err error
		if o.Value, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if _, err = fold(o.Value, p.params, p.quiet); err != nil {
			return nil, err
		}
		if named {
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
		}
		out = append(out, o)
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Statements ---

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TokPunct && t.Text == ";":
		p.pos++
		return &NullStmt{Line: t.Line}, nil
	case t.Kind == TokPunct && t.Text == "#":
		p.pos++
		d, err := p.parseDelayValue()
		if err != nil {
			return nil, err
		}
		// A bare "#5;" has a null body.
		if p.accept(TokPunct, ";") {
			return &DelayStmt{Line: t.Line, Delay: d}, nil
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &DelayStmt{Line: t.Line, Delay: d, Body: body}, nil
	case t.Kind == TokPunct && t.Text == "@":
		return p.parseEventCtrl()
	case t.Kind == TokKeyword:
		switch t.Text {
		case "begin":
			return p.parseBlock()
		case "if":
			return p.parseIf()
		case "case", "casez", "casex":
			return p.parseCase()
		case "for":
			return p.parseFor()
		case "while":
			p.pos++
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &While{Line: t.Line, Cond: cond, Body: body}, nil
		case "repeat":
			p.pos++
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
			cnt, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &Repeat{Line: t.Line, Count: cnt, Body: body}, nil
		case "forever":
			p.pos++
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &Forever{Line: t.Line, Body: body}, nil
		}
		return nil, p.errAt(t, "unsupported statement keyword %q", t.Text)
	case t.Kind == TokSysName:
		p.pos++
		call := &SysCall{Line: t.Line, Name: t.Text}
		if p.accept(TokPunct, "(") {
			if !p.at(TokPunct, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, e)
					if p.accept(TokPunct, ",") {
						continue
					}
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return call, nil
	case t.Kind == TokIdent || (t.Kind == TokPunct && t.Text == "{"):
		return p.parseAssignStmt()
	}
	return nil, p.errAt(t, "unexpected %s at start of statement", describe(t))
}

func (p *Parser) parseBlock() (Stmt, error) {
	t, err := p.expect(TokKeyword, "begin")
	if err != nil {
		return nil, err
	}
	b := &Block{Line: t.Line}
	if p.accept(TokPunct, ":") {
		lbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		b.Label = lbl.Text
	}
	for {
		if p.accept(TokKeyword, "end") {
			return b, nil
		}
		if p.cur().Kind == TokEOF {
			return nil, p.errAt(p.cur(), "unterminated begin/end block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
}

func (p *Parser) parseIf() (Stmt, error) {
	t, err := p.expect(TokKeyword, "if")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	thenS, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	out := &If{Line: t.Line, Cond: cond, Then: thenS}
	if p.accept(TokKeyword, "else") {
		elseS, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out.Else = elseS
	}
	return out, nil
}

func (p *Parser) parseCase() (Stmt, error) {
	t := p.next()
	kind := CaseExact
	switch t.Text {
	case "casez":
		kind = CaseZ
	case "casex":
		kind = CaseX
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	c := &Case{Line: t.Line, Kind: kind, Expr: sel}
	for {
		if p.accept(TokKeyword, "endcase") {
			return c, nil
		}
		if p.cur().Kind == TokEOF {
			return nil, p.errAt(p.cur(), "unterminated case statement")
		}
		item := &CaseItem{Line: p.cur().Line}
		if p.accept(TokKeyword, "default") {
			item.Default = true
			p.accept(TokPunct, ":")
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = append(item.Exprs, e)
				if p.accept(TokPunct, ",") {
					continue
				}
				break
			}
			if _, err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		item.Body = body
		c.Items = append(c.Items, item)
	}
}

func (p *Parser) parseFor() (Stmt, error) {
	t, err := p.expect(TokKeyword, "for")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	init, err := p.parsePlainAssign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	step, err := p.parsePlainAssign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &For{Line: t.Line, Init: init, Cond: cond, Step: step, Body: body}, nil
}

// parsePlainAssign parses "lvalue = expr" without the trailing
// semicolon (for-loop init and step clauses).
func (p *Parser) parsePlainAssign() (*Assign, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if _, err := p.expect(TokOp, "="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{Line: t.Line, LHS: lhs, RHS: rhs}, nil
}

func (p *Parser) parseEventCtrl() (Stmt, error) {
	t, err := p.expect(TokPunct, "@")
	if err != nil {
		return nil, err
	}
	ec := &EventCtrlStmt{Line: t.Line}
	if p.accept(TokOp, "*") {
		ec.Star = true
	} else {
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		if p.accept(TokOp, "*") {
			ec.Star = true
		} else {
			for {
				item := SensItem{Edge: EdgeLevel}
				if p.accept(TokKeyword, "posedge") {
					item.Edge = EdgePos
				} else if p.accept(TokKeyword, "negedge") {
					item.Edge = EdgeNeg
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Expr = e
				ec.Items = append(ec.Items, item)
				if p.accept(TokKeyword, "or") || p.accept(TokPunct, ",") {
					continue
				}
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
	}
	// The body may be empty when the event control ends a statement
	// sequence like "@(posedge clk);".
	if p.accept(TokPunct, ";") {
		return ec, nil
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	ec.Body = body
	return ec, nil
}

func (p *Parser) parseAssignStmt() (Stmt, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	nonBlocking := false
	switch {
	case p.accept(TokOp, "="):
	case p.accept(TokOp, "<="):
		nonBlocking = true
	default:
		return nil, p.errAt(t, "expected '=' or '<=' in assignment, found %s", describe(t))
	}
	var delay Expr
	if p.accept(TokPunct, "#") {
		delay, err = p.parseDelayValue()
		if err != nil {
			return nil, err
		}
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &Assign{Line: t.Line, NonBlocking: nonBlocking, LHS: lhs, Delay: delay, RHS: rhs}, nil
}

// parseLValue parses a variable lvalue: an identifier with optional
// selects, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	t := p.cur()
	if p.accept(TokPunct, "{") {
		c := &Concat{Line: t.Line}
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if p.accept(TokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return p.parseSelects(&Ident{Line: name.Line, Name: name.Text})
}

// parseSelects attaches [i] and [m:l] selects to a primary.
func (p *Parser) parseSelects(base Expr) (Expr, error) {
	for p.at(TokPunct, "[") {
		open := p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(TokPunct, ":") {
			second, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			base = &RangeSel{Line: open.Line, X: base, MSB: first, LSB: second}
			continue
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		base = &Index{Line: open.Line, X: base, Idx: first}
	}
	return base, nil
}

func (p *Parser) parseDelayValue() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		return p.numberLiteral(t)
	case t.Kind == TokIdent:
		p.pos++
		return &Ident{Line: t.Line, Name: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errAt(t, "expected delay value, found %s", describe(t))
}

// --- Expressions: precedence climbing ---

// binary operator precedence levels; higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4, "^~": 4, "~^": 4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
	"**": 11,
}

func (p *Parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.at(TokPunct, "?") {
		return cond, nil
	}
	q := p.next()
	trueE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ":"); err != nil {
		return nil, err
	}
	falseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Line: q.Line, Cond: cond, TrueE: trueE, FalseE: falseE}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokOp {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Line: t.Line, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~", "+", "-":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Line: t.Line, Op: t.Text, X: x}, nil
		}
	}
	return p.parsePrimary()
}

// numberLiteral parses a number token's spelling, wrapping the
// literal-level error into a positioned *SyntaxError so Parse's error
// contract holds on malformed literals the lexer accepted.
func (p *Parser) numberLiteral(t Token) (Expr, error) {
	n, err := ParseNumberLiteral(t.Text, t.Line)
	if err != nil {
		return nil, p.errAt(t, "%v", err)
	}
	return n, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		return p.numberLiteral(t)
	case t.Kind == TokString:
		p.pos++
		return &StringLit{Line: t.Line, Val: t.Text}, nil
	case t.Kind == TokIdent:
		p.pos++
		return p.parseSelects(&Ident{Line: t.Line, Name: t.Text})
	case t.Kind == TokSysName:
		p.pos++
		call := &SysFuncCall{Line: t.Line, Name: t.Text}
		if p.accept(TokPunct, "(") {
			if !p.at(TokPunct, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, e)
					if p.accept(TokPunct, ",") {
						continue
					}
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
		}
		return call, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return p.parseSelects(e)
	case t.Kind == TokPunct && t.Text == "{":
		p.pos++
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Replication {N{expr}}.
		if p.at(TokPunct, "{") {
			p.pos++
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rep := &Repl{Line: t.Line, Count: first, X: inner}
			// Allow {N{a,b}} by wrapping extra parts in a concat.
			if p.at(TokPunct, ",") {
				c := &Concat{Line: t.Line, Parts: []Expr{inner}}
				for p.accept(TokPunct, ",") {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.Parts = append(c.Parts, e)
				}
				rep.X = c
			}
			if _, err := p.expect(TokPunct, "}"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "}"); err != nil {
				return nil, err
			}
			return rep, nil
		}
		c := &Concat{Line: t.Line, Parts: []Expr{first}}
		for p.accept(TokPunct, ",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errAt(t, "unexpected %s in expression", describe(t))
}

// Fold evaluates a constant expression in a parameter environment: the
// parser folds every parameter value, range bound and instance override
// in the parameters declared before it, and the simulator folds each of
// them again in an instance's own parameters. It implements
// 2-state arithmetic only; x/z digits in constant contexts are an
// error.
func Fold(e Expr, params map[string]int64) (int64, error) {
	return fold(e, params, false)
}

// foldErr is a failed fold's error: errPrefix when quiet (a prefix
// check reads only that the parse failed), so that nothing is
// formatted there, else the message.
func foldErr(quiet bool, line int, msg string, arg ...string) error {
	if quiet {
		return errPrefix
	}
	if len(arg) > 0 {
		msg = fmt.Sprintf(msg, arg[0])
	}
	return &SyntaxError{Line: line, Msg: msg}
}

// fold is Fold, failing with foldErr.
func fold(e Expr, params map[string]int64, quiet bool) (int64, error) {
	switch v := e.(type) {
	case *Number:
		if v.B != 0 {
			return 0, foldErr(quiet, v.Line, "x/z digits not allowed in constant expression")
		}
		return int64(v.A), nil
	case *Ident:
		if val, ok := params[v.Name]; ok {
			return val, nil
		}
		return 0, foldErr(quiet, v.Line, "identifier %q is not a constant parameter", v.Name)
	case *Unary:
		x, err := fold(v.X, params, quiet)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -x, nil
		case "+":
			return x, nil
		case "~":
			return ^x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, foldErr(quiet, v.Line, "unary %q not allowed in constant expression", v.Op)
	case *Binary:
		x, err := fold(v.X, params, quiet)
		if err != nil {
			return 0, err
		}
		y, err := fold(v.Y, params, quiet)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return x + y, nil
		case "-":
			return x - y, nil
		case "*":
			return x * y, nil
		case "/":
			if y == 0 {
				return 0, foldErr(quiet, v.Line, "division by zero in constant expression")
			}
			return x / y, nil
		case "%":
			if y == 0 {
				return 0, foldErr(quiet, v.Line, "modulo by zero in constant expression")
			}
			return x % y, nil
		case "<<":
			return x << uint(y&63), nil
		case ">>":
			return int64(uint64(x) >> uint(y&63)), nil
		case "**":
			if y < 0 {
				return 1, nil
			}
			return int64(IntPow(uint64(x), uint64(y))), nil
		case "==":
			return b2i(x == y), nil
		case "!=":
			return b2i(x != y), nil
		case "<":
			return b2i(x < y), nil
		case "<=":
			return b2i(x <= y), nil
		case ">":
			return b2i(x > y), nil
		case ">=":
			return b2i(x >= y), nil
		case "&":
			return x & y, nil
		case "|":
			return x | y, nil
		case "^":
			return x ^ y, nil
		case "&&":
			return b2i(x != 0 && y != 0), nil
		case "||":
			return b2i(x != 0 || y != 0), nil
		}
		return 0, foldErr(quiet, v.Line, "operator %q not allowed in constant expression", v.Op)
	case *Ternary:
		c, err := fold(v.Cond, params, quiet)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return fold(v.TrueE, params, quiet)
		}
		return fold(v.FalseE, params, quiet)
	}
	return 0, foldErr(quiet, e.Pos(), "expression is not constant")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
