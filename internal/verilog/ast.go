package verilog

import "fmt"

// This file defines the abstract syntax tree for the supported Verilog
// subset. The tree is deliberately close to the concrete syntax: the
// fragment layer (package frag) collects syntactically significant
// tokens from it with Inspect, and the simulator (package verilog/sim)
// elaborates it directly.

// Node is implemented by every AST node.
type Node interface {
	// Pos returns the 1-based source line the node starts on.
	Pos() int
}

// SourceFile is a parsed compilation unit: a list of modules plus any
// compiler directives encountered.
type SourceFile struct {
	Modules    []*Module
	Directives []string
}

// Pos implements Node.
func (f *SourceFile) Pos() int {
	if len(f.Modules) > 0 {
		return f.Modules[0].Pos()
	}
	return 1
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	PortInput PortDir = iota
	PortOutput
	PortInout
)

// String returns the Verilog spelling of the direction.
func (d PortDir) String() string {
	switch d {
	case PortInput:
		return "input"
	case PortOutput:
		return "output"
	case PortInout:
		return "inout"
	}
	return "?"
}

// NetKind distinguishes variable kinds in declarations.
type NetKind int

// Net kinds.
const (
	NetWire NetKind = iota
	NetReg
	NetInteger
)

// String returns the Verilog spelling of the net kind.
func (k NetKind) String() string {
	switch k {
	case NetWire:
		return "wire"
	case NetReg:
		return "reg"
	case NetInteger:
		return "integer"
	}
	return "?"
}

// Range is a bit range [MSB:LSB], or a memory's word range, as written:
// MSBExpr and LSBExpr are its bound expressions, and MSB and LSB their
// values at the module's default parameters (what the parser checks and
// the dataset describes). The simulator folds the expressions again in
// each instance's parameters. Inspect does not visit the bounds.
type Range struct {
	MSB, LSB         int
	MSBExpr, LSBExpr Expr
}

// MaxWords is the deepest memory the front-end and simulator support.
const MaxWords = 1 << 20

// Width returns the number of indices the range spans, or a number
// below 1 when that does not fit an int.
func (r Range) Width() int {
	return int(uint64(max(r.MSB, r.LSB))-uint64(min(r.MSB, r.LSB))) + 1
}

// FoldRange folds the bounds of a range as written in params and checks
// its span: a vector spans at most MaxWidth bits, a memory at most
// MaxWords words. It is the one range rule: the parser applies it at the
// module's defaults, the simulator at each instance's parameters.
func FoldRange(msbE, lsbE Expr, params map[string]int64, memory bool) (Range, error) {
	msb, err := Fold(msbE, params)
	if err != nil {
		return Range{}, err
	}
	lsb, err := Fold(lsbE, params)
	if err != nil {
		return Range{}, err
	}
	r := Range{MSB: int(msb), LSB: int(lsb), MSBExpr: msbE, LSBExpr: lsbE}
	limit, unit := MaxWidth, "bits"
	if memory {
		limit, unit = MaxWords, "words"
	}
	if w := r.Width(); w < 1 || w > limit {
		return Range{}, &SyntaxError{Line: msbE.Pos(), Msg: fmt.Sprintf("range [%d:%d] spans more than %d %s", r.MSB, r.LSB, limit, unit)}
	}
	return r, nil
}

// Port is a module port declaration (ANSI or non-ANSI style normalized).
type Port struct {
	Line   int
	Dir    PortDir
	Kind   NetKind // wire (default) or reg
	Signed bool
	HasRng bool
	Rng    Range
	Name   string
}

// Pos implements Node.
func (p *Port) Pos() int { return p.Line }

// Module is a module declaration.
type Module struct {
	Line  int
	Name  string
	Ports []*Port
	Items []Item
}

// Pos implements Node.
func (m *Module) Pos() int { return m.Line }

// PortByName returns the port with the given name, or nil.
func (m *Module) PortByName(name string) *Port {
	for _, p := range m.Ports {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Item is a module-level item (declaration, assign, always, ...).
type Item interface {
	Node
	item()
}

// NetDecl declares one or more nets/variables, optionally with a memory
// (1-D array) dimension: reg [7:0] mem [0:15];
type NetDecl struct {
	Line   int
	Kind   NetKind
	Signed bool
	HasRng bool
	Rng    Range
	Names  []DeclName
}

// DeclName is a single declared name with optional array bounds and
// initializer (initializers only permitted on module-level integers in
// this subset; they are applied at time zero).
type DeclName struct {
	Name    string
	IsArray bool
	ARng    Range
	Init    Expr // may be nil
}

// Pos implements Node.
func (d *NetDecl) Pos() int { return d.Line }
func (d *NetDecl) item()    {}

// ParamDecl declares parameters or localparams with constant values.
// The parser folds each value at the module's defaults, in declaration
// order, and rejects one that does not fold; each instance folds it
// again in its own parameters.
type ParamDecl struct {
	Line       int
	Localparam bool
	Names      []string
	Values     []Expr
}

// Pos implements Node.
func (d *ParamDecl) Pos() int { return d.Line }
func (d *ParamDecl) item()    {}

// ContAssign is a continuous assignment: assign [#d] lhs = rhs;
type ContAssign struct {
	Line  int
	Delay Expr // may be nil
	LHS   Expr
	RHS   Expr
}

// Pos implements Node.
func (a *ContAssign) Pos() int { return a.Line }
func (a *ContAssign) item()    {}

// AlwaysBlock is an always construct with its body statement. The body
// usually starts with an event control (@(...)), represented as an
// EventCtrlStmt.
type AlwaysBlock struct {
	Line int
	Body Stmt
}

// Pos implements Node.
func (a *AlwaysBlock) Pos() int { return a.Line }
func (a *AlwaysBlock) item()    {}

// InitialBlock is an initial construct.
type InitialBlock struct {
	Line int
	Body Stmt
}

// Pos implements Node.
func (a *InitialBlock) Pos() int { return a.Line }
func (a *InitialBlock) item()    {}

// Instance is a module instantiation with optional parameter overrides
// and named or positional connections.
type Instance struct {
	Line     int
	ModName  string
	Params   []ParamOverride // #( ... ), all named or all ordered
	InstName string
	ByName   bool
	Conns    []Connection
}

// ParamOverride is one parameter override of an Instance: #(.W(4))
// names its parameter, #(4) overrides the module's parameters in
// declaration order. Its value folds in the instantiating instance's
// parameters.
type ParamOverride struct {
	Name  string // empty for ordered
	Value Expr
}

// Connection is one port connection of an Instance.
type Connection struct {
	Port string // empty for positional
	Expr Expr   // may be nil for unconnected
}

// Pos implements Node.
func (a *Instance) Pos() int { return a.Line }
func (a *Instance) item()    {}

// --- Statements ---

// Stmt is a procedural statement.
type Stmt interface {
	Node
	stmt()
}

// Block is a begin/end sequence with an optional label.
type Block struct {
	Line  int
	Label string
	Stmts []Stmt
}

// Pos implements Node.
func (s *Block) Pos() int { return s.Line }
func (s *Block) stmt()    {}

// Assign is a procedural assignment. NonBlocking selects <= vs =. An
// optional intra-assignment delay (x = #5 y) is ignored by the
// simulator but accepted by the parser.
type Assign struct {
	Line        int
	NonBlocking bool
	LHS         Expr
	Delay       Expr // may be nil
	RHS         Expr
}

// Pos implements Node.
func (s *Assign) Pos() int { return s.Line }
func (s *Assign) stmt()    {}

// If is an if/else statement. Else may be nil.
type If struct {
	Line int
	Cond Expr
	Then Stmt // may be nil (empty statement)
	Else Stmt // may be nil
}

// Pos implements Node.
func (s *If) Pos() int { return s.Line }
func (s *If) stmt()    {}

// CaseKind distinguishes case/casez/casex.
type CaseKind int

// Case kinds.
const (
	CaseExact CaseKind = iota
	CaseZ
	CaseX
)

// CaseItem is one arm of a case statement; a nil/empty Exprs slice with
// Default=true marks the default arm.
type CaseItem struct {
	Line    int
	Default bool
	Exprs   []Expr
	Body    Stmt // may be nil
}

// Case is a case statement.
type Case struct {
	Line  int
	Kind  CaseKind
	Expr  Expr
	Items []*CaseItem
}

// Pos implements Node.
func (s *Case) Pos() int { return s.Line }
func (s *Case) stmt()    {}

// For is a for loop: for (init; cond; step) body.
type For struct {
	Line int
	Init *Assign
	Cond Expr
	Step *Assign
	Body Stmt
}

// Pos implements Node.
func (s *For) Pos() int { return s.Line }
func (s *For) stmt()    {}

// While is a while loop.
type While struct {
	Line int
	Cond Expr
	Body Stmt
}

// Pos implements Node.
func (s *While) Pos() int { return s.Line }
func (s *While) stmt()    {}

// Repeat is a repeat(n) loop.
type Repeat struct {
	Line  int
	Count Expr
	Body  Stmt
}

// Pos implements Node.
func (s *Repeat) Pos() int { return s.Line }
func (s *Repeat) stmt()    {}

// Forever is a forever loop (testbench clock generators).
type Forever struct {
	Line int
	Body Stmt
}

// Pos implements Node.
func (s *Forever) Pos() int { return s.Line }
func (s *Forever) stmt()    {}

// DelayStmt is #expr stmt (stmt may be nil for a bare delay).
type DelayStmt struct {
	Line  int
	Delay Expr
	Body  Stmt // may be nil
}

// Pos implements Node.
func (s *DelayStmt) Pos() int { return s.Line }
func (s *DelayStmt) stmt()    {}

// SensItem is one entry of a sensitivity list.
type SensItem struct {
	Edge int // 0 = level, 1 = posedge, 2 = negedge
	Expr Expr
}

// Edge constants for SensItem.
const (
	EdgeLevel = 0
	EdgePos   = 1
	EdgeNeg   = 2
)

// EventCtrlStmt is @(...) stmt or @* stmt. Star marks @* / @(*).
type EventCtrlStmt struct {
	Line  int
	Star  bool
	Items []SensItem
	Body  Stmt // may be nil
}

// Pos implements Node.
func (s *EventCtrlStmt) Pos() int { return s.Line }
func (s *EventCtrlStmt) stmt()    {}

// SysCall is a system task invocation statement like $display(...).
type SysCall struct {
	Line int
	Name string
	Args []Expr
}

// Pos implements Node.
func (s *SysCall) Pos() int { return s.Line }
func (s *SysCall) stmt()    {}

// NullStmt is a lone semicolon.
type NullStmt struct{ Line int }

// Pos implements Node.
func (s *NullStmt) Pos() int { return s.Line }
func (s *NullStmt) stmt()    {}

// --- Expressions ---

// Expr is an expression node.
type Expr interface {
	Node
	expr()
}

// Ident is a name reference.
type Ident struct {
	Line int
	Name string
}

// Pos implements Node.
func (e *Ident) Pos() int { return e.Line }
func (e *Ident) expr()    {}

// Number is an integer literal with 4-state planes: bit i is 0 when
// (A>>i,B>>i) = (0,0), 1 for (1,0), z for (0,1) and x for (1,1).
type Number struct {
	Line   int
	Text   string
	Width  int // declared width; 32 for unsized
	Sized  bool
	Signed bool
	A, B   uint64
}

// Pos implements Node.
func (e *Number) Pos() int { return e.Line }
func (e *Number) expr()    {}

// StringLit is a string literal expression (testbench messages).
type StringLit struct {
	Line int
	Val  string
}

// Pos implements Node.
func (e *StringLit) Pos() int { return e.Line }
func (e *StringLit) expr()    {}

// Unary is a prefix operator application: ! ~ & | ^ ~& ~| ~^ + -.
type Unary struct {
	Line int
	Op   string
	X    Expr
}

// Pos implements Node.
func (e *Unary) Pos() int { return e.Line }
func (e *Unary) expr()    {}

// Binary is an infix operator application.
type Binary struct {
	Line int
	Op   string
	X, Y Expr
}

// Pos implements Node.
func (e *Binary) Pos() int { return e.Line }
func (e *Binary) expr()    {}

// Ternary is cond ? a : b.
type Ternary struct {
	Line   int
	Cond   Expr
	TrueE  Expr
	FalseE Expr
}

// Pos implements Node.
func (e *Ternary) Pos() int { return e.Line }
func (e *Ternary) expr()    {}

// Concat is {a, b, c}.
type Concat struct {
	Line  int
	Parts []Expr
}

// Pos implements Node.
func (e *Concat) Pos() int { return e.Line }
func (e *Concat) expr()    {}

// Repl is {n{expr}} replication.
type Repl struct {
	Line  int
	Count Expr
	X     Expr
}

// Pos implements Node.
func (e *Repl) Pos() int { return e.Line }
func (e *Repl) expr()    {}

// Index is a bit-select or memory word select: x[i].
type Index struct {
	Line int
	X    Expr
	Idx  Expr
}

// Pos implements Node.
func (e *Index) Pos() int { return e.Line }
func (e *Index) expr()    {}

// RangeSel is a constant part-select x[msb:lsb].
type RangeSel struct {
	Line     int
	X        Expr
	MSB, LSB Expr
}

// Pos implements Node.
func (e *RangeSel) Pos() int { return e.Line }
func (e *RangeSel) expr()    {}

// SysFuncCall is a system function in expression position ($time,
// $random, $signed, $unsigned).
type SysFuncCall struct {
	Line int
	Name string
	Args []Expr
}

// Pos implements Node.
func (e *SysFuncCall) Pos() int { return e.Line }
func (e *SysFuncCall) expr()    {}
