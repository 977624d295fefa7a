package verilog

// Inspect walks the tree rooted at n in depth-first pre-order, like
// go/ast.Inspect: it calls f(n) and, if f returns true, inspects each
// of n's children in field order. It reaches every node the parser
// builds: ports, items, statements and expressions, including those
// inside CaseItem, DeclName, Connection and SensItem, and every delay.
// Nil children are skipped. It does not visit a Range's bound
// expressions: frag collects its significant tokens through Inspect,
// so visiting them would change the fragments, and with them the
// training bytes. This is the one place the shape of the tree is
// spelled out; collectors elsewhere are visitors over it.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch v := n.(type) {
	case *SourceFile:
		inspectList(v.Modules, f)
	case *Module:
		inspectList(v.Ports, f)
		inspectList(v.Items, f)
	case *NetDecl:
		for _, d := range v.Names {
			Inspect(d.Init, f)
		}
	case *ParamDecl:
		inspectList(v.Values, f)
	case *ContAssign:
		inspectEach(f, v.Delay, v.LHS, v.RHS)
	case *AlwaysBlock:
		Inspect(v.Body, f)
	case *InitialBlock:
		Inspect(v.Body, f)
	case *Instance:
		for _, o := range v.Params {
			Inspect(o.Value, f)
		}
		for _, c := range v.Conns {
			Inspect(c.Expr, f)
		}
	case *Block:
		inspectList(v.Stmts, f)
	case *Assign:
		inspectEach(f, v.LHS, v.Delay, v.RHS)
	case *If:
		inspectEach(f, v.Cond, v.Then, v.Else)
	case *Case:
		Inspect(v.Expr, f)
		for _, it := range v.Items {
			inspectList(it.Exprs, f)
			Inspect(it.Body, f)
		}
	case *For:
		inspectEach(f, v.Init, v.Cond, v.Step, v.Body)
	case *While:
		inspectEach(f, v.Cond, v.Body)
	case *Repeat:
		inspectEach(f, v.Count, v.Body)
	case *Forever:
		Inspect(v.Body, f)
	case *DelayStmt:
		inspectEach(f, v.Delay, v.Body)
	case *EventCtrlStmt:
		for _, it := range v.Items {
			Inspect(it.Expr, f)
		}
		Inspect(v.Body, f)
	case *SysCall:
		inspectList(v.Args, f)
	case *Unary:
		Inspect(v.X, f)
	case *Binary:
		inspectEach(f, v.X, v.Y)
	case *Ternary:
		inspectEach(f, v.Cond, v.TrueE, v.FalseE)
	case *Concat:
		inspectList(v.Parts, f)
	case *Repl:
		inspectEach(f, v.Count, v.X)
	case *Index:
		inspectEach(f, v.X, v.Idx)
	case *RangeSel:
		inspectEach(f, v.X, v.MSB, v.LSB)
	case *SysFuncCall:
		inspectList(v.Args, f)
	}
}

func inspectList[T Node](ns []T, f func(Node) bool) {
	for _, n := range ns {
		Inspect(n, f)
	}
}

func inspectEach(f func(Node) bool, ns ...Node) {
	for _, n := range ns {
		Inspect(n, f)
	}
}
