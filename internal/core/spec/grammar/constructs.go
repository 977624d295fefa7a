package grammar

import (
	"strings"

	"repro/internal/verilog"
)

// frame is one open construct on the nesting stack.
type frame struct {
	// kw is the opening keyword: module, begin, case/casez/casex, fork,
	// function, task, generate.
	kw string
	// indent is the leading-whitespace width of the line the construct
	// opened on — the column its closer conventionally sits at.
	indent int
}

// Context is the partial-parse context scanned from a stable token
// stream: enough structure to condition construct drafting on, without
// a real incremental AST.
type Context struct {
	// Ports are the declared port names, in declaration order.
	Ports []string
	// Clock and Reset are the first input ports whose names look like a
	// clock ("clk"/"clock") or a reset ("rst"/"reset"); empty when none.
	Clock, Reset string
	// InHeader reports that the scan ended inside the parenthesized
	// module header (port or parameter list, before the closing ';').
	InHeader bool
	// LastKind/LastText describe the final stable token (TokEOF zero
	// value when the stream is empty).
	LastKind verilog.TokenKind
	LastText string

	stack          []frame
	lastClosedCtrl string // "if"/"for"/"while"/"repeat"/"@" when the last token closed that group's '('
}

// opens maps opening keywords to their closers.
var opens = map[string]string{
	"module":   "endmodule",
	"begin":    "end",
	"case":     "endcase",
	"casez":    "endcase",
	"casex":    "endcase",
	"fork":     "join",
	"function": "endfunction",
	"task":     "endtask",
	"generate": "endgenerate",
}

// closes maps closing keywords to the opener they pop.
var closes = map[string]string{
	"endmodule":   "module",
	"end":         "begin",
	"endcase":     "case",
	"join":        "fork",
	"endfunction": "function",
	"endtask":     "task",
	"endgenerate": "generate",
}

// ctrlKeywords are the statement keywords whose parenthesized group is
// conventionally followed by "begin".
var ctrlKeywords = map[string]bool{"if": true, "for": true, "while": true, "repeat": true}

// scanner is the context scan's state between tokens: one linear pass
// over a token stream, tracking the construct nesting stack, the module
// header position, declared ports (with clock/reset detection), and
// whether the last token closed a control group. It is deliberately
// tolerant: tokens that do not fit the expected shape are skipped,
// never faulted — the prefix check, not this scan, decides viability.
// The zero scanner starts a stream.
type scanner struct {
	c            Context
	parenDepth   int
	bracketDepth int
	armCtrl      string // ctrl keyword (or "@") awaiting its '('
	ctrl         []ctrlGroup
	pendingDir   string // "input"/"output"/"inout" while collecting port names
	awaitName    bool   // just saw "module", expecting its name
	headerArmed  bool   // inside "module name ... ;" — parens here are the header
	curLine      int    // line of the last token (0 before the first)
	lineIndent   int
}

// ctrlGroup is an open control group's '(' and the keyword before it.
type ctrlGroup struct {
	kw    string
	depth int
}

// context is the scanned context after the last token stepped.
func (sc *scanner) context() Context {
	c := sc.c
	c.InHeader = sc.headerArmed && sc.parenDepth > 0
	return c
}

// step advances the scan over one token.
func (sc *scanner) step(t verilog.Token) {
	c := &sc.c
	if t.Line != sc.curLine {
		sc.curLine, sc.lineIndent = t.Line, t.Col-1
	}
	justClosed := ""
	newArm := "" // the arm survives exactly one token: kw then '('
	switch {
	case t.Kind == verilog.TokKeyword:
		switch {
		case t.Text == "module":
			sc.awaitName = true
			c.stack = append(c.stack, frame{kw: "module", indent: sc.lineIndent})
		case opens[t.Text] != "":
			c.stack = append(c.stack, frame{kw: t.Text, indent: sc.lineIndent})
		case closes[t.Text] != "":
			if n := len(c.stack); n > 0 && closeMatches(c.stack[n-1].kw, t.Text) {
				c.stack = c.stack[:n-1]
			}
		case t.Text == "input" || t.Text == "output" || t.Text == "inout":
			sc.pendingDir = t.Text
		case ctrlKeywords[t.Text]:
			newArm = t.Text
		}
	case t.Kind == verilog.TokIdent:
		if sc.awaitName {
			sc.awaitName = false
			sc.headerArmed = true
		} else if sc.pendingDir != "" && sc.bracketDepth == 0 {
			c.Ports = append(c.Ports, t.Text)
			low := strings.ToLower(t.Text)
			if sc.pendingDir == "input" {
				if c.Clock == "" && (strings.Contains(low, "clk") || strings.Contains(low, "clock")) {
					c.Clock = t.Text
				}
				if c.Reset == "" && (strings.Contains(low, "rst") || strings.Contains(low, "reset")) {
					c.Reset = t.Text
				}
			}
		}
	case t.Kind == verilog.TokPunct:
		switch t.Text {
		case "(":
			sc.parenDepth++
			if sc.armCtrl != "" {
				sc.ctrl = append(sc.ctrl, ctrlGroup{sc.armCtrl, sc.parenDepth})
			}
		case ")":
			if n := len(sc.ctrl); n > 0 && sc.ctrl[n-1].depth == sc.parenDepth {
				justClosed = sc.ctrl[n-1].kw
				sc.ctrl = sc.ctrl[:n-1]
			}
			if sc.parenDepth > 0 {
				sc.parenDepth--
			}
			if sc.headerArmed && sc.parenDepth == 0 {
				sc.pendingDir = ""
			}
		case "[":
			sc.bracketDepth++
		case "]":
			if sc.bracketDepth > 0 {
				sc.bracketDepth--
			}
		case ";":
			sc.pendingDir = ""
			sc.headerArmed = false
		case "@":
			newArm = "@"
		}
	}
	sc.armCtrl = newArm
	c.lastClosedCtrl = justClosed
	c.LastKind, c.LastText = t.Kind, t.Text
}

// closeMatches reports whether closer pops an open kw frame (all three
// case variants share endcase).
func closeMatches(kw, closer string) bool { return opens[kw] == closer }

// maxCloseIndent caps the synthesized closer indentation.
const maxCloseIndent = 16

// Constructs synthesizes whole idiomatic continuations of the base
// text, conditioned on the scanned context: sensitivity-list skeletons
// after "always", "begin" after a control group, port-direction and
// header-close continuations inside the module header, and closer
// chains (end/endcase/.../endmodule, indentation matched to the
// opening lines) at statement boundaries. Every candidate is validated
// through Check before it is returned, so a proposal can never be a
// doomed continuation. A disabled step proposes nothing.
func (s *State) Constructs() []string {
	if !s.enabled {
		return nil
	}
	c := &s.ctx
	var out []string
	add := func(text string) {
		if s.Check(text) != verilog.PrefixInvalid {
			out = append(out, text)
		}
	}
	switch {
	case c.LastKind == verilog.TokKeyword && c.LastText == "always":
		if c.Clock != "" {
			if c.Reset != "" {
				add(" @(posedge " + c.Clock + " or posedge " + c.Reset + ") begin")
			}
			add(" @(posedge " + c.Clock + ") begin")
		}
		add(" @(*) begin")
	case c.lastClosedCtrl != "":
		add(" begin")
	case c.InHeader && c.LastText == "," && c.LastKind == verilog.TokPunct:
		add(" input ")
		add(" output ")
	case c.InHeader && c.LastKind == verilog.TokIdent:
		add(");")
	case atBoundary(c) && len(c.stack) > 0:
		top := c.stack[len(c.stack)-1]
		add("\n" + indentOf(top) + opens[top.kw])
		if len(c.stack) > 1 {
			var sb strings.Builder
			for i := len(c.stack) - 1; i >= 0; i-- {
				sb.WriteString("\n")
				sb.WriteString(indentOf(c.stack[i]))
				sb.WriteString(opens[c.stack[i].kw])
			}
			add(sb.String())
		}
	}
	return out
}

// atBoundary reports that the final token ends a statement or block —
// the places a closer chain can legally begin.
func atBoundary(c *Context) bool {
	if c.LastKind == verilog.TokPunct && c.LastText == ";" {
		return true
	}
	return c.LastKind == verilog.TokKeyword && (c.LastText == "end" || c.LastText == "endcase")
}

func indentOf(f frame) string {
	n := f.indent
	if n < 0 {
		n = 0
	}
	if n > maxCloseIndent {
		n = maxCloseIndent
	}
	return strings.Repeat(" ", n)
}
