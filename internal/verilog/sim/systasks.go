package sim

import (
	"fmt"
	"strings"

	"repro/internal/verilog"
)

// execSysCall dispatches a system task statement.
func (c *procCtx) execSysCall(sc *Scope, v *verilog.SysCall) {
	switch v.Name {
	case "$display", "$strobe":
		c.writeOutput(c.formatArgs(sc, v.Args) + "\n")
	case "$write":
		c.writeOutput(c.formatArgs(sc, v.Args))
	case "$finish", "$stop":
		c.s.finished = true
		panic(finishToken{})
	case "$monitor", "$dumpfile", "$dumpvars", "$timeformat", "$readmemh", "$readmemb":
		// accepted and ignored (not needed by the benchmark contract)
	case "$error", "$fatal", "$warning", "$info":
		c.writeOutput(c.formatArgs(sc, v.Args) + "\n")
		if v.Name == "$fatal" {
			c.s.finished = true
			panic(finishToken{})
		}
	default:
		c.failf("unsupported system task %q", v.Name)
	}
}

func (c *procCtx) writeOutput(text string) {
	if c.s.out.Len()+len(text) > maxOutput {
		c.failf("output limit exceeded")
	}
	c.s.out.WriteString(text)
}

// formatArgs renders $display-style arguments: a leading string literal
// acts as a format string; otherwise values print as decimals.
func (c *procCtx) formatArgs(sc *Scope, args []verilog.Expr) string {
	if len(args) == 0 {
		return ""
	}
	if lit, ok := args[0].(*verilog.StringLit); ok {
		return c.formatString(sc, lit.Val, args[1:])
	}
	var parts []string
	for _, a := range args {
		parts = append(parts, c.formatValue(c.evalMust(sc, a), 'd'))
	}
	return strings.Join(parts, " ")
}

// formatString implements the %d/%b/%h/%o/%t/%s/%c/%m/%% directives.
func (c *procCtx) formatString(sc *Scope, format string, args []verilog.Expr) string {
	var sb strings.Builder
	ai := 0
	nextArg := func() (verilog.Expr, bool) {
		if ai < len(args) {
			a := args[ai]
			ai++
			return a, true
		}
		return nil, false
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			sb.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			sb.WriteByte('%')
			break
		}
		// Skip width/zero flags: %0d, %4b, ...
		for i < len(format) && (format[i] == '0' || (format[i] >= '1' && format[i] <= '9')) {
			i++
		}
		if i >= len(format) {
			break
		}
		spec := format[i]
		switch spec {
		case '%':
			sb.WriteByte('%')
		case 'm':
			sb.WriteString(sc.Name)
		case 't':
			// %t consumes its argument (usually $time) per the LRM.
			if a, ok := nextArg(); ok {
				v := c.evalMust(sc, a)
				sb.WriteString(fmt.Sprintf("%d", v.Uint64()))
			} else {
				sb.WriteString(fmt.Sprintf("%d", c.s.now))
			}
		case 's':
			a, ok := nextArg()
			if !ok {
				break
			}
			if lit, isLit := a.(*verilog.StringLit); isLit {
				sb.WriteString(lit.Val)
				break
			}
			v := c.evalMust(sc, a)
			// Render defined bytes as characters.
			var bytesOut []byte
			for sh := (v.W - 1) / 8 * 8; sh >= 0; sh -= 8 {
				b := byte(v.Uint64() >> uint(sh))
				if b != 0 {
					bytesOut = append(bytesOut, b)
				}
			}
			sb.Write(bytesOut)
		case 'c':
			a, ok := nextArg()
			if !ok {
				break
			}
			v := c.evalMust(sc, a)
			sb.WriteByte(byte(v.Uint64()))
		case 'd', 'b', 'h', 'x', 'o':
			a, ok := nextArg()
			if !ok {
				break
			}
			if spec == 'x' {
				spec = 'h'
			}
			v := c.evalMust(sc, a)
			sb.WriteString(c.formatValue(v, spec))
		default:
			// Unknown directive: emit verbatim.
			sb.WriteByte('%')
			sb.WriteByte(spec)
		}
	}
	return sb.String()
}

// formatValue renders a 4-state value in the given radix.
func (c *procCtx) formatValue(v Value, radix byte) string {
	switch radix {
	case 'd':
		if v.HasXZ() {
			if v.B&mask(v.W) == mask(v.W) && v.A&mask(v.W) == 0 {
				return "z"
			}
			return "x"
		}
		if v.Signed {
			return fmt.Sprintf("%d", v.Int64())
		}
		return fmt.Sprintf("%d", v.Uint64())
	case 'b':
		var sb strings.Builder
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
	case 'o':
		return c.formatGrouped(v, 3)
	case 'h':
		return c.formatGrouped(v, 4)
	}
	return v.String()
}

// formatGrouped renders hex/octal digits; a group with any x (z) bit
// prints x (z).
func (c *procCtx) formatGrouped(v Value, bits int) string {
	n := (v.W + bits - 1) / bits
	var sb strings.Builder
	for g := n - 1; g >= 0; g-- {
		var da, db uint64
		for i := bits - 1; i >= 0; i-- {
			idx := g*bits + i
			var a, b uint64
			if idx < v.W {
				a, b = v.Bit(idx)
			}
			da = da<<1 | a
			db = db<<1 | b
		}
		switch {
		case db == 0:
			fmt.Fprintf(&sb, "%x", da)
		case da&db == db && da|db == da && da == db && da != 0:
			// all unknown bits with a=1: x
			sb.WriteByte('x')
		case da == 0:
			sb.WriteByte('z')
		default:
			sb.WriteByte('x')
		}
	}
	return sb.String()
}
