package verilog

import (
	"fmt"
	"strings"
)

// MaxWidth is the widest vector the front-end and simulator support.
// All benchmark designs and the synthetic corpus stay within it.
const MaxWidth = 64

// ParseNumberLiteral parses a Verilog integer literal (sized, based or
// plain decimal) into a Number node. Underscores are permitted between
// digits. x and z digits are supported in binary, octal and hex bases;
// '?' is an alias for z.
func ParseNumberLiteral(text string, line int) (*Number, error) {
	n := &Number{Line: line, Text: text, Width: 32}
	s := text
	apos := strings.IndexByte(s, '\'')
	if apos < 0 {
		// Plain decimal.
		var v uint64
		digits := 0
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '_' {
				continue
			}
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("verilog: invalid decimal literal %q", text)
			}
			v = v*10 + uint64(c-'0')
			digits++
		}
		if digits == 0 {
			return nil, fmt.Errorf("verilog: empty decimal literal %q", text)
		}
		n.A = v
		n.Signed = true // unsized decimals are signed per LRM
		return n, nil
	}

	// Optional size prefix.
	if apos > 0 {
		size := 0
		for i := 0; i < apos; i++ {
			c := s[i]
			if c == '_' {
				continue
			}
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("verilog: invalid size in literal %q", text)
			}
			size = size*10 + int(c-'0')
		}
		if size <= 0 || size > MaxWidth {
			return nil, fmt.Errorf("verilog: unsupported literal width %d in %q (max %d)", size, text, MaxWidth)
		}
		n.Width = size
		n.Sized = true
	}
	rest := s[apos+1:]
	if rest == "" {
		return nil, fmt.Errorf("verilog: truncated literal %q", text)
	}
	if rest[0] == 's' || rest[0] == 'S' {
		n.Signed = true
		rest = rest[1:]
	}
	if rest == "" {
		return nil, fmt.Errorf("verilog: truncated literal %q", text)
	}
	base := rest[0]
	digits := rest[1:]
	var bitsPer int
	switch base {
	case 'b', 'B':
		bitsPer = 1
	case 'o', 'O':
		bitsPer = 3
	case 'h', 'H':
		bitsPer = 4
	case 'd', 'D':
		var v uint64
		ndig := 0
		for i := 0; i < len(digits); i++ {
			c := digits[i]
			if c == '_' {
				continue
			}
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("verilog: invalid decimal digit %q in %q", string(c), text)
			}
			v = v*10 + uint64(c-'0')
			ndig++
		}
		if ndig == 0 {
			return nil, fmt.Errorf("verilog: empty decimal literal %q", text)
		}
		n.A = maskTo(v, n.Width)
		return n, nil
	default:
		return nil, fmt.Errorf("verilog: invalid base %q in %q", string(base), text)
	}

	var a, b uint64
	nbits := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c == '_' {
			continue
		}
		var da, db uint64
		switch {
		case c == 'x' || c == 'X':
			da = (1 << bitsPer) - 1
			db = (1 << bitsPer) - 1
		case c == 'z' || c == 'Z' || c == '?':
			da = 0
			db = (1 << bitsPer) - 1
		default:
			v, err := hexDigit(c)
			if err != nil || v >= (1<<bitsPer) {
				return nil, fmt.Errorf("verilog: invalid digit %q for base in %q", string(c), text)
			}
			da = v
		}
		if nbits+bitsPer > MaxWidth {
			return nil, fmt.Errorf("verilog: literal %q exceeds %d bits", text, MaxWidth)
		}
		a = a<<bitsPer | da
		b = b<<bitsPer | db
		nbits += bitsPer
	}
	if nbits == 0 {
		return nil, fmt.Errorf("verilog: based literal %q has no digits", text)
	}
	if !n.Sized {
		n.Width = 32
	}
	// Extend per LRM: if the leading digit is x or z, the extension
	// fills with x/z; otherwise zero-extend. Then truncate to width.
	if nbits > 0 && nbits < n.Width {
		topA := a >> (nbits - 1) & 1
		topB := b >> (nbits - 1) & 1
		if topB == 1 {
			ext := maskBits(n.Width) &^ maskBits(nbits)
			b |= ext
			if topA == 1 {
				a |= ext
			}
		}
	}
	n.A = maskTo(a, n.Width)
	n.B = maskTo(b, n.Width)
	return n, nil
}

func hexDigit(c byte) (uint64, error) {
	switch {
	case c >= '0' && c <= '9':
		return uint64(c - '0'), nil
	case c >= 'a' && c <= 'f':
		return uint64(c-'a') + 10, nil
	case c >= 'A' && c <= 'F':
		return uint64(c-'A') + 10, nil
	}
	return 0, fmt.Errorf("bad hex digit %q", string(c))
}

// maskBits returns a mask with the low w bits set (w in 0..64).
func maskBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// maskTo truncates v to w bits.
func maskTo(v uint64, w int) uint64 { return v & maskBits(w) }

// IntPow returns base**exp modulo 2^64 by squaring, at most two
// multiplications per bit of exp. The constant folder and the
// simulator's ** both use it: wrapping arithmetic makes the result
// right for a signed base too, and its low w bits are base**exp modulo
// 2^w.
func IntPow(base, exp uint64) uint64 {
	r := uint64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
	}
	return r
}
