// Package jsonfast holds the primitives of the reflection-free JSON
// codecs on the /v1/stream and /v1/predict hot paths: a scanner for the
// canonical subset of JSON they take (every other input goes to
// encoding/json), and appenders writing values as encoding/json does.
package jsonfast

import (
	"encoding/json"
	"math"
	"strconv"
)

// Scanner walks one JSON document; every method skips leading
// whitespace and reports ok=false where the input leaves the canonical
// subset. After a false result the position is unspecified.
type Scanner struct {
	b []byte
	i int
}

// NewScanner returns a scanner positioned at the start of b.
func NewScanner(b []byte) Scanner { return Scanner{b: b} }

// Rest returns the unread input.
func (p *Scanner) Rest() []byte { return p.b[p.i:] }

// End reports whether only whitespace is left.
func (p *Scanner) End() bool {
	p.ws()
	return p.i == len(p.b)
}

// ws skips JSON whitespace.
func (p *Scanner) ws() {
	for p.i < len(p.b) && IsSpace(p.b[p.i]) {
		p.i++
	}
}

// IsSpace reports whether c is JSON whitespace.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Eat consumes c if it is the next non-whitespace byte.
func (p *Scanner) Eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// Lit consumes the literal s (e.g. true) if it comes next.
func (p *Scanner) Lit(s string) bool {
	p.ws()
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// Str reads a string of printable ASCII with no escapes and returns
// its contents.
func (p *Scanner) Str() ([]byte, bool) {
	if !p.Eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Num reads a literal matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (p *Scanner) Num() ([]byte, bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
	} else if !p.digits() {
		return nil, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return nil, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits consumes one or more decimal digits.
func (p *Scanner) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// Float reads a number as encoding/json would into a float64; an
// out-of-range literal is left to encoding/json to reject.
func (p *Scanner) Float() (float64, bool) {
	lit, ok := p.Num()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// AppendFloat formats a finite v as encoding/json does: shortest 'f'
// form, 'e' form below 1e-6 and from 1e21 up, with a two-digit
// negative exponent trimmed to one (e-07 → e-7).
func AppendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString quotes s. Printable ASCII other than the characters
// encoding/json escapes (quote, backslash and its HTML-safe <, >, &)
// is copied as is; anything else goes through json.Marshal.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
