package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Reflection-free codecs for the stream hot path, each an exact
// stand-in for encoding/json on the inputs it takes (DESIGN.md §9,
// "Sample codec"): decodeFast parses canonical sample lines and leaves
// every other line to encoding/json; AppendEvent writes the bytes
// json.Encoder would.

// interner dedupes the event names and bench labels of one Decoder's
// samples, so a post of n samples over a k-event schema allocates k
// names instead of n*k. It stops growing at maxInterned entries, so a
// hostile stream of distinct names cannot pin memory through it.
type interner map[string]string

const (
	maxInterned = 1024
	maxHint     = 256 // events map size hint cap; schemas have a few dozen
)

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if in != nil && len(in) < maxInterned {
		in[s] = s
	}
	return s
}

// decodeFast parses a canonical sample line without reflection. ok is
// false for any line outside the canonical subset; the result is then
// meaningless and the caller must decode the line with encoding/json.
func decodeFast(line []byte, names interner) (s Sample, ok bool) {
	p := lineScanner{b: line}
	if !p.eat('{') {
		return Sample{}, false
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return Sample{}, false
		}
		var bit uint8
		switch string(key) {
		case "bench":
			bit = 1
			v, ok := p.str()
			if !ok {
				return Sample{}, false
			}
			s.Bench = names.intern(v)
		case "section":
			bit = 2
			lit, ok := p.num()
			if !ok {
				return Sample{}, false
			}
			n, err := strconv.ParseInt(string(lit), 10, 0)
			if err != nil {
				return Sample{}, false
			}
			s.Section = int(n)
		case "events":
			bit = 4
			if s.Events, ok = p.events(names); !ok {
				return Sample{}, false
			}
		case "cpi":
			bit = 8
			v, ok := p.float()
			if !ok {
				return Sample{}, false
			}
			s.CPI = &v
		default:
			return Sample{}, false
		}
		if seen&bit != 0 {
			return Sample{}, false
		}
		seen |= bit
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			break
		}
		return Sample{}, false
	}
	p.ws()
	return s, p.i == len(p.b)
}

// lineScanner walks one line; every method skips leading whitespace
// and reports ok=false where the line leaves the canonical subset.
type lineScanner struct {
	b []byte
	i int
}

func (p *lineScanner) ws() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

func (p *lineScanner) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escapes.
func (p *lineScanner) str() ([]byte, bool) {
	if !p.eat('"') {
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

// num reads a literal matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (p *lineScanner) num() ([]byte, bool) {
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
func (p *lineScanner) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// float reads a number as encoding/json would into a float64; an
// out-of-range literal is left to encoding/json to reject.
func (p *lineScanner) float() (float64, bool) {
	lit, ok := p.num()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// events reads the name→rate object. A repeated name overwrites the
// earlier value, as encoding/json does for maps.
func (p *lineScanner) events(names interner) (map[string]float64, bool) {
	if !p.eat('{') {
		return nil, false
	}
	// Every entry holds a colon, so the rest of the line's colon count
	// bounds the entry count from above — a cheap size hint, capped so a
	// long hostile line cannot inflate the allocation.
	m := make(map[string]float64, min(bytes.Count(p.b[p.i:], []byte{':'}), maxHint))
	if p.eat('}') {
		return m, true
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return nil, false
		}
		v, ok := p.float()
		if !ok {
			return nil, false
		}
		m[names.intern(key)] = v
		if p.eat(',') {
			continue
		}
		return m, p.eat('}')
	}
}

// AppendEvent appends ev's NDJSON line to dst: byte for byte what
// json.Encoder writes for it, trailing newline included. A NaN or ±Inf
// float field, which JSON cannot carry, is an error; dst is then
// returned unchanged.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	w := eventWriter{b: append(dst, `{"type":`...)}
	w.b = appendString(w.b, ev.Type)
	w.b = append(w.b, `,"section":`...)
	w.b = strconv.AppendInt(w.b, int64(ev.Section), 10)
	w.str("bench", ev.Bench)
	w.integer("phase", ev.Phase)
	w.float("predicted", ev.Predicted, true)
	if ev.Observed != nil {
		w.float("observed", *ev.Observed, false)
	}
	if ev.Residual != nil {
		w.float("residual", *ev.Residual, false)
	}
	w.str("top_event", ev.TopEvent)
	w.float("top_fraction", ev.TopFraction, true)
	w.integer("phase_start", ev.PhaseStart)
	w.str("direction", ev.Direction)
	w.float("stat", ev.Stat, true)
	w.float("mean_residual", ev.MeanResidual, true)
	w.integer("run_length", ev.RunLength)
	w.str("relation", ev.Relation)
	w.str("verdict", string(ev.Verdict))
	w.float("deviation", ev.Deviation, true)
	if w.bad != "" {
		return dst, fmt.Errorf("stream: %s event at section %d: non-finite %s %v",
			ev.Type, ev.Section, w.bad, w.badValue)
	}
	return append(w.b, '}', '\n'), nil
}

// eventWriter appends the optional Event fields, each as ,"key":value;
// the str/integer/float methods skip zero values (the omitempty fields).
type eventWriter struct {
	b        []byte
	bad      string // first field holding a non-finite float
	badValue float64
}

func (w *eventWriter) key(k string) {
	w.b = append(w.b, ',', '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
}

func (w *eventWriter) str(k, v string) {
	if v != "" {
		w.key(k)
		w.b = appendString(w.b, v)
	}
}

func (w *eventWriter) integer(k string, v int) {
	if v != 0 {
		w.key(k)
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
}

func (w *eventWriter) float(k string, v float64, omitEmpty bool) {
	if omitEmpty && v == 0 {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.bad == "" {
			w.bad, w.badValue = k, v
		}
		return
	}
	w.key(k)
	w.b = appendFloat(w.b, v)
}

// appendFloat formats v as encoding/json does: shortest 'f' form, 'e'
// form below 1e-6 and from 1e21 up, with a two-digit negative exponent
// trimmed to one (e-07 → e-7).
func appendFloat(b []byte, v float64) []byte {
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

// appendString quotes s. Printable ASCII other than the characters
// encoding/json escapes (quote, backslash and its HTML-safe <, >, &)
// is copied as is; anything else goes through json.Marshal.
func appendString(b []byte, s string) []byte {
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
