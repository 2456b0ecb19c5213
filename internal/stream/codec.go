package stream

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/jsonfast"
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
	p := jsonfast.NewScanner(line)
	if !p.Eat('{') {
		return Sample{}, false
	}
	var seen uint8
	for {
		key, ok := p.Str()
		if !ok || !p.Eat(':') {
			return Sample{}, false
		}
		var bit uint8
		switch string(key) {
		case "bench":
			bit = 1
			v, ok := p.Str()
			if !ok {
				return Sample{}, false
			}
			s.Bench = names.intern(v)
		case "section":
			bit = 2
			lit, ok := p.Num()
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
			if s.Events, ok = decodeEvents(&p, names); !ok {
				return Sample{}, false
			}
		case "cpi":
			bit = 8
			v, ok := p.Float()
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
		if p.Eat(',') {
			continue
		}
		if p.Eat('}') {
			break
		}
		return Sample{}, false
	}
	return s, p.End()
}

// decodeEvents reads the name→rate object. A repeated name overwrites
// the earlier value, as encoding/json does for maps.
func decodeEvents(p *jsonfast.Scanner, names interner) (map[string]float64, bool) {
	if !p.Eat('{') {
		return nil, false
	}
	// Every entry holds a colon, so the rest of the line's colon count
	// bounds the entry count from above — a cheap size hint, capped so a
	// long hostile line cannot inflate the allocation.
	m := make(map[string]float64, min(bytes.Count(p.Rest(), []byte{':'}), maxHint))
	if p.Eat('}') {
		return m, true
	}
	for {
		key, ok := p.Str()
		if !ok || !p.Eat(':') {
			return nil, false
		}
		v, ok := p.Float()
		if !ok {
			return nil, false
		}
		m[names.intern(key)] = v
		if p.Eat(',') {
			continue
		}
		return m, p.Eat('}')
	}
}

// AppendEvent appends ev's NDJSON line to dst: byte for byte what
// json.Encoder writes for it, trailing newline included. A NaN or ±Inf
// float field, which JSON cannot carry, is an error; dst is then
// returned unchanged.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	w := eventWriter{b: append(dst, `{"type":`...)}
	w.b = jsonfast.AppendString(w.b, ev.Type)
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
		w.b = jsonfast.AppendString(w.b, v)
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
	w.b = jsonfast.AppendFloat(w.b, v)
}
