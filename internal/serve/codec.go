package serve

import (
	"bytes"
	"io"
	"math"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/jsonfast"
)

// Reflection-free codec for /v1/predict and /v1/classify (DESIGN.md §8,
// "Predict codec").

// predictInput is a decoded request: the resolved model, its
// full-width rows and the contributions flag.
type predictInput struct {
	e             *Entry
	rows          []dataset.Instance
	contributions bool
}

// readBody reads r whole into a buffer presized from hint (the
// request's Content-Length; negative when unknown), capped at limit.
// On a read error it returns the bytes read before it, so the caller
// can replay both to encoding/json.
func readBody(r io.Reader, hint, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead spare bytes let the final read report io.EOF without growing.
	buf.Grow(int(max(0, min(hint, limit))) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeFast parses a canonical request body without reflection: "model"
// first and registered; then lowercase keys, each at most once: exactly
// one of "row", "rows" or "events" as a non-empty array, and optionally
// "contributions" as true or false; JSON-grammar numbers in float64
// range; schema-width rows, events named in the schema, 1..MaxBatch rows;
// only whitespace after the closing brace. ok is false for any other
// body, which the caller must decode with encoding/json.
//
// All rows share one arena, each row's slice capped at its own end.
func (s *Server) decodeFast(body []byte) (in predictInput, ok bool) {
	p := jsonfast.NewScanner(body)
	if !p.Eat('{') {
		return in, false
	}
	if key, ok := p.Str(); !ok || string(key) != "model" || !p.Eat(':') {
		return in, false
	}
	ref, ok := p.Str()
	if !ok {
		return in, false
	}
	e, err := s.reg.Get(string(ref))
	if err != nil {
		return in, false
	}
	w := e.width
	// Rows-form bodies hold at most one value per comma (plus one); a
	// sparse events body may still grow the arena.
	arena := make([]float64, 0, max(0, min(bytes.Count(body, []byte{','})+w, s.cfg.MaxBatch*w)))
	nrows := 0
	// row appends one schema-width array of numbers to the arena.
	row := func() bool {
		if !p.Eat('[') {
			return false
		}
		for j := 0; j < w; j++ {
			if j > 0 && !p.Eat(',') {
				return false
			}
			v, ok := p.Float()
			if !ok {
				return false
			}
			arena = append(arena, v)
		}
		nrows++
		return p.Eat(']')
	}
	// events appends one name→rate object as a zero-filled row.
	events := func() bool {
		if !p.Eat('{') {
			return false
		}
		base := len(arena)
		arena = append(arena, make([]float64, w)...)
		nrows++
		if p.Eat('}') {
			return true
		}
		for {
			name, ok := p.Str()
			if !ok || !p.Eat(':') {
				return false
			}
			j, known := e.cols[string(name)]
			if !known {
				return false
			}
			if arena[base+j], ok = p.Float(); !ok {
				return false
			}
			if !p.Eat(',') {
				return p.Eat('}')
			}
		}
	}
	// list reads a non-empty array of items, stopping past MaxBatch
	// rows so a hostile body cannot inflate the arena.
	list := func(item func() bool) bool {
		if !p.Eat('[') {
			return false
		}
		for {
			if !item() || nrows > s.cfg.MaxBatch {
				return false
			}
			if !p.Eat(',') {
				return p.Eat(']')
			}
		}
	}
	var seen uint8
	for p.Eat(',') {
		key, ok := p.Str()
		if !ok || !p.Eat(':') {
			return in, false
		}
		var bit uint8
		switch string(key) {
		case "contributions":
			bit = 1
			if p.Lit("true") {
				in.contributions = true
			} else if !p.Lit("false") {
				return in, false
			}
		case "row":
			bit, ok = 2, row()
		case "rows":
			bit, ok = 4, list(row)
		case "events":
			bit, ok = 8, list(events)
		default:
			return in, false
		}
		if !ok || seen&bit != 0 {
			return in, false
		}
		seen |= bit
	}
	forms := seen &^ 1
	if forms == 0 || forms&(forms-1) != 0 || nrows > s.cfg.MaxBatch || !p.Eat('}') || !p.End() {
		return in, false
	}
	in.e = e
	in.rows = make([]dataset.Instance, nrows)
	for i := range in.rows {
		in.rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return in, true
}

// appendPredictResponse appends exactly the bytes json.Marshal writes
// for resp, plus a newline. ok is false if resp holds a NaN or ±Inf,
// which JSON cannot carry; b is then returned unchanged.
func appendPredictResponse(b []byte, resp *predictResponse) ([]byte, bool) {
	start, finite := len(b), true
	num := func(key string, v float64) {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		b = jsonfast.AppendFloat(append(b, key...), v)
	}
	b = append(b, `{"model":`...)
	b = jsonfast.AppendString(b, resp.Model)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(resp.N), 10)
	b = append(b, `,"predictions":`...)
	if resp.Predictions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range resp.Predictions {
			if i > 0 {
				b = append(b, ',')
			}
			num("", v)
		}
		b = append(b, ']')
	}
	if len(resp.Contributions) > 0 {
		b = append(b, `,"contributions":[`...)
		for i, cs := range resp.Contributions {
			if i > 0 {
				b = append(b, ',')
			}
			if cs == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, c := range cs {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"attr":`...)
				b = strconv.AppendInt(b, int64(c.Attr), 10)
				b = append(b, `,"name":`...)
				b = jsonfast.AppendString(b, c.Name)
				num(`,"coef":`, c.Coef)
				num(`,"rate":`, c.Rate)
				num(`,"cycles":`, c.Cycles)
				num(`,"fraction":`, c.Fraction)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if !finite {
		return b[:start], false
	}
	return append(b, '}', '\n'), true
}
