// Package stream is the online layer over the batch pipeline: it ingests
// per-section counter samples as NDJSON, buffers them in a bounded ring
// with an explicit backpressure policy, scores them through any
// model.Model with the same deterministic fan-out as the batch stages,
// and runs two online monitors over the scored sequence — an incremental
// phase tracker (internal/phases) and a Page–Hinkley drift detector over
// the predicted-vs-observed CPI residual. It turns the paper's
// regression-detection use case ("did the machine stop behaving the way
// the trained model says?") into a continuous process instead of an
// offline comparison.
//
// Determinism contract: for a fixed input sample sequence the emitted
// event stream is byte-identical at any worker count. Scoring fans out
// through parallel.Map (ordered results); all monitor state advances
// serially in input order afterwards.
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/jsonfast"
	"repro/internal/model"
)

// Sample is one NDJSON stream record: one workload section's
// per-instruction event rates, optionally with the observed target value
// (CPI) that enables drift monitoring.
//
//	{"bench":"mcf","section":1042,"events":{"L2M":0.0041,"L1IM":0.002},"cpi":1.41}
type Sample struct {
	// Bench labels the producing workload; informational.
	Bench string `json:"bench,omitempty"`
	// Section is the producer's own section index; informational (the
	// monitor numbers sections by arrival order).
	Section int `json:"section,omitempty"`
	// Events maps event names (model schema attribute names) to
	// per-instruction rates. Absent events default to 0.
	Events map[string]float64 `json:"events"`
	// CPI is the observed target value, if the producer measured it.
	// Without it the sample is scored but cannot feed the drift monitor.
	CPI *float64 `json:"cpi,omitempty"`
}

// Validate checks structural invariants every consumer relies on:
// events present, all values finite.
func (s *Sample) Validate() error {
	if len(s.Events) == 0 {
		return fmt.Errorf("stream: sample has no events")
	}
	for name, v := range s.Events {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: non-finite rate %v for event %q", v, name)
		}
	}
	if s.CPI != nil && (math.IsNaN(*s.CPI) || math.IsInf(*s.CPI, 0)) {
		return fmt.Errorf("stream: non-finite observed cpi %v", *s.CPI)
	}
	return nil
}

// DecodeSample parses one NDJSON line into a validated Sample.
func DecodeSample(line []byte) (Sample, error) {
	return decodeLine(line, nil)
}

// decodeLine is DecodeSample with string interning: canonical lines
// take the reflection-free fast path (codec.go), every other line
// goes to encoding/json, so rejections and their messages are
// encoding/json's own.
func decodeLine(line []byte, names interner) (Sample, error) {
	s, ok := decodeFast(line, names)
	if !ok {
		s = Sample{}
		if err := json.Unmarshal(line, &s); err != nil {
			return Sample{}, fmt.Errorf("stream: malformed sample: %w", err)
		}
	}
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	return s, nil
}

// MaxLineBytes caps one NDJSON line; a model schema has a few dozen
// events, so a megabyte is already far beyond any legitimate sample.
const MaxLineBytes = 1 << 20

// Decoder reads newline-delimited samples, skipping blank lines and
// reporting errors with 1-based line numbers. Malformed lines are
// recoverable — the next Next call moves on — but scanner failures
// (an over-long line, a transport error from the underlying reader)
// are terminal: they stick, and every subsequent Next returns the same
// error, reported by Failed.
type Decoder struct {
	sc    *bufio.Scanner
	line  int
	err   error    // sticky: io.EOF or a terminal read failure
	names interner // event names and bench labels, shared by its samples
}

// NewDecoder wraps r in an NDJSON sample decoder. The line buffer
// starts small and grows on demand up to MaxLineBytes.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	return &Decoder{sc: sc, names: interner{}}
}

// Line returns the 1-based number of the last line handed out.
func (d *Decoder) Line() int { return d.line }

// Next returns the next sample, io.EOF at end of stream, or a decode /
// validation error tagged with the line number. After a malformed line
// the decoder remains usable, so callers can choose to skip and go on;
// after a terminal read failure (Failed reports true) skipping cannot
// make progress and Next keeps returning the same error.
func (d *Decoder) Next() (Sample, error) {
	if d.err != nil {
		return Sample{}, d.err
	}
	for d.sc.Scan() {
		d.line++
		b := d.sc.Bytes()
		if len(trimSpace(b)) == 0 {
			continue
		}
		s, err := decodeLine(b, d.names)
		if err != nil {
			return Sample{}, fmt.Errorf("line %d: %w", d.line, err)
		}
		return s, nil
	}
	if err := d.sc.Err(); err != nil {
		d.err = fmt.Errorf("stream: reading samples: %w", err)
	} else {
		d.err = io.EOF
	}
	return Sample{}, d.err
}

// Failed reports whether the decoder has hit an unrecoverable read
// error — a bufio.Scanner failure such as a line over MaxLineBytes or
// an error from the underlying reader. Unlike a malformed line, this
// state is permanent: drivers that skip bad lines must still abort on
// it or they would spin on the same error forever.
func (d *Decoder) Failed() bool { return d.err != nil && d.err != io.EOF }

// trimSpace trims ASCII whitespace without allocating.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && jsonfast.IsSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && jsonfast.IsSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// schema precomputes the lookups for mapping samples onto a model's
// attribute layout.
type schema struct {
	desc      model.Description
	attrIdx   map[string]int
	targetIdx int
	featIdx   []int // non-target columns in schema order
}

func newSchema(desc model.Description) (*schema, error) {
	s := &schema{desc: desc, attrIdx: make(map[string]int, len(desc.AttrNames)), targetIdx: -1}
	for i, n := range desc.AttrNames {
		s.attrIdx[n] = i
		if n == desc.Target {
			s.targetIdx = i
		} else {
			s.featIdx = append(s.featIdx, i)
		}
	}
	if s.targetIdx < 0 {
		return nil, fmt.Errorf("stream: model schema has no target column %q", desc.Target)
	}
	return s, nil
}

// check validates a sample's event names against the schema without
// allocating the full-width row — the cheap half of instance, for
// callers that only need the verdict.
func (sc *schema) check(s *Sample) error {
	for name := range s.Events {
		i, ok := sc.attrIdx[name]
		if !ok {
			return fmt.Errorf("stream: unknown event %q (model %s schema)", name, sc.desc.Kind)
		}
		if i == sc.targetIdx {
			return fmt.Errorf("stream: event %q is the model target; report it as \"cpi\"", name)
		}
	}
	return nil
}

// instance expands a sample's named events into a full-width instance.
// The target column is left 0 — the observed CPI is monitor input, never
// model input. Unknown event names are an error: a silently dropped
// counter would make every downstream prediction quietly wrong.
func (sc *schema) instance(s *Sample) (dataset.Instance, error) {
	row := make(dataset.Instance, len(sc.desc.AttrNames))
	for name, v := range s.Events {
		i, ok := sc.attrIdx[name]
		if !ok {
			return nil, fmt.Errorf("stream: unknown event %q (model %s schema)", name, sc.desc.Kind)
		}
		if i == sc.targetIdx {
			return nil, fmt.Errorf("stream: event %q is the model target; report it as \"cpi\"", name)
		}
		row[i] = v
	}
	return row, nil
}

// featureVector extracts the raw non-target values of a full-width
// instance, in schema order — the phase tracker's input space.
func (sc *schema) featureVector(row dataset.Instance) []float64 {
	v := make([]float64, len(sc.featIdx))
	for j, f := range sc.featIdx {
		v[j] = row[f]
	}
	return v
}
