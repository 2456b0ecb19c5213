package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval recorded around a call into a layer. IDs
// are 1-based; Parent 0 marks a root. Spans that belong to one served
// request share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op tracer, so untraced runs pay one nil check per call site.
// Times are nanoseconds since the tracer's epoch.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose clock reads zero at epoch.
func NewTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// Add records a finished interval and returns its ID (0 when t is nil).
func (t *Tracer) Add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// Start opens a span that End closes, so spans recorded while it is
// open can name it as their parent. It returns 0 when t is nil.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.Add(name, "", parent, time.Now(), time.Time{})
}

// End closes a span opened by Start.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("writing span %d: %w", spans[i].ID, err)
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// (parallel work) count once; child time outside the parent is ignored.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - time.Duration(coveredWithin(children[s.ID], s.Start, s.End))
	}
	return out
}

// coveredWithin is the length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Stage is one additive term of a path's cost model.
type Stage struct {
	Name  string
	Value float64
}

// Reconciliation compares a path's stage sum with its measured
// end-to-end value. The remainder is reported as measured — negative
// when the isolated stages cost more than the whole — never forced to
// zero.
type Reconciliation struct {
	Path      string
	Unit      string
	Stages    []Stage
	Sum       float64
	EndToEnd  float64
	Remainder float64
	// RemainderPct is Remainder as a percentage of EndToEnd.
	RemainderPct float64
}

// Reconcile sums the stages of one path against its end-to-end value.
func Reconcile(path, unit string, e2e float64, stages ...Stage) Reconciliation {
	r := Reconciliation{Path: path, Unit: unit, Stages: stages, EndToEnd: e2e}
	for _, s := range stages {
		r.Sum += s.Value
	}
	r.Remainder = e2e - r.Sum
	if e2e != 0 {
		r.RemainderPct = 100 * r.Remainder / e2e
	}
	return r
}

// String renders the reconciliation as one human-readable line.
func (r Reconciliation) String() string {
	s := fmt.Sprintf("%-9s", r.Path)
	for i, st := range r.Stages {
		sep := " + "
		if i == 0 {
			sep = " "
		}
		s += fmt.Sprintf("%s%s %.4g", sep, st.Name, st.Value)
	}
	return s + fmt.Sprintf(" = %.4g %s; end-to-end %.4g %s; unexplained %.4g %s (%.1f%%)",
		r.Sum, r.Unit, r.EndToEnd, r.Unit, r.Remainder, r.Unit, r.RemainderPct)
}
